package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// recordedPath holds every trajectory's virtual result for one seed, as
// `-check-noise -record` left it. The simulation is deterministic, so a
// change that claims to be host-only must reproduce the file bit for bit;
// a model-side change re-records it and says what moved. The path is
// relative to the repository root, where run.sh starts the command.
const recordedPath = "benchmark/recorded.json"

type recording struct {
	Seed int64 `json:"seed"`
	// Virtual is, per workload, one result per trajectory.
	Virtual map[string][]virtualResult `json:"virtual"`
}

// runSet measures every workload once per seed, untraced, and returns the
// documents by workload name in seed order. Workloads alternate, so a slow
// spell of the machine is spread over all of them.
func runSet(seeds []int64, seconds float64) (map[string][]*runDoc, error) {
	pr := defaultProtocol(seconds)
	set := make(map[string][]*runDoc)
	for _, seed := range seeds {
		for _, w := range workloads {
			doc, err := measure(w, seed, nil, pr)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if !doc.result.Correct {
				return nil, fmt.Errorf("%s failed the correctness gate: %v", w.name, doc.Problems)
			}
			set[w.name] = append(set[w.name], doc)
		}
	}
	return set, nil
}

// diffTrajectories names what differs between two runs' virtual results.
func diffTrajectories(workload, what string, a, b []virtualResult) []string {
	if len(a) != len(b) {
		return []string{fmt.Sprintf("%s: %d trajectories, %s has %d", workload, len(a), what, len(b))}
	}
	var out []string
	for i := range a {
		for _, d := range diffVirtual(a[i], b[i]) {
			out = append(out, fmt.Sprintf("%s trajectory %d differs from %s on %s", workload, i+1, what, d))
		}
	}
	return out
}

func failOn(label string, misses []string, summary string) error {
	for _, miss := range misses {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", label, miss)
	}
	if len(misses) > 0 {
		return fmt.Errorf("%d %s", len(misses), summary)
	}
	return nil
}

// checkNoiseCmd runs the whole untraced set twice, back to back, with one
// seed, and fails unless the two sets agree on every end-to-end metric of
// every workload within that metric's own bound, on every virtual result
// exactly, and with the recording. It prints the table README.md carries.
func checkNoiseCmd(seed int64, seconds float64, record bool) error {
	var sets [2]map[string][]*runDoc
	for i := range sets {
		var err error
		if sets[i], err = runSet([]int64{seed}, seconds); err != nil {
			return err
		}
	}

	fmt.Println("| workload | metric | set 1 (min / median / max over reps) | set 2 (min / median / max over reps) | reported 1 | reported 2 | difference | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	var misses []string
	for _, w := range workloads {
		a, b := sets[0][w.name][0], sets[1][w.name][0]
		for _, m := range endToEnd {
			va, vb := a.result.Metrics[m.name].Value, b.result.Metrics[m.name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			over := func(d *runDoc) string {
				s, ok := d.Spread[m.name]
				if !ok {
					return "exact"
				}
				return fmt.Sprintf("%.4g / %.4g / %.4g", s.Min, s.Median, s.Max)
			}
			fmt.Printf("| %s | %s (%s) | %s | %s | %.6g | %.6g | %.2f%% | %.1f%% |\n",
				w.name, m.name, m.unit, over(a), over(b), va, vb, 100*diff, 100*m.bound)
			if diff > m.bound {
				misses = append(misses, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.2f%%, bound %.1f%%", w.name, m.name, va, vb, 100*diff, 100*m.bound))
			}
		}
		misses = append(misses, diffTrajectories(w.name, "the second set", a.Virtual, b.Virtual)...)
	}
	if err := failOn("NOISY", misses, "metric(s) differ between two sets of the same code by more than their bound"); err != nil {
		return err
	}

	if record {
		rec := recording{Seed: seed, Virtual: make(map[string][]virtualResult)}
		for _, w := range workloads {
			rec.Virtual[w.name] = sets[0][w.name][0].Virtual
		}
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(recordedPath, append(b, '\n'), 0o644)
	}
	file, err := os.ReadFile(recordedPath)
	if err != nil {
		return err
	}
	var rec recording
	if err := json.Unmarshal(file, &rec); err != nil {
		return fmt.Errorf("%s: %w", recordedPath, err)
	}
	if rec.Seed != seed {
		fmt.Fprintf(os.Stderr, "benchmark: %s holds seed %d, not %d: virtual results not compared against it\n", recordedPath, rec.Seed, seed)
		return nil
	}
	misses = nil
	for _, w := range workloads {
		misses = append(misses, diffTrajectories(w.name, recordedPath, sets[0][w.name][0].Virtual, rec.Virtual[w.name])...)
	}
	return failOn("CHANGED", misses, "virtual result(s) differ from the recording: a model-side change re-records with -check-noise -record and says what moved")
}

// quartiles are the first quartile, the median and the third quartile the
// way Python's statistics.quantiles(values, n=4) gives them.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// checkSeedsCmd is the acceptance procedure of the benchmark contract: two
// sets of n runs per workload, every run with another seed. A metric's
// spread is the distance between the first and the third quartile of a
// set's values as a share of their median. It fails if a spread (setup_s
// excepted: set-up time is the same work for every seed, on a noisy clock)
// exceeds the metric's bound, or the second set's median is worse than the
// first's by more than the bound.
func checkSeedsCmd(seed int64, n int, seconds float64) error {
	var sets [2]map[string][]*runDoc
	for i := range sets {
		seeds := make([]int64, n)
		for j := range seeds {
			seeds[j] = seed + int64(i*n+j)
		}
		var err error
		if sets[i], err = runSet(seeds, seconds); err != nil {
			return err
		}
	}

	fmt.Printf("Seeds %d to %d and %d to %d.\n\n", seed, seed+int64(n)-1, seed+int64(n), seed+int64(2*n)-1)
	fmt.Println("| workload | metric | median, set 1 | spread, set 1 | median, set 2 | spread, set 2 | set 2 worse by | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	var misses []string
	for _, w := range workloads {
		for _, m := range endToEnd {
			var med, spr [2]float64
			for i := range sets {
				var vals []float64
				for _, doc := range sets[i][w.name] {
					vals = append(vals, doc.result.Metrics[m.name].Value)
				}
				q1, q2, q3 := quartiles(vals)
				med[i], spr[i] = q2, (q3-q1)/q2
				if spr[i] > m.bound && m.name != "setup_s" {
					misses = append(misses, fmt.Sprintf("%s %s: spread %.2f%% in set %d, bound %.1f%%", w.name, m.name, 100*spr[i], i+1, 100*m.bound))
				}
			}
			worse := (med[1] - med[0]) / med[0]
			if m.better == "higher" {
				worse = -worse
			}
			if worse > m.bound {
				misses = append(misses, fmt.Sprintf("%s %s: median %.6g then %.6g, worse by %.2f%%, bound %.1f%%", w.name, m.name, med[0], med[1], 100*worse, 100*m.bound))
			}
			fmt.Printf("| `%s` | `%s` | %.5g | %.2f %% | %.5g | %.2f %% | %+.2f %% | %.1f %% |\n",
				w.name, m.name, med[0], 100*spr[0], med[1], 100*spr[1], 100*worse, 100*m.bound)
		}
	}
	return failOn("NOISY", misses, "metric(s) outside their bound across seeds")
}
