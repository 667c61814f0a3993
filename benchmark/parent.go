package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// protocol is how one workload run is measured. The defaults are the
// benchmark's; the smoke test shrinks them.
type protocol struct {
	// trajectories is how many experiments of consecutive Spec.Seed an
	// untraced run pools its counts and virtual results over: a different
	// --seed is a different, equally valid trajectory, and one of them is too
	// small a sample of transactions to repeat within a few percent.
	// Repetition j runs trajectory j mod trajectories, so every repetition
	// past the first round must reproduce an earlier one bit for bit.
	trajectories int
	// An untraced run repeats until `seconds` of wall time have gone by,
	// but never fewer than minReps times (every trajectory once) nor more
	// than maxReps (every trajectory twice).
	seconds          float64
	minReps, maxReps int
	// A traced run makes untracedReps and tracedReps repetitions, all of
	// trajectory 0.
	untracedReps, tracedReps int
	// rep runs one repetition of the spec with this Spec.Seed and returns
	// its report and peak RSS in MiB.
	rep      func(w workload, specSeed int64, traced bool) (*repReport, float64, error)
	progress io.Writer
}

func defaultProtocol(seconds float64) protocol {
	return protocol{
		trajectories: 5, seconds: seconds, minReps: 5, maxReps: 10,
		untracedReps: 3, tracedReps: 2,
		rep: childRep, progress: os.Stderr,
	}
}

// childEnv is the whole environment of a child: one simulation runs one
// goroutine at a time, so one P is the representative setting (and the
// steady one), and nothing of the caller's GOGC, GODEBUG or GOMEMLIMIT may
// leak into a measurement.
var childEnv = []string{"GOMAXPROCS=1"}

func runChild(args ...string) ([]byte, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = childEnv
	// A parent killed mid-run (a driver's timeout) must not leave its
	// child running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child %v: %w", args, err)
	}
	rssMiB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out.Bytes(), rssMiB, nil
}

func childRep(w workload, specSeed int64, traced bool) (*repReport, float64, error) {
	args := []string{"-child", w.name, "-seed", strconv.FormatInt(specSeed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	out, rss, err := runChild(args...)
	if err != nil {
		return nil, 0, err
	}
	rep := &repReport{}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, 0, fmt.Errorf("child report: %w", err)
	}
	return rep, rss, nil
}

func childProbes() (map[string]float64, error) {
	out, _, err := runChild("-child", "probes")
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("probe report: %w", err)
	}
	return m, nil
}

// spread is a metric's minimum, median and maximum over the repetitions.
type spread struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func spreadOf(vals []float64) spread {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return spread{Min: s[0], Median: med, Max: s[len(s)-1]}
}

// runDoc is the full account of one workload run: what the contract's
// result line carries, plus what a reader needs to trust it.
type runDoc struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Go       string `json:"go"`
	NProc    int    `json:"nproc"`
	Commit   string `json:"commit"`
	Reps     int    `json:"reps"`
	Setups   int    `json:"setups_per_rep"`
	// Spread is per host-clock metric, over the repetitions (the two
	// allocation metrics: over the trajectories).
	Spread map[string]spread `json:"spread"`
	// Virtual is the exact result of each trajectory, in order.
	Virtual []virtualResult `json:"virtual"`
	// Replaced lists the trajectories left out because an operation failed
	// in them.
	Replaced []replacedTrajectory `json:"replaced_trajectories,omitempty"`
	Notes    []string             `json:"notes,omitempty"`
	// Problems is the correctness gate's findings; empty means correct.
	Problems []string `json:"problems,omitempty"`

	result resultLine
}

type replacedTrajectory struct {
	SpecSeed         int64 `json:"spec_seed"`
	FailedOperations int   `json:"failed_operations"`
}

const (
	// reserveStride is far beyond any Spec.Seed a --seed maps to.
	reserveStride = 1 << 40
	// One trajectory in ten to four has a failed operation, so more than
	// eight replacements before five clean ones is a one-in-a-thousand run.
	maxReplaced = 8
)

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// commit is the revision the binary was built from, marked when the tree
// had uncommitted changes.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// diffVirtual names the fields on which two virtual results disagree.
func diffVirtual(a, b virtualResult) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Interface() != vb.Field(i).Interface() {
			out = append(out, fmt.Sprintf("%s (%v vs %v)", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	return out
}

// gate is the correctness check on one trajectory's virtual result.
func gate(w workload, v virtualResult) []string {
	var p []string
	bad := func(field string, got any) {
		p = append(p, fmt.Sprintf("%s: %s = %v", w.name, field, got))
	}
	if v.Committed == 0 {
		bad("Committed", 0)
	}
	if v.Lost != 0 {
		// In the replicated workload this is the sync-mode RPO.
		bad("LostTransactions", v.Lost)
	}
	if v.Violations != 0 {
		bad("IntegrityViolations", v.Violations)
	}
	if w.name == wFailover && !v.FailedOver {
		bad("FailedOver", false)
	}
	return p
}

// sample is one finished repetition.
type sample struct {
	rep    *repReport
	rssMiB float64
}

// repeat runs repetitions, the j-th with Spec.Seed specSeed(j), until done
// says stop. A repetition that keep (if given) turns down is dropped and its
// place taken by the next one.
func (pr protocol) repeat(w workload, traced bool, specSeed func(j int) int64, keep func(j int, rep *repReport) bool, done func(n int, elapsed float64) bool) ([]sample, error) {
	var out []sample
	start := time.Now()
	for !done(len(out), time.Since(start).Seconds()) {
		seed := specSeed(len(out))
		rep, rss, err := pr.rep(w, seed, traced)
		if err != nil {
			return nil, err
		}
		if keep != nil && !keep(len(out), rep) {
			fmt.Fprintf(pr.progress, "%s spec-seed=%d: %d failed operation(s), trajectory replaced\n", w.name, seed, rep.Virtual.opFailures())
			continue
		}
		out = append(out, sample{rep, rss})
		fmt.Fprintf(pr.progress, "%s spec-seed=%d traced=%v rep %d: wall %.3fs, %d committed, %.1f us/txn, rss %.1f MiB\n",
			w.name, seed, traced, len(out), rep.WallS, rep.Virtual.Committed, 1e6*rep.WallS/float64(rep.Virtual.Committed), rss)
		for _, n := range rep.Notes {
			fmt.Fprintf(pr.progress, "  %s\n", n)
		}
	}
	return out, nil
}

func fastestWall(ss []sample) float64 {
	best := ss[0].rep.WallS
	for _, s := range ss[1:] {
		best = min(best, s.rep.WallS)
	}
	return best
}

// measure runs one workload the way the protocol says and returns its
// document; with probes (the isolated probes' results) it is the traced run.
// A run that fails the correctness gate still returns a document (Problems
// set, result.Correct false) so the caller can print the reason.
func measure(w workload, seed int64, probes map[string]float64, pr protocol) (*runDoc, error) {
	traced := probes != nil
	nTraj := pr.trajectories
	if traced {
		nTraj = 1
	}
	// --seed n stands for the trajectories of Spec.Seed 5n .. 5n+4. The
	// inputs are chosen so that no operation fails: a trajectory in which
	// one does (about one in ten: an Order-Status reading an order whose
	// lines are not committed yet, see the README) gives its place to the
	// one reserveStride further on, the same one every time the seed is
	// run. At most maxReplaced are replaced, so a program in which
	// operations fail as a rule still reports them.
	seeds := make([]int64, nTraj)
	for j := range seeds {
		seeds[j] = seed*int64(pr.trajectories) + int64(j)
	}
	specSeed := func(j int) int64 { return seeds[j%nTraj] }
	var replaced []replacedTrajectory
	keep := func(j int, rep *repReport) bool {
		n := rep.Virtual.opFailures()
		if j >= nTraj || n == 0 || len(replaced) == maxReplaced {
			return true
		}
		replaced = append(replaced, replacedTrajectory{SpecSeed: seeds[j], FailedOperations: n})
		seeds[j] += reserveStride
		return false
	}
	untraced, err := pr.repeat(w, false, specSeed, keep, func(n int, elapsed float64) bool {
		if traced {
			return n >= pr.untracedReps
		}
		return n >= pr.maxReps || n >= pr.minReps && elapsed >= pr.seconds
	})
	if err != nil {
		return nil, err
	}
	doc := &runDoc{
		Workload: w.name, Seed: seed, Go: runtime.Version(), NProc: runtime.NumCPU(),
		Commit: commit(), Reps: len(untraced), Setups: setupsPerRep,
		Spread: map[string]spread{}, Replaced: replaced,
	}

	// The first round runs each trajectory once: its repetitions carry the
	// counts and the virtual results. Every later repetition repeats one of
	// them and must reproduce it: the virtual result bit for bit, the
	// allocation count up to a few runtime-internal objects (repetitions
	// that disagree by a thousandth ran different code).
	var committed, attempted, failed, mallocs, allocBytes, tpmC float64
	var allocs, kb []float64
	for j, s := range untraced {
		v := s.rep.Virtual
		if j < nTraj {
			doc.Virtual = append(doc.Virtual, v)
			doc.Problems = append(doc.Problems, gate(w, v)...)
			committed += float64(v.Committed)
			attempted += float64(v.Committed + v.Failures)
			failed += float64(v.opFailures() + v.Lost + v.Violations)
			mallocs += float64(s.rep.Mallocs)
			allocBytes += float64(s.rep.AllocBytes)
			tpmC += v.TpmC / float64(nTraj)
			allocs = append(allocs, float64(s.rep.Mallocs)/float64(v.Committed))
			kb = append(kb, float64(s.rep.AllocBytes)/1024/float64(v.Committed))
			continue
		}
		first := untraced[j%nTraj].rep
		for _, d := range diffVirtual(first.Virtual, v) {
			doc.Problems = append(doc.Problems, fmt.Sprintf("%s: repetition %d differs from repetition %d on %s", w.name, j+1, j%nTraj+1, d))
		}
		if a, b := float64(first.Mallocs), float64(s.rep.Mallocs); math.Abs(a-b) > 0.001*a {
			doc.Problems = append(doc.Problems, fmt.Sprintf("%s: repetition %d allocates %.0f objects, repetition %d %.0f", w.name, j+1, b, j%nTraj+1, a))
		}
	}

	var us, rss, setup []float64
	for _, s := range untraced {
		us = append(us, 1e6*s.rep.WallS/float64(s.rep.Virtual.Committed))
		rss = append(rss, s.rssMiB)
		setup = append(setup, s.rep.SetupS...)
	}
	doc.Spread["host_us_per_txn"] = spreadOf(us)
	doc.Spread["allocs_per_txn"] = spreadOf(allocs)
	doc.Spread["alloc_kb_per_txn"] = spreadOf(kb)
	doc.Spread["peak_rss_mb"] = spreadOf(rss)
	doc.Spread["setup_s"] = spreadOf(setup)
	// Host times report the fastest repetition: interference on a shared
	// box only ever adds time. Memory reports the median; counts and virtual
	// results are pooled over the trajectories.
	values := map[string]float64{
		"host_us_per_txn":  doc.Spread["host_us_per_txn"].Min,
		"allocs_per_txn":   mallocs / committed,
		"alloc_kb_per_txn": allocBytes / 1024 / committed,
		"peak_rss_mb":      doc.Spread["peak_rss_mb"].Median,
		"setup_s":          doc.Spread["setup_s"].Min,
		"tpmC":             tpmC,
		"served_share":     committed / attempted,
	}
	defs := endToEnd

	if traced {
		doc.Trace = 1
		tr, err := pr.repeat(w, true, specSeed, nil, func(n int, _ float64) bool { return n >= pr.tracedReps })
		if err != nil {
			return nil, err
		}
		for i, s := range tr {
			for _, d := range diffVirtual(doc.Virtual[0], s.rep.Virtual) {
				doc.Problems = append(doc.Problems, fmt.Sprintf("%s: traced repetition %d differs from the untraced run on %s", w.name, i+1, d))
			}
		}
		// The exact numbers are the same in every traced repetition; the
		// sampled host shares are averaged over them.
		values = tr[0].rep.Layers
		for name := range values {
			if strings.HasPrefix(name, "cpu_share.") || strings.HasPrefix(name, "alloc_share.") {
				sum := 0.0
				for _, s := range tr {
					sum += s.rep.Layers[name]
				}
				values[name] = sum / float64(len(tr))
			}
		}
		values["core.trace_overhead"] = fastestWall(tr)/fastestWall(untraced) - 1
		for k, v := range probes {
			values[k] = v
		}
		defs = perLayer
	}

	metrics, missing := withUnits(defs, values)
	doc.Problems = append(doc.Problems, missing...)
	doc.result = resultLine{
		Correct:   len(doc.Problems) == 0,
		Attempted: int(attempted),
		Failed:    int(failed),
		Metrics:   metrics,
	}
	return doc, nil
}
