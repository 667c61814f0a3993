// Command benchmark is the repository's two-clock benchmark: it runs named
// workloads through core.Run — one whole experiment, the unit a dbench user
// pays for — and reports the host cost (fastest of N repetitions, each a
// child process at GOMAXPROCS=1) beside the exact virtual result, after
// checking that the outputs are correct. A traced invocation reports where
// the host time and the virtual time went, layer by layer. See README.md.
//
//	bash benchmark/run.sh --workload oltp_cached --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all                 # the four workloads in turn
//	bash benchmark/run.sh --workload all --trace 1       # per-layer metrics
//	bash benchmark/run.sh -check-noise                   # two sets of one seed, compared against the bounds and the recording
//	bash benchmark/run.sh -check-noise -seeds 10         # two sets of ten seeds each: quartile spread and median drift
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name       = flag.String("workload", "all", "workload name, or all")
		seed       = flag.Int64("seed", 1, "feeds Spec.Seed; the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", runSeconds, "wall time an untraced run keeps repeating for (never fewer than 5 repetitions)")
		traceFlag  = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		checkNoise = flag.Bool("check-noise", false, "run the untraced set twice and fail unless every end-to-end metric agrees within its bound")
		seeds      = flag.Int("seeds", 1, "with -check-noise: seeds per set, from --seed up; 1 also holds the virtual results to benchmark/recorded.json")
		record     = flag.Bool("record", false, "with -check-noise: rewrite benchmark/recorded.json instead of comparing against it")
		child      = flag.String("child", "", "internal: run one repetition of this workload (or the probes) in this process; --seed is the Spec.Seed")
		traced     = flag.Bool("traced", false, "internal: the child's measured run is the traced one")
	)
	flag.Parse()
	if flag.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *seeds < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> | -check-noise [-seeds <n>] [-record]")
		os.Exit(2)
	}

	var err error
	switch {
	case *child != "":
		err = runAsChild(*child, *seed, *traced)
	case *checkNoise && *seeds > 1:
		err = checkSeedsCmd(*seed, *seeds, *seconds)
	case *checkNoise:
		err = checkNoiseCmd(*seed, *seconds, *record)
	default:
		err = runCmd(*name, *seed, *traceFlag == 1, defaultProtocol(*seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAsChild is one repetition: it writes its report as JSON on standard
// output for the parent.
func runAsChild(name string, specSeed int64, traced bool) error {
	var report any
	if name == "probes" {
		probes, err := runProbes(false)
		if err != nil {
			return err
		}
		report = probes
	} else {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		if traced {
			// Sample one allocation in every 4 KiB, from the first
			// allocation of the measured run on.
			runtime.MemProfileRate = 4096
		}
		rep, err := runRep(w.spec(specSeed, false), traced)
		if err != nil {
			return err
		}
		report = rep
	}
	return json.NewEncoder(os.Stdout).Encode(report)
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	return []workload{w}, nil
}

// runCmd measures the named workloads. Each prints two lines on standard
// output: its full document, then — last — the result line. A workload that
// fails the correctness gate prints its document, names the workload and
// the field on standard error, and ends the command with a non-zero code
// before any result line. The isolated probes do not depend on the
// workload: a traced invocation runs them once.
func runCmd(name string, seed int64, traced bool, pr protocol) error {
	ws, err := selectWorkloads(name)
	if err != nil {
		return err
	}
	var probes map[string]float64
	if traced {
		if probes, err = childProbes(); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(os.Stdout)
	for _, w := range ws {
		doc, err := measure(w, seed, probes, pr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := enc.Encode(doc); err != nil {
			return err
		}
		if !doc.result.Correct {
			for _, p := range doc.Problems {
				fmt.Fprintln(os.Stderr, "benchmark: INCORRECT:", p)
			}
			return fmt.Errorf("%s failed the correctness gate", w.name)
		}
		if err := enc.Encode(doc.result); err != nil {
			return err
		}
	}
	return nil
}
