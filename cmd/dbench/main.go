// Command dbench runs the dependability-benchmark campaigns that
// regenerate the paper's tables and figures.
//
// Usage:
//
//	dbench [-scale quick|std|full] [-exp t3,f4,f5,t4,t5,f6,f7|all] [-parallel N] [-seed S]
//	dbench -exp scale,logical,pareto,replica,chaos   (opt-in: never part of "all")
//	dbench -h                                        (every flag, tagged with its experiment)
//	dbench recover -scan [-seed S] [-warehouses W]
//	dbench run '<key>'                               (one run, e.g. 'F40G3T5 arch W1 fault=drop-table:stock at=5m')
//
// Output is the paper-style text table for each experiment, preceded by
// per-run progress lines on stderr. A progress line starts with the run's
// key (core.Spec.Key): every field the run reads, written as text, and
// the argument that makes `dbench run` replay it. -parallel sets the
// campaign worker count (0 = one worker per CPU, 1 = sequential); results
// are identical for every worker count. The -exp tokens, their run order and which of
// them "all" selects come from the experiment registry below.
//
// The chaos experiment is the crash-point exploration harness: N seeded
// crash points against a running TPC-C workload, each followed by
// recovery and invariant checks (see internal/chaos). It validates the
// recovery machinery rather than regenerating a paper table, and exits
// non-zero if any invariant is violated. Its stdout report is
// byte-identical for a given -crashpoints/-seed pair. -warehouses sets
// its TPC-C scale (first value if a list is given).
//
// The scale experiment sweeps the warehouse count (-warehouses, default
// 1,2,4,8): per W, fault-free and shutdown-abort runs for the baseline
// and perf-tuned recovery configurations, producing a throughput-vs-W and
// recovery-time-vs-W table.
//
// -recovery-workers sets the parallel-recovery fan-out: for scale it is a
// comma-separated sweep (recovery time is reported per worker count, the
// serial baseline always included); every other experiment uses the
// largest listed count. Recovered state and counts are identical for
// every value — only recovery time changes.
//
// The logical experiment compares the two remedies for single-table
// operator faults — FLASHBACK TABLE (logical recovery from the redo
// stream, instance open) versus the paper's physical point-in-time
// restore — per fault class: recovery time, availability during the
// repair, and lost transactions.
//
// The pareto experiment maps the tpmC-vs-recovery-time frontier: per
// static configuration one fault-free run (tpmC) and one shutdown-abort
// run (measured recovery), then three runs of the self-tuning controller
// under the -budget recovery objective — steady load, steady load with a
// crash after the controller settles, and a shifting load with a late
// crash. The report shows each static point, whether it meets the
// budget, and the controller's throughput as a fraction of the best
// within-budget static configuration. Byte-identical across reruns of
// the same scale and seed.
//
// The replica experiment measures managed failover on a streaming-
// replication cluster: continuous redo shipping to N stand-bys (sync
// commit waits for the stand-by acknowledgement; async does not), half
// the read-only TPC-C traffic served from a stand-by snapshot, a primary
// crash at the late instant, and promotion of the most-advanced stand-by
// as the remedy. Per sweep cell (-standbys × -repl-mode × -repl-link) it
// reports RPO (acknowledged commits lost, checked against the external
// ledger — 0 in sync mode), measured RTO alongside the MMON live
// estimate, end-user outage, and the stand-by read-routing counts.
//
// -trace/-timeline and -stats/-awr observe one run: the instrumented run
// of the first selected experiment (its first run, unless the declaration
// names a more telling one — scale its first recovery run, pareto its
// first controller run). Runs have independent virtual timelines, so a
// second experiment in the same invocation is neither traced nor sampled.
// -stats samples that run with the MMON workload repository every
// -sample-interval of virtual time and exports the metric time-series —
// counters, gauges and the live recovery-time estimate — as CSV (JSON for
// .json paths); -awr prints an AWR-style first-vs-last snapshot diff.
// Both outputs are byte-identical across reruns of the same seed.
//
// -cpuprofile/-memprofile write host-side pprof profiles of the whole
// invocation (CPU samples; every allocation since start): where the wall
// clock and the garbage of a campaign go, as opposed to its virtual time.
//
// `dbench recover -scan` demonstrates dictionary reconstruction from
// datafile headers: it builds a seeded TPC-C database, truncates the
// stock table, destroys the data dictionary, rebuilds it by scanning
// every datafile's metadata header, and verifies the metadata
// round-trips (every table rediscovered, FLASHBACK TABLE still working
// on the rebuilt dictionary). Exits non-zero on any mismatch.
//
// `dbench run '<key>'` makes the one run a key describes (core.ParseSpec:
// tokens left out keep core.DefaultSpec's values) and prints its
// performance measures and, when the key has a fault, the fault's
// recovery measures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"dbench/internal/chaos"
	"dbench/internal/core"
	"dbench/internal/monitor"
	"dbench/internal/sim"
	"dbench/internal/standby"
	"dbench/internal/trace"
)

// env is what an experiment sees of the command line: the campaign scale
// (carrying the tracer and sampling hooks while they are unconsumed), the
// progress sink, the results measured so far and the parsed
// per-experiment flags.
type env struct {
	sc       core.Scale
	progress core.Progress
	// done holds every result of the invocation by run key, so a job
	// declared by two experiments runs once (f4 reads t3's fault-free runs).
	done        map[string]*core.Result
	crashPoints int
	warehouses  []int
	budget      time.Duration
	paretoGrid  []core.RecoveryConfig
	replica     core.ReplicaGrid
}

// experiment is one -exp token: decl declares its table, or run executes
// the one experiment that is not a table. inAll says whether "all"
// selects it; the others are opt-in.
type experiment struct {
	name  string
	inAll bool
	decl  func(e *env) core.Experiment
	run   func(e *env) error
}

// registry is the experiment table, in run order. It drives selection,
// the valid-token error and the -exp help text. chaos comes last: a
// violated invariant ends the invocation with the other reports already
// printed.
var registry = []experiment{
	{"t3", true, func(e *env) core.Experiment { return core.Table3(e.sc) }, nil},
	{"f4", true, func(e *env) core.Experiment { return core.Figure4(e.sc) }, nil},
	{"f5", true, func(e *env) core.Experiment { return core.Figure5(e.sc) }, nil},
	{"t4", true, func(e *env) core.Experiment { return core.Table4(e.sc) }, nil},
	{"t5", true, func(e *env) core.Experiment { return core.Table5(e.sc) }, nil},
	{"f6", true, func(e *env) core.Experiment { return core.Figure6(e.sc) }, nil},
	{"f7", true, func(e *env) core.Experiment { return core.Figure7(e.sc) }, nil},
	{"scale", false, func(e *env) core.Experiment { return core.Scaling(e.sc, e.warehouses) }, nil},
	{"logical", false, func(e *env) core.Experiment { return core.LogicalVsPhysical(e.sc) }, nil},
	{"pareto", false, func(e *env) core.Experiment { return core.Pareto(e.sc, e.budget, e.paretoGrid) }, nil},
	{"replica", false, func(e *env) core.Experiment { return core.Replica(e.sc, e.replica) }, nil},
	{"chaos", false, nil, func(e *env) error {
		cfg := chaos.DefaultConfig()
		cfg.Points = e.crashPoints
		cfg.Spec.Seed = e.sc.Seed
		cfg.Parallel = e.sc.Parallel
		cfg.Spec.TPCC.Warehouses = e.warehouses[0]
		cfg.Spec.RecoveryWorkers = slices.Max(e.sc.RecoveryWorkers)
		cfg.Tracer = e.sc.Tracer
		rep, err := chaos.Explore(cfg, e.progress)
		if err != nil {
			return err
		}
		fmt.Print(chaos.FormatReport(rep))
		if !rep.AllGreen() {
			return fmt.Errorf("chaos: %d/%d crash points violated an invariant", rep.Failed(), len(rep.Points))
		}
		return nil
	}},
}

// expNames lists the registry's tokens with the given "all" membership.
func expNames(reg []experiment, inAll bool) []string {
	var names []string
	for _, x := range reg {
		if x.inAll == inAll {
			names = append(names, x.name)
		}
	}
	return names
}

// runExperiments runs the selected entries in registry order, printing
// each declared table's report. Only the first one is instrumented: the
// tracer and the sampling hooks observe a single run's virtual timeline,
// so once an experiment has had them they are cleared for the rest of the
// invocation.
func runExperiments(reg []experiment, want map[string]bool, e *env) error {
	for _, x := range reg {
		if !want[x.name] && !(want["all"] && x.inAll) {
			continue
		}
		if x.decl == nil {
			if err := x.run(e); err != nil {
				return err
			}
		} else {
			d := x.decl(e)
			rows, err := d.Run(e.sc, e.done, e.progress)
			if err != nil {
				return err
			}
			fmt.Println(d.Text(rows))
		}
		e.sc.Tracer, e.sc.SampleInterval, e.sc.OnRepository = nil, 0, nil
	}
	return nil
}

// parseList parses a comma-separated flag value, converting each trimmed
// token with conv; a token conv rejects fails the flag with errFmt (which
// takes the token as its one %q operand).
func parseList[T any](list, errFmt string, conv func(tok string) (T, bool)) ([]T, error) {
	var out []T
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		v, ok := conv(tok)
		if !ok {
			return nil, fmt.Errorf(errFmt, tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// create opens an output file the invocation fills at its end ("" = no
// such output). Every output is created before the first run, so a bad
// path fails at once instead of after the campaign has spent its minutes.
func create(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	return os.Create(path)
}

// fill writes an output created up front and closes it, reporting the
// first of the write and close errors.
func fill(f *os.File, write func(w io.Writer) error) error {
	err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// startProfiles creates the files -cpuprofile and -memprofile ask for,
// begins the CPU profile and returns the function that finishes both: it
// stops the CPU profile and writes every allocation since process start
// (read it with go tool pprof -sample_index=alloc_objects or alloc_space).
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	mem, err := create(memPath)
	if err != nil {
		return nil, err
	}
	cpu, err := create(cpuPath)
	if err == nil && cpu != nil {
		err = pprof.StartCPUProfile(cpu)
	}
	if err != nil {
		mem.Close()
		cpu.Close()
		return nil, err
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if mem != nil {
			runtime.GC() // the profile is complete up to the last collection
			werr := fill(mem, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
			if err == nil {
				err = werr
			}
		}
		return err
	}, nil
}

func positiveInt(tok string) (int, bool) {
	n, err := strconv.Atoi(tok)
	return n, err == nil && n >= 1
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "recover":
		err = runRecover(args[1:])
	case len(args) > 0 && args[0] == "run":
		err = runKey(os.Stdout, strings.Join(args[1:], " "))
	default:
		err = run(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runRecover handles the `dbench recover` subcommand: currently only the
// -scan mode (catalog rebuild from datafile headers).
func runRecover(args []string) error {
	fs := flag.NewFlagSet("dbench recover", flag.ContinueOnError)
	scan := fs.Bool("scan", false, "rebuild the data dictionary from datafile headers and verify the metadata round-trips")
	seed := fs.Int64("seed", 1, "workload seed (same seed = identical report)")
	warehouses := fs.Int("warehouses", 1, "TPC-C warehouse count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*scan {
		return fmt.Errorf("dbench recover: only -scan is supported")
	}
	if *warehouses < 1 {
		return fmt.Errorf("-warehouses must be >= 1 (got %d)", *warehouses)
	}
	rep, err := core.RunCatalogScan(*seed, *warehouses)
	if err != nil {
		return err
	}
	fmt.Print(core.FormatScan(rep))
	if !rep.OK() {
		return fmt.Errorf("recover -scan: metadata did not round-trip")
	}
	return nil
}

// runKey handles `dbench run '<key>'`: it makes the run the key describes
// and writes its report to w.
func runKey(w io.Writer, key string) error {
	if strings.TrimSpace(key) == "" {
		return fmt.Errorf("usage: dbench run '<key>', e.g. dbench run 'F40G3T5 W1 dur=4m'")
	}
	spec, err := core.ParseSpec(key)
	if err != nil {
		return err
	}
	res, err := core.Run(spec)
	if err != nil {
		return err
	}
	line := func(label, format string, args ...any) {
		fmt.Fprintf(w, "%-18s"+format+"\n", append([]any{label + ":"}, args...)...)
	}
	line("key", "%s", spec.Key())
	line("tpmC", "%.0f", res.TpmC)
	line("committed", "%d (failures observed: %d)", res.Committed, res.Failures)
	line("checkpoints", "%d", res.Checkpoints)
	line("redo written", "%.1f MB (%.2f MB/s)", float64(res.RedoWritten)/(1<<20), float64(res.RedoWritten)/(1<<20)/spec.Duration.Seconds())
	line("log stalls", "%v", res.LogStalls.Round(time.Millisecond))
	line("cache hit rate", "%.3f", res.CacheHitRate)
	line("mix", "%v", res.ByType)
	line("throughput/30s", "%v", res.Series)
	if o := res.Outcome; o != nil {
		line("fault", "%v", o.Fault)
		line("injected at", "%v (workload-relative %v)", o.InjectedAt, spec.InjectAt)
		line("detected at", "%v (detection %v)", o.DetectedAt, spec.Detection)
		line("recovery time", "%v", res.RecoveryTime.Round(time.Millisecond))
		line("end-user outage", "%v", res.UserOutage.Round(time.Millisecond))
		if rep := o.Report; rep != nil {
			line("recovery kind", "%v (complete=%v)", rep.Kind, rep.Complete)
			line("records applied", "%d of %d scanned, %d archived logs, %d losers rolled back",
				rep.RecordsApplied, rep.RecordsScanned, rep.ArchivesProcessed, rep.LosersRolledBack)
		}
	}
	line("lost commits", "%d", res.LostTransactions)
	line("integrity", "%d violations", len(res.IntegrityViolations))
	for i, v := range res.IntegrityViolations {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more\n", len(res.IntegrityViolations)-5)
			break
		}
		fmt.Fprintf(w, "  %v\n", v)
	}
	return nil
}

// parseExperiments validates a comma-separated -exp value against the
// registry. An unknown or empty token is an error (a typo must not
// silently run nothing), listing the valid names.
func parseExperiments(list string) (map[string]bool, error) {
	names := append(expNames(registry, true), expNames(registry, false)...)
	toks, err := parseList(list, "unknown experiment %q: valid names are all, "+strings.Join(names, ", "),
		func(tok string) (string, bool) {
			tok = strings.ToLower(tok)
			return tok, tok == "all" || slices.Contains(names, tok)
		})
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, tok := range toks {
		want[tok] = true
	}
	return want, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbench", flag.ContinueOnError)
	scaleName := fs.String("scale", "std", "experiment scale: quick, std or full")
	expList := fs.String("exp", "all", "comma-separated experiments: "+strings.Join(expNames(registry, true), ",")+
		" or all; opt-in, never part of all: "+strings.Join(expNames(registry, false), ","))
	parallel := fs.Int("parallel", 0, "campaign workers: 0 = one per CPU, 1 = sequential, N = exactly N")
	crashPoints := fs.Int("crashpoints", 50, "chaos: number of crash points to explore")
	seed := fs.Int64("seed", 1, "campaign seed: workload seed for every experiment, crash-point seed for chaos (same seed = byte-identical report)")
	warehousesList := fs.String("warehouses", "1,2,4,8", "scale: warehouse counts to sweep; chaos: warehouse count (first value)")
	recoveryWorkers := fs.String("recovery-workers", "1", "parallel recovery fan-out: scale sweeps each listed count, other experiments use the largest")
	traceFile := fs.String("trace", "", "write a Chrome trace_event JSON file (virtual timebase) for the instrumented run of the first selected experiment; open in chrome://tracing or ui.perfetto.dev")
	timeline := fs.Bool("timeline", false, "print the traced run's recovery-phase timeline after the reports")
	statsFile := fs.String("stats", "", "sample the instrumented run of the first selected experiment with the MMON workload repository and export the metric time-series to this file (CSV; .json for JSON); byte-identical across reruns of the same seed")
	awr := fs.Bool("awr", false, "sample the instrumented run of the first selected experiment and print an AWR-style first-vs-last snapshot diff report")
	sampleEvery := fs.Duration("sample-interval", time.Second, "MMON sample interval (virtual time) used by -stats/-awr")
	budget := fs.Duration("budget", 30*time.Second, "pareto: recovery-time budget the controller must hold")
	paretoGrid := fs.String("pareto-grid", "", "pareto: comma-separated Table 3 config names to sweep (empty = default six-config grid)")
	standbysList := fs.String("standbys", "1,3", "replica: first-tier stand-by counts to sweep")
	replModes := fs.String("repl-mode", "sync,async", "replica: commit-acknowledgement modes to sweep (sync, async)")
	replLinks := fs.String("repl-link", "lan,wan", "replica: link profiles to sweep (lan, wan)")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile of the whole invocation to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a host allocation profile of the whole invocation to this file (go tool pprof -sample_index=alloc_objects)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	e := &env{
		done:        map[string]*core.Result{},
		crashPoints: *crashPoints,
		budget:      *budget,
		paretoGrid:  core.ParetoGrid(),
		replica:     core.DefaultReplicaGrid(),
		progress: func(line string) {
			fmt.Fprintf(os.Stderr, "%s  %s\n", time.Now().Format("15:04:05"), line)
		},
	}
	scale, ok := map[string]func() core.Scale{"quick": core.QuickScale, "std": core.StdScale, "full": core.FullScale}[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	e.sc = scale()
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (got %d)", *parallel)
	}
	e.sc.Parallel = *parallel
	e.sc.Seed = *seed
	if *budget <= 0 {
		return fmt.Errorf("-budget must be positive (got %v)", *budget)
	}

	want, err := parseExperiments(*expList)
	if err != nil {
		return err
	}
	if e.warehouses, err = parseList(*warehousesList, "bad -warehouses value %q: want positive integers, e.g. 1,2,4,8", positiveInt); err != nil {
		return err
	}
	if e.sc.RecoveryWorkers, err = parseList(*recoveryWorkers, "bad -recovery-workers value %q: want positive integers, e.g. 1,4", positiveInt); err != nil {
		return err
	}
	if strings.TrimSpace(*paretoGrid) != "" { // empty = the default grid
		e.paretoGrid, err = parseList(*paretoGrid, "bad -pareto-grid value %q: want Table 3 config names, e.g. F1G3T1,F100G3T10",
			func(tok string) (core.RecoveryConfig, bool) { return core.ConfigByName(strings.ToUpper(tok)) })
		if err != nil {
			return err
		}
	}
	if e.replica.Standbys, err = parseList(*standbysList, "bad -standbys value %q: want positive integers, e.g. 1,3", positiveInt); err != nil {
		return err
	}
	e.replica.Modes, err = parseList(*replModes, "bad -repl-mode value %q: want sync or async", func(tok string) (standby.Mode, bool) {
		m, err := standby.ParseMode(strings.ToLower(tok))
		return m, err == nil
	})
	if err != nil {
		return err
	}
	e.replica.Links, err = parseList(*replLinks, "bad -repl-link value %q: want lan or wan",
		func(tok string) (sim.LinkSpec, bool) { return core.LinkByName(strings.ToLower(tok)) })
	if err != nil {
		return err
	}

	// Tracing: the Chrome sink feeds -trace, the timeline sink feeds
	// -timeline; both observe the same event stream. A nil tracer (no
	// flag given) disables every instrumentation point at zero cost.
	var chromeSink *trace.ChromeSink
	var timelineSink *trace.TimelineSink
	var sinks []trace.Sink
	if *traceFile != "" {
		chromeSink = trace.NewChromeSink()
		sinks = append(sinks, chromeSink)
	}
	if *timeline {
		timelineSink = trace.NewTimelineSink()
		sinks = append(sinks, timelineSink)
	}
	if sink := trace.MultiSink(sinks...); sink != nil {
		e.sc.Tracer = trace.New(sink)
	}

	// -stats/-awr: sample the instrumented run with the MMON repository.
	// The repository pointer lands here when that run completes (the
	// pool joins before we read it).
	var repo *monitor.Repository
	if *statsFile != "" || *awr {
		if *sampleEvery <= 0 {
			return fmt.Errorf("-sample-interval must be positive (got %v)", *sampleEvery)
		}
		e.sc.SampleInterval = *sampleEvery
		e.sc.OnRepository = func(r *monitor.Repository) { repo = r }
	}

	traceOut, err := create(*traceFile)
	if err != nil {
		return err
	}
	defer traceOut.Close()
	statsOut, err := create(*statsFile)
	if err != nil {
		return err
	}
	defer statsOut.Close()

	// flushTrace writes the collected trace outputs.
	flushTrace := func() error {
		if timelineSink != nil {
			fmt.Println(timelineSink.Render())
		}
		if chromeSink == nil {
			return nil
		}
		err := fill(traceOut, func(w io.Writer) error {
			_, err := chromeSink.WriteTo(w)
			return err
		})
		if err == nil {
			fmt.Fprintf(os.Stderr, "trace: %d records written to %s\n", chromeSink.Len(), *traceFile)
		}
		return err
	}

	// flushStats exports the sampled repository (if a campaign ran one):
	// the -awr diff report to stdout, the -stats time-series to disk.
	flushStats := func() error {
		if repo == nil {
			if *statsFile != "" || *awr {
				fmt.Fprintln(os.Stderr, "stats: no run was sampled (the first selected experiment samples no run)")
			}
			if statsOut != nil {
				statsOut.Close()
				return os.Remove(*statsFile)
			}
			return nil
		}
		if *awr {
			fmt.Print(monitor.FormatAWR(repo))
		}
		if *statsFile == "" {
			return nil
		}
		write := repo.WriteCSV
		if strings.HasSuffix(*statsFile, ".json") {
			write = repo.WriteJSON
		}
		err := fill(statsOut, write)
		if err == nil {
			fmt.Fprintf(os.Stderr, "stats: %d samples written to %s\n", repo.Len(), *statsFile)
		}
		return err
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	err = runExperiments(registry, want, e)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err == nil {
		err = flushStats()
	} else if statsOut != nil {
		os.Remove(*statsFile) // a failed campaign exports no statistics
	}
	// The trace is flushed even when an experiment failed — a chaos
	// violation above all — so the evidence is on disk.
	if terr := flushTrace(); err == nil {
		err = terr
	} else if terr != nil {
		fmt.Fprintln(os.Stderr, terr)
	}
	return err
}
