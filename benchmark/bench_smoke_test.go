package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the harness's tables")

// smokeProtocol runs repetitions in this process at the tiny scale (W=1,
// 20 to 30 virtual seconds) through the same measure() the command uses:
// one trajectory, run twice.
func smokeProtocol() protocol {
	return protocol{
		trajectories: 1, minReps: 2, maxReps: 2, untracedReps: 1, tracedReps: 1,
		rep: func(w workload, specSeed int64, traced bool) (*repReport, float64, error) {
			rep, err := runRep(w.spec(specSeed, true), traced)
			var ru syscall.Rusage
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // only fails on a bad pointer
			return rep, float64(ru.Maxrss) / 1024, err
		},
		progress: io.Discard,
	}
}

func checkNames(t *testing.T, defs []metricDef, got map[string]metricValue) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("printed %d metrics, declared %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s printed with unit %q, declared %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		doc, err := measure(w, 1, nil, smokeProtocol())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !doc.result.Correct {
			t.Fatalf("%s failed the correctness gate: %v", w.name, doc.Problems)
		}
		checkNames(t, endToEnd, doc.result.Metrics)
		for name, m := range doc.result.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
			}
		}
		// The attempts an injected outage refuses are not failures; a
		// stray lock timeout at this scale is one, and is tolerated.
		if doc.result.Attempted < 1 || doc.result.Failed < 0 || 100*doc.result.Failed > doc.result.Attempted {
			t.Errorf("%s: attempted %d, failed %d", w.name, doc.result.Attempted, doc.result.Failed)
		}
		faulted := w.name == wCrash || w.name == wFailover
		v := doc.Virtual[0]
		if faulted != (v.RecoveryS > 0) || faulted != (v.RefusedInOutage > 0) || faulted != (doc.result.Metrics["served_share"].Value < 0.99) {
			t.Errorf("%s: recovery time %v s, %d attempts refused in the outage, served_share %v",
				w.name, v.RecoveryS, v.RefusedInOutage, doc.result.Metrics["served_share"].Value)
		}
		if _, err := json.Marshal(doc); err != nil {
			t.Errorf("%s: document does not encode: %v", w.name, err)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	w, err := workloadByName(wCrash)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := runProbes(true)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := measure(w, 1, probes, smokeProtocol())
	if err != nil {
		t.Fatal(err)
	}
	if !doc.result.Correct {
		t.Fatalf("correctness gate (traced and untraced virtual results must agree): %v", doc.Problems)
	}
	checkNames(t, perLayer, doc.result.Metrics)
	for _, prefix := range []string{"cpu_share.", "alloc_share."} {
		sum := 0.0
		for name, m := range doc.result.Metrics {
			if strings.HasPrefix(name, prefix) {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s* sum to %v, want 1 +- 0.01", prefix, sum)
		}
	}
	for _, name := range []string{"recovery.mount_s", "recovery.redo_replay_s", "recovery.records_scanned", "tpcc.new_order.ns", "recovery.instance_w4.ns"} {
		if doc.result.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on a crash workload", name, doc.result.Metrics[name].Value)
		}
	}
}

// TestManifest holds BENCHMARK.json to the harness's own tables and to the
// limits of the benchmark contract.
func TestManifest(t *testing.T) {
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", manifest(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(file) != string(manifest()) {
		t.Error("BENCHMARK.json is not what the harness's tables say; regenerate it with go test ./benchmark -run TestManifest -update")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(file))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: the reason must be one line of at most 200 characters, got %d", w.name, len(w.why))
		}
	}

	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range endToEnd {
		name(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			setup = m.unit == "s" && m.better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range perLayer {
		name(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		if m.moves == "" {
			t.Errorf("%s: no end-to-end metric and workload it should move", m.name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// tracesExcerpt has the layout `go tool pprof -traces` prints: each block is
// one stack, leaf first. The stacks are the kinds a run of oltp_io_bound
// produces.
const tracesExcerpt = `
-----------+-------------------------------------------------------
      40ms   runtime.mapassign_fast64
             dbench/internal/storage.(*Block).Clone
             dbench/internal/storage.(*Datafile).ReadBlock
             dbench/internal/bufcache.(*Cache).Get
             dbench/internal/txn.(*Manager).Read
             dbench/internal/tpcc.(*App).newOrderBody
-----------+-------------------------------------------------------
      20ms   runtime.chanrecv
             runtime.chanrecv1
             dbench/internal/sim.(*Proc).block
             dbench/internal/sim.(*Proc).Sleep
             dbench/internal/simdisk.(*Disk).access
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.futexsleep
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      10ms   runtime.(*mheap).nextSpanForSweep
             runtime.sweepone
             runtime.bgsweep
             runtime.gcenable.gowrap1
-----------+-------------------------------------------------------
      10ms   runtime.usleep
             runtime.sysmon
             runtime.mstart1
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             dbench/internal/faults.(*Injector).Inject
             dbench/internal/core.Run.func3
             dbench/internal/sim.(*Kernel).Go.func1
-----------+-------------------------------------------------------
`

func TestBucketOf(t *testing.T) {
	want := []string{"storage", "sim", "rt_sched", "rt_gc", "rt_gc", "rt_other", "core"}
	var got []string
	for _, block := range strings.Split(tracesExcerpt, "-----------+-------------------------------------------------------") {
		var stack []string
		for _, line := range strings.Split(block, "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				stack = append(stack, f[len(f)-1])
			}
		}
		if len(stack) > 0 {
			got = append(got, bucketOf(stack))
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("buckets %v, want %v", got, want)
	}
	declared := map[string]bool{}
	for _, b := range cpuBuckets {
		declared[b] = true
	}
	for _, b := range got {
		if !declared[b] {
			t.Errorf("bucket %s is not a declared cpu_share bucket", b)
		}
	}
}

func TestGateNamesWorkloadAndField(t *testing.T) {
	ok := virtualResult{Committed: 10, FailedOver: true}
	w, _ := workloadByName(wFailover)
	if p := gate(w, ok); len(p) != 0 {
		t.Errorf("clean result rejected: %v", p)
	}
	bad := ok
	bad.Lost, bad.FailedOver = 3, false
	p := strings.Join(gate(w, bad), "; ")
	for _, want := range []string{wFailover, "LostTransactions = 3", "FailedOver = false"} {
		if !strings.Contains(p, want) {
			t.Errorf("gate said %q, want it to mention %q", p, want)
		}
	}
	other := ok
	other.TpmC = 1
	if d := diffVirtual(ok, other); len(d) != 1 || !strings.HasPrefix(d[0], "TpmC") {
		t.Errorf("diffVirtual = %v, want the TpmC field", d)
	}
	d := diffTrajectories(wFailover, "the recording", []virtualResult{ok, ok}, []virtualResult{ok, other})
	if len(d) != 1 || !strings.Contains(d[0], "trajectory 2 differs from the recording on TpmC") {
		t.Errorf("diffTrajectories = %v, want trajectory 2's TpmC", d)
	}
}

// A trajectory in which an operation fails gives its place to its reserve,
// the same one on every run; past maxReplaced the failures are reported.
func TestFailedTrajectoryIsReplaced(t *testing.T) {
	w, _ := workloadByName(wCached)
	run := func(failing func(specSeed int64) bool) *runDoc {
		t.Helper()
		pr := protocol{
			trajectories: 5, minReps: 5, maxReps: 5, progress: io.Discard,
			rep: func(_ workload, specSeed int64, _ bool) (*repReport, float64, error) {
				rep := &repReport{SetupS: []float64{1}, WallS: 1, Mallocs: 1000, AllocBytes: 1 << 20,
					Virtual: virtualResult{Committed: 100, TpmC: float64(specSeed % reserveStride)}}
				if failing(specSeed) {
					rep.Virtual.Failures = 1
				}
				return rep, 1, nil
			},
		}
		doc, err := measure(w, 2, nil, pr)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}

	doc := run(func(s int64) bool { return s == 12 })
	if doc.result.Failed != 0 || doc.result.Attempted != 500 || !doc.result.Correct {
		t.Errorf("result = %+v, want 500 attempted, none failed", doc.result)
	}
	if len(doc.Replaced) != 1 || doc.Replaced[0] != (replacedTrajectory{SpecSeed: 12, FailedOperations: 1}) {
		t.Errorf("replaced = %+v, want spec seed 12", doc.Replaced)
	}
	// Trajectory 3 is spec seed 12's reserve, which the fake gives the same tpmC.
	if len(doc.Virtual) != 5 || doc.Virtual[2].TpmC != 12 {
		t.Errorf("virtual = %+v, want five trajectories, the third from the reserve", doc.Virtual)
	}

	doc = run(func(int64) bool { return true })
	if len(doc.Replaced) != maxReplaced || doc.result.Failed != 5 {
		t.Errorf("replaced %d, failed %d: want %d replaced and all 5 failures reported", len(doc.Replaced), doc.result.Failed, maxReplaced)
	}
}
