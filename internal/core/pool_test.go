package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dbench/internal/faults"
	"dbench/internal/tpcc"
)

// tinyScale is the smallest campaign scale that still loads, runs TPC-C,
// injects and recovers — sized so the worker-count determinism sweep
// stays affordable inside the regular test run.
func tinyScale() Scale {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 25
	cfg.Items = 250
	cfg.TerminalsPerWarehouse = 4
	return Scale{
		TPCC:        cfg,
		CacheBlocks: 512,
		Duration:    90 * time.Second,
		InjectTimes: [3]time.Duration{15 * time.Second, 30 * time.Second, 55 * time.Second},
		Tail:        15 * time.Second,
		Seed:        5,
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct{ parallel, n, want int }{
		{1, 10, 1}, // explicit sequential
		{4, 10, 4}, // explicit count
		{8, 3, 3},  // clamped to job count
		{3, 1, 1},  // single job
	}
	for _, tc := range cases {
		if got := Workers(tc.parallel, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.parallel, tc.n, got, tc.want)
		}
	}
	// 0 and negative mean "all CPUs": at least one worker, never more
	// than the job count (the CPU count varies by machine).
	for _, parallel := range []int{0, -1} {
		if got := Workers(parallel, 3); got < 1 || got > 3 {
			t.Errorf("Workers(%d, 3) = %d, want within [1,3]", parallel, got)
		}
	}
}

// TestRunSpecsOrderAndProgress runs a small campaign on several workers
// and checks that results come back in enumeration order (not completion
// order) and that progress lines carry a monotonically complete [k/n]
// counter. The progress callback deliberately appends to a plain slice:
// the pool documents mutex-serialized emission, and the race detector
// holds it to that.
func TestRunSpecsOrderAndProgress(t *testing.T) {
	sc := tinyScale()
	sc.Duration = time.Minute
	specs := make([]Spec, 4)
	for i := range specs {
		specs[i] = sc.spec(Table3Configs[i*3])
	}
	var lines []string
	results, err := RunSpecs(specs, 3, func(line string) { lines = append(lines, line) })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res == nil || res.Spec.Key() != specs[i].Key() {
			t.Errorf("slot %d: got %v, want %s", i, res, specs[i].Key())
		}
	}
	if len(lines) != len(specs) {
		t.Fatalf("progress lines = %d, want %d: %q", len(lines), len(specs), lines)
	}
	for k, line := range lines {
		prefix := fmt.Sprintf("[%d/%d] ", k+1, len(specs))
		if !strings.HasPrefix(line, prefix) {
			t.Errorf("progress line %d = %q, want prefix %q", k, line, prefix)
		}
	}
}

// TestRunSpecsFailFast: a spec the engine rejects (a 1-group redo log)
// fails the campaign with that error and nil results.
func TestRunSpecsFailFast(t *testing.T) {
	sc := tinyScale()
	bad := RecoveryConfig{Name: "bad", FileSize: 1 << 20, Groups: 1, CheckpointTimeout: time.Minute}
	specs := []Spec{
		sc.spec(bad),
		sc.spec(bad),
		sc.spec(bad),
	}
	results, err := RunSpecs(specs, 2, nil)
	if err == nil {
		t.Fatal("expected error from 1-group redo config")
	}
	if !strings.Contains(err.Error(), "2 groups") {
		t.Errorf("unexpected error: %v", err)
	}
	if results != nil {
		t.Errorf("results should be nil on error, got %v", results)
	}
}

// TestRunIndexedStartsNoJobAfterAFailure: once a job's error is recorded no
// worker takes another index. At two workers the job beside the failing one
// may already run; it finishes well after the failure is recorded.
func TestRunIndexedStartsNoJobAfterAFailure(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		var (
			mu       sync.Mutex
			started  []int
			returned = make(chan struct{})
		)
		_, err := RunIndexed(8, parallel, func(i int) (int, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			if i == 0 {
				close(returned)
				return 0, errors.New("job 0 failed")
			}
			<-returned
			time.Sleep(20 * time.Millisecond)
			return i, nil
		}, nil, nil)
		if err == nil || err.Error() != "job 0 failed" {
			t.Fatalf("parallel %d: err = %v, want job 0's", parallel, err)
		}
		if len(started) > parallel {
			t.Errorf("parallel %d: jobs %v started, want at most the first %d", parallel, started, parallel)
		}
	}
}

// TestRunSpecsEmpty: an empty campaign is a no-op.
func TestRunSpecsEmpty(t *testing.T) {
	results, err := RunSpecs(nil, 0, nil)
	if err != nil || results != nil {
		t.Fatalf("empty campaign: results=%v err=%v", results, err)
	}
}

// TestCampaignDeterminismAcrossWorkerCounts is the pool's core
// guarantee: a T3 performance sweep and a T5-style recovery grid produce
// bit-identical unrounded cell values whether run sequentially or on four
// workers. (The full QuickScale T3+T5 sweep takes tens of minutes; this
// runs the same code paths at tinyScale with a trimmed grid.)
func TestCampaignDeterminismAcrossWorkerCounts(t *testing.T) {
	values := func(sc Scale, x Experiment) [][]any {
		t.Helper()
		rows, err := x.Run(sc, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var vals [][]any
		for _, r := range rows[0] {
			vals = append(vals, x.Tables[0].Values(r))
		}
		return vals
	}
	seq := tinyScale()
	seq.Parallel = 1
	par := tinyScale()
	par.Parallel = 4

	if t3Seq, t3Par := values(seq, Table3(seq)), values(par, Table3(par)); !reflect.DeepEqual(t3Seq, t3Par) {
		t.Errorf("Table 3 cells differ across worker counts:\nseq: %v\npar: %v", t3Seq, t3Par)
	}

	kinds := []faults.Kind{faults.ShutdownAbort, faults.SetTablespaceOffline}
	configs := []RecoveryConfig{mustConfig("F40G3T10"), mustConfig("F1G3T1")}
	gridSeq := values(seq, recoveryGrid(seq, "", kinds, configs))
	gridPar := values(par, recoveryGrid(par, "", kinds, configs))
	if !reflect.DeepEqual(gridSeq, gridPar) {
		t.Errorf("recovery grid cells differ across worker counts:\nseq: %v\npar: %v", gridSeq, gridPar)
	}
}
