package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dbench/internal/faults"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
	"dbench/internal/trace"
)

// drawnCases are tiny versions of the benchmark's four workloads — cached;
// I/O-bound with archiving; a crash recovered by four workers; two sync
// stand-bys and a failover — and a partitioned W=2 database on four data
// disks. At seed 3 a new-order queue adopted without its capacity changes
// every case but the cached one (at seed 15 the failover case too escapes).
func drawnCases() []Spec {
	tiny := tpcc.DefaultConfig()
	tiny.Warehouses, tiny.CustomersPerDistrict, tiny.Items = 1, 60, 1000
	base := func(name, config string, dur time.Duration) Spec {
		s := DefaultSpec()
		s.Name, s.Seed, s.Recovery, s.TPCC, s.Duration = name, 3, mustConfig(config), tiny, dur
		return s
	}
	crash := func(s *Spec) {
		s.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
		s.InjectAt = 5 * time.Second
	}
	cached := base("cached", "F100G3T10", 20*time.Second)
	cached.CacheBlocks = 8192
	io := base("io-bound", "F10G3T1", 30*time.Second)
	io.CacheBlocks, io.Archive, io.TPCC.TerminalsPerWarehouse = 64, true, 5
	rec := base("crash", "F100G3T10", 30*time.Second)
	rec.CPUs, rec.RecoveryWorkers = 4, 4
	crash(&rec)
	fo := base("failover", "F100G3T10", 30*time.Second)
	fo.CacheBlocks, fo.Standbys, fo.ReplMode, fo.ReplLink = 8192, 2, standby.ModeSync, LinkLAN
	crash(&fo)
	wide := base("W=2 on four disks", "F100G3T10", 10*time.Second)
	wide.TPCC.Warehouses, wide.DataDisks = 2, 4
	return []Spec{cached, io, rec, fo, wide}
}

// tracedRun runs spec with its events folded into a hash and returns the
// result, without the spec that carried the tracer, and the hash.
func tracedRun(t *testing.T, spec Spec) (*Result, uint64) {
	t.Helper()
	hs := trace.NewHashSink()
	spec.Tracer = trace.New(hs)
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	res.Spec = Spec{}
	return res, hs.Sum()
}

// TestRunOnADrawnDatabaseEqualsAFreshRun: a run whose rig found its database
// already drawn — installed the process's set and adopted its driver-side
// indexes — is the run that drew it, in every field of the Result and in
// every traced event.
func TestRunOnADrawnDatabaseEqualsAFreshRun(t *testing.T) {
	for _, spec := range drawnCases() {
		t.Run(spec.Name, func(t *testing.T) {
			forgetDrawn()
			fresh, freshHash := tracedRun(t, spec)
			set := drawnSet()
			if set == nil {
				t.Fatal("the fresh run left no drawn database")
			}
			hit, hitHash := tracedRun(t, spec)
			if !sameSet(drawnSet(), set) {
				t.Fatal("the second run drew its database again")
			}
			if !reflect.DeepEqual(hit, fresh) {
				t.Errorf("on the drawn database: tpmC %v, %d commits, %d lost, recovery %v; fresh: tpmC %v, %d commits, %d lost, recovery %v",
					hit.TpmC, hit.Committed, hit.LostTransactions, hit.RecoveryTime,
					fresh.TpmC, fresh.Committed, fresh.LostTransactions, fresh.RecoveryTime)
			}
			if hitHash != freshHash {
				t.Errorf("trace hash %#x on the drawn database, %#x fresh", hitHash, freshHash)
			}
		})
	}
}

// TestConcurrentRigsShareADrawnDatabase: two runs of one key at the same
// time — first both drawing, then both installing the set the process kept
// — equal the key's run alone (and run clean under -race: the shared images
// are only read).
func TestConcurrentRigsShareADrawnDatabase(t *testing.T) {
	spec := drawnCases()[3] // two stand-bys: three instances per rig hold the set
	forgetDrawn()
	want, wantHash := tracedRun(t, spec)
	for _, round := range []string{"drawing", "drawn"} {
		if round == "drawing" {
			forgetDrawn()
		}
		var (
			wg     sync.WaitGroup
			res    [2]*Result
			hashes [2]uint64
		)
		for i := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i], hashes[i] = tracedRun(t, spec)
			}()
		}
		wg.Wait()
		for i := range res {
			if !reflect.DeepEqual(res[i], want) || hashes[i] != wantHash {
				t.Errorf("%s, run %d: tpmC %v, trace %#x; alone: tpmC %v, trace %#x", round, i, res[i].TpmC, hashes[i], want.TpmC, wantHash)
			}
		}
	}
}
