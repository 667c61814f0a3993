package sweeps

import (
	"reflect"
	"testing"
	"time"

	"dbench/internal/core"
	"dbench/internal/sim"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

// miniScale mirrors the helper in internal/core's tests: the smallest
// scale whose campaigns still load, run TPC-C, inject, and recover.
func miniScale() core.Scale {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 60
	cfg.Items = 500
	cfg.TerminalsPerWarehouse = 5
	return core.Scale{
		TPCC:        cfg,
		CacheBlocks: 512,
		Duration:    4 * time.Minute,
		InjectTimes: [3]time.Duration{30 * time.Second, 60 * time.Second, 120 * time.Second},
		Tail:        30 * time.Second,
		Seed:        7,
	}
}

// values runs x at sc and returns its rows and their unrounded cell
// values.
func values(t *testing.T, sc core.Scale, x core.Experiment) ([]core.Row, [][]any) {
	t.Helper()
	rows, err := x.Run(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var vals [][]any
	for _, r := range rows[0] {
		vals = append(vals, x.Tables[0].Values(r))
	}
	return rows[0], vals
}

// TestScalingSweepShape runs the W ∈ {1,2} sweep at mini scale and checks
// the properties the experiment exists to show: throughput grows with the
// warehouse count for both configurations, every cell measured a real
// recovery, and the cells are identical when the same sweep runs on a
// different worker count (the determinism contract).
func TestScalingSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := miniScale()
	sc.Parallel = 0
	x := core.Scaling(sc, []int{1, 2})
	rows, vals := values(t, sc, x)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// Each line is the baseline's jobs (perf, crash, media) then the
	// tuned configuration's.
	base := func(r core.Row) core.Row { return r[:3] }
	tuned := func(r core.Row) core.Row { return r[3:] }
	for i, w := range []int{1, 2} {
		r := rows[i]
		if got := vals[i][0]; got != w {
			t.Errorf("row %d: warehouses %v, want %d", i, got, w)
		}
		if got, want := vals[i][1], w*sc.TPCC.TerminalsPerWarehouse; got != want {
			t.Errorf("W=%d: terminals %v, want %d", w, got, want)
		}
		for _, side := range []struct {
			name string
			jobs core.Row
		}{{"base", base(r)}, {"tuned", tuned(r)}} {
			if side.jobs[0].TpmC <= 0 {
				t.Errorf("W=%d %s: tpmC %.1f", w, side.name, side.jobs[0].TpmC)
			}
			if side.jobs[1].RecoveryTime <= 0 {
				t.Errorf("W=%d %s: recovery time %v", w, side.name, side.jobs[1].RecoveryTime)
			}
		}
		// The tuned config buys throughput at every W (that trade-off is
		// the experiment's point).
		if tuned(r)[0].TpmC < base(r)[0].TpmC {
			t.Errorf("W=%d: tuned tpmC %.0f below baseline %.0f", w, tuned(r)[0].TpmC, base(r)[0].TpmC)
		}
	}
	// Monotone growth W=1 -> W=2 for both configurations.
	if base(rows[1])[0].TpmC <= base(rows[0])[0].TpmC {
		t.Errorf("baseline tpmC not monotone: W=1 %.0f, W=2 %.0f", base(rows[0])[0].TpmC, base(rows[1])[0].TpmC)
	}
	if tuned(rows[1])[0].TpmC <= tuned(rows[0])[0].TpmC {
		t.Errorf("tuned tpmC not monotone: W=1 %.0f, W=2 %.0f", tuned(rows[0])[0].TpmC, tuned(rows[1])[0].TpmC)
	}
	// Identical across worker counts.
	sc2 := miniScale()
	sc2.Parallel = 2
	if _, vals2 := values(t, sc2, core.Scaling(sc2, []int{1, 2})); !reflect.DeepEqual(vals, vals2) {
		t.Errorf("scaling cells differ across -parallel:\n--- parallel 0\n%v\n--- parallel 2\n%v", vals, vals2)
	}
	t.Logf("\n%s", x.Text([][]core.Row{rows}))
}

// tinyReplicaGrid is the smoke sweep: one stand-by, both modes, LAN.
func tinyReplicaGrid() core.ReplicaGrid {
	return core.ReplicaGrid{
		Standbys: []int{1},
		Modes:    []standby.Mode{standby.ModeSync, standby.ModeAsync},
		Links:    []sim.LinkSpec{core.LinkLAN},
	}
}

// TestReplicaSweepMeasures runs the tiny grid at mini scale and holds the
// cells to the replication promises: every cell fails over, sync loses no
// acknowledged commit, async loss is bounded by the measured stream lag,
// the measured RTO lands within ±20% of the live MMON estimate, and the
// promoted database is consistent.
func TestReplicaSweepMeasures(t *testing.T) {
	sc := miniScale()
	rows, _ := values(t, sc, core.Replica(sc, tinyReplicaGrid()))
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, row := range rows {
		r := row[0]
		mode := r.Spec.ReplMode
		t.Logf("s=%d+%d %-5s %s: tpmC=%.0f rpo=%d lag=%d rto=%v est=%v served=%d viol=%d",
			r.Spec.Standbys, r.Spec.ReplCascade, mode, r.Spec.ReplLink.Name, r.TpmC, r.LostTransactions,
			r.ReplLagRecords, r.RecoveryTime, r.RTOEstimate, r.ReplicaServed, len(r.IntegrityViolations))
		if !r.FailedOver {
			t.Errorf("%s cell did not fail over", mode)
		}
		if mode == standby.ModeSync && r.LostTransactions != 0 {
			t.Errorf("sync cell lost %d acknowledged commits, want 0", r.LostTransactions)
		}
		if int64(r.LostTransactions) > r.ReplLagRecords {
			t.Errorf("%s cell RPO %d exceeds the measured stream lag %d records", mode, r.LostTransactions, r.ReplLagRecords)
		}
		// RTO within ±20% of the MMON live estimate (small absolute floor
		// for scheduling quanta).
		diff := r.RecoveryTime - r.RTOEstimate
		if diff < 0 {
			diff = -diff
		}
		tol := time.Duration(0.20 * float64(r.RTOEstimate))
		if tol < 200*time.Millisecond {
			tol = 200 * time.Millisecond
		}
		if diff > tol {
			t.Errorf("%s cell RTO %v vs estimate %v: outside ±20%%", mode, r.RecoveryTime, r.RTOEstimate)
		}
		if n := len(r.IntegrityViolations); n != 0 {
			t.Errorf("%s cell: %d consistency violations on the promoted database", mode, n)
		}
		if r.ReplicaServed == 0 {
			t.Errorf("%s cell served no read-only transactions from the stand-by", mode)
		}
		if r.TpmC <= 0 {
			t.Errorf("%s cell reports no throughput", mode)
		}
	}
}

// TestReplicaSweepDeterministicAcrossParallelism pins the scheduling
// contract the whole experiment layer rests on: the replica report's cells
// and its rendering are identical whether the cells run sequentially or on
// four workers.
func TestReplicaSweepDeterministicAcrossParallelism(t *testing.T) {
	report := func(parallel int) ([][]any, string) {
		sc := miniScale()
		sc.Parallel = parallel
		x := core.Replica(sc, tinyReplicaGrid())
		rows, vals := values(t, sc, x)
		return vals, x.Text([][]core.Row{rows})
	}
	serialVals, serial := report(1)
	parallelVals, parallel := report(4)
	if !reflect.DeepEqual(serialVals, parallelVals) || serial != parallel {
		t.Errorf("replica report diverges across -parallel 1/4:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
