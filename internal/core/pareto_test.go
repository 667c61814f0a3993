package core

import (
	"strings"
	"testing"
	"time"

	"dbench/internal/monitor"
)

// tinyParetoScale shrinks the sweep to seconds of wall time: two grid
// configs and a 2.5-minute run with early injection instants.
func tinyParetoScale() Scale {
	sc := QuickScale()
	sc.TPCC.CustomersPerDistrict = 60
	sc.TPCC.Items = 500
	sc.TPCC.TerminalsPerWarehouse = 5
	sc.CacheBlocks = 512
	sc.Duration = 150 * time.Second
	sc.InjectTimes = [3]time.Duration{30 * time.Second, 60 * time.Second, 90 * time.Second}
	sc.Tail = 20 * time.Second
	return sc
}

// TestRunParetoTiny runs the whole sweep on a two-config grid and
// checks the report's structure: every frontier point measured, a
// within-budget best exists (F1G3T1 recovers in ~13 s against a 30 s
// budget), and all three controller scenarios ran — the crash scenarios
// with a measured recovery, the steady one without. The scale's
// repository hook must fire exactly once (the first controller run is the
// campaign's instrumented job; `-exp pareto -stats/-awr` used to export
// nothing).
func TestRunParetoTiny(t *testing.T) {
	sc := tinyParetoScale()
	var repos, samples int
	sc.OnRepository = func(r *monitor.Repository) {
		repos++
		samples = r.Len()
	}
	cfg := ParetoConfig{
		Budget: 30 * time.Second,
		Grid:   []RecoveryConfig{mustConfig("F1G3T1"), mustConfig("F100G3T10")},
	}
	rep, err := RunPareto(sc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("%d frontier rows, want 2", len(rep.Rows))
	}
	if repos != 1 || samples == 0 {
		t.Errorf("OnRepository fired %d times (last with %d samples), want once with a non-empty repository", repos, samples)
	}
	for _, row := range rep.Rows {
		if row.TpmC <= 0 {
			t.Errorf("%s: no throughput measured", row.Config.Name)
		}
		if row.Recovery <= 0 {
			t.Errorf("%s: no recovery measured", row.Config.Name)
		}
	}
	if rep.BestStatic < 0 {
		t.Error("no within-budget static config found (F1G3T1 recovers in ~13s against 30s)")
	} else if !rep.Rows[rep.BestStatic].WithinBudget {
		t.Errorf("best static %s marked outside the budget", rep.Rows[rep.BestStatic].Config.Name)
	}
	if rep.Steady.TpmC <= 0 || rep.Steady.Recovery != 0 {
		t.Errorf("steady scenario: tpmC=%.0f recovery=%v, want fault-free throughput", rep.Steady.TpmC, rep.Steady.Recovery)
	}
	for _, pc := range []ParetoCtl{rep.Crash, rep.Shift} {
		if pc.Recovery <= 0 {
			t.Errorf("%s scenario: no recovery measured", pc.Kind)
		}
		if pc.FinalRung == "" {
			t.Errorf("%s scenario: no final rung reported", pc.Kind)
		}
	}
	if rep.Steady.Infeasible {
		t.Error("30s budget reported infeasible")
	}
	out := FormatPareto(rep)
	for _, want := range []string{"Pareto frontier (budget 30s)", "F1G3T1", "F100G3T10", "Controller:", "steady", "shift", "best within-budget static"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestParetoDefaultsAndValidation pins the config defaulting (nil grid,
// zero budget) and the scale gate.
func TestParetoDefaultsAndValidation(t *testing.T) {
	if got := len(ParetoGrid()); got != 6 {
		t.Errorf("default grid has %d configs, want 6", got)
	}
	bad := tinyParetoScale()
	bad.TPCC.Warehouses = 0
	if _, err := RunPareto(bad, ParetoConfig{}, nil); err == nil {
		t.Error("invalid scale accepted")
	}
}
