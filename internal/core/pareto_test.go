package core

import (
	"strings"
	"testing"
	"time"
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
// with a measured recovery, the steady one without. Every controller run
// carries a non-empty repository, its controller's sensor, which `dbench run
// '<ctl= key>' -awr/-stats` exports.
func TestRunParetoTiny(t *testing.T) {
	sc := tinyParetoScale()
	x := Pareto(sc, 30*time.Second, []RecoveryConfig{mustConfig("F1G3T1"), mustConfig("F100G3T10")})
	rows, err := x.Run(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	frontier, ctl := rows[0], rows[1]
	if len(frontier) != 2 {
		t.Fatalf("%d frontier rows, want 2", len(frontier))
	}
	for i, r := range ctl {
		if r[0].Repository.Len() == 0 {
			t.Errorf("controller run %d: empty repository", i)
		}
	}
	var best Row
	for _, r := range frontier {
		name := r[0].Spec.Recovery.Name
		if r[0].TpmC <= 0 {
			t.Errorf("%s: no throughput measured", name)
		}
		if r[1].RecoveryTime <= 0 {
			t.Errorf("%s: no recovery measured", name)
		}
		if vals := x.Tables[0].Values(r); vals[len(vals)-1] == "yes (best)" {
			best = r
		}
	}
	if best == nil {
		t.Error("no within-budget static config found (F1G3T1 recovers in ~13s against 30s)")
	} else if best[1].RecoveryTime > 30*time.Second {
		t.Errorf("best static %s recovered outside the budget", best[0].Spec.Recovery.Name)
	}
	steady := ctl[0][0]
	if steady.TpmC <= 0 || steady.RecoveryTime != 0 {
		t.Errorf("steady scenario: tpmC=%.0f recovery=%v, want fault-free throughput", steady.TpmC, steady.RecoveryTime)
	}
	for _, r := range ctl[1:] {
		if r[0].RecoveryTime <= 0 {
			t.Errorf("%s: no recovery measured", r[0].Spec.Key())
		}
		if r[0].Control.Rung().Name == "" {
			t.Errorf("%s: no final rung reported", r[0].Spec.Key())
		}
	}
	if steady.Control.Infeasible() {
		t.Error("30s budget reported infeasible")
	}
	out := x.Text(rows)
	for _, want := range []string{"Pareto frontier (budget 30s)", "F1G3T1", "F100G3T10", "Controller:", "steady", "shift", "best within-budget static"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestParetoDefaultsAndValidation pins the default grid (dbench's
// -pareto-grid default) and the scale gate.
func TestParetoDefaultsAndValidation(t *testing.T) {
	if got := len(ParetoGrid()); got != 6 {
		t.Errorf("default grid has %d configs, want 6", got)
	}
	bad := tinyParetoScale()
	bad.TPCC.Warehouses = 0
	if _, err := Pareto(bad, 30*time.Second, ParetoGrid()).Run(bad, nil, nil); err == nil {
		t.Error("invalid scale accepted")
	}
}
