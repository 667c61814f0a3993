// The controller battery exercises internal/control through the full
// stack (core.Run builds the instance, workload and controller exactly
// as `dbench -exp pareto` does), from the outside: the package is
// core-driven, so an external test package avoids nothing — it is the
// real integration surface.
package control_test

import (
	"strings"
	"testing"
	"time"

	"dbench/internal/control"
	"dbench/internal/core"
	"dbench/internal/faults"
	"dbench/internal/tpcc"
)

// miniSpec is a shrunk, monitored workload with the budgeted controller
// attached: big enough to generate steady redo, small enough that a
// corner of the convergence matrix runs in seconds.
func miniSpec(name, initial string, budget time.Duration) core.Spec {
	spec := core.DefaultSpec()
	spec.Name = name
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 60
	cfg.Items = 500
	cfg.TerminalsPerWarehouse = 5
	spec.TPCC = cfg
	spec.CacheBlocks = 512
	spec.Duration = 5 * time.Minute
	rc, ok := core.ConfigByName(initial)
	if !ok {
		panic("unknown config " + initial)
	}
	spec.Recovery = rc
	spec.SampleInterval = time.Second
	spec.Control = &control.Config{Budget: budget}
	return spec
}

// TestControllerConvergence is the stability property, one corner per
// (budget × initial-config) pair: from both ends of the ladder the
// controller must settle — within settleBy ticks — on a configuration
// whose live worst-case recovery prediction fits the budget, and then
// hold it: no knob changes over at least the final quietTicks ticks, so
// a prediction hovering at the target cannot make the knobs oscillate.
func TestControllerConvergence(t *testing.T) {
	const (
		settleBy   = 180 // ticks (1s each): latest acceptable last knob change
		quietTicks = 60  // minimum change-free tail
	)
	cases := []struct {
		budget  time.Duration
		initial string
	}{
		{15 * time.Second, "F1G3T1"},
		{15 * time.Second, "F400G3T20"},
		{30 * time.Second, "F1G3T1"},
		{30 * time.Second, "F400G3T20"},
		{60 * time.Second, "F1G3T1"},
		{60 * time.Second, "F400G3T20"},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.initial + "/" + tc.budget.String()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := core.Run(miniSpec("conv-"+name, tc.initial, tc.budget))
			if err != nil {
				t.Fatal(err)
			}
			ctl := res.Control
			if ctl == nil {
				t.Fatal("spec.Control set but no controller on the result")
			}
			hist := ctl.History()
			if ctl.Ticks() < 250 || len(hist) == 0 {
				t.Fatalf("only %d ticks (%d decisions) over a 5-minute run at 1s cadence", ctl.Ticks(), len(hist))
			}
			if ctl.Infeasible() {
				t.Fatalf("budget %v reported infeasible", tc.budget)
			}
			final := hist[len(hist)-1]
			t.Logf("settled on %s at tick %d (of %d), final predicted recovery %v",
				ctl.Rung().Name, ctl.LastChangeTick(), ctl.Ticks(), final.Predicted)
			if final.Predicted > tc.budget {
				t.Errorf("final predicted recovery %v exceeds the %v budget", final.Predicted, tc.budget)
			}
			if last := ctl.LastChangeTick(); last > settleBy {
				t.Errorf("last knob change at tick %d, want settled by tick %d", last, settleBy)
			}
			if quiet := ctl.Ticks() - ctl.LastChangeTick(); quiet < quietTicks {
				t.Errorf("only %d change-free ticks at the end, want >= %d (oscillation)", quiet, quietTicks)
			}
			// The decision log must agree with LastChangeTick: no
			// Changed decision after it.
			for _, d := range hist {
				if d.Changed && d.Tick > ctl.LastChangeTick() {
					t.Errorf("decision at tick %d changed knobs after the reported last change (%d)", d.Tick, ctl.LastChangeTick())
				}
			}
		})
	}
}

// TestControllerHoldsBudget crashes the instance well after the
// controller has settled and holds the measured recovery to the budget
// (with 25% grace for estimator error — the margin the controller
// targets is what keeps the measured value inside the budget itself).
func TestControllerHoldsBudget(t *testing.T) {
	for _, budget := range []time.Duration{15 * time.Second, 30 * time.Second, 60 * time.Second} {
		budget := budget
		t.Run(budget.String(), func(t *testing.T) {
			t.Parallel()
			spec := miniSpec("budget-"+budget.String(), "F100G3T10", budget)
			spec.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
			spec.InjectAt = 3 * time.Minute // well past settling
			spec.TailAfterRecovery = 30 * time.Second
			res, err := core.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Control.Infeasible() {
				t.Fatalf("budget %v reported infeasible", budget)
			}
			if res.RecoveryTime <= 0 {
				t.Fatal("no recovery measured")
			}
			limit := budget + budget/4
			t.Logf("budget %v: held %s, measured recovery %v (limit %v)",
				budget, res.Control.Rung().Name, res.RecoveryTime, limit)
			if res.RecoveryTime > limit {
				t.Errorf("measured recovery %v exceeds budget %v (+25%% grace = %v)", res.RecoveryTime, budget, limit)
			}
		})
	}
}

// TestControllerReportsInfeasible pins the negative contract: a budget
// below the fixed instance-restart cost cannot be met by any
// configuration, and the controller must say so — holding the most
// conservative rung rather than pretending — instead of silently
// missing it.
func TestControllerReportsInfeasible(t *testing.T) {
	spec := miniSpec("infeasible", "F100G3T10", time.Second)
	spec.Duration = 90 * time.Second
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctl := res.Control
	if !ctl.Infeasible() {
		t.Fatal("1s budget (below the 12s instance-restart cost) not reported infeasible")
	}
	if ctl.RungIndex() != 0 {
		t.Errorf("infeasible budget held rung %d (%s), want the most conservative (0)", ctl.RungIndex(), ctl.Rung().Name)
	}
	marked := 0
	for _, d := range ctl.History() {
		if d.Infeasible {
			marked++
		}
	}
	if marked == 0 {
		t.Error("no decision in the history is marked infeasible")
	}
}

// TestControllerRequiresSensors pins the wiring errors: the controller
// is sensor-driven, so a spec without the workload repository must fail
// loudly at construction, as must a zero budget.
func TestControllerRequiresSensors(t *testing.T) {
	spec := miniSpec("no-sensors", "F100G3T10", 30*time.Second)
	spec.Duration = 30 * time.Second
	spec.SampleInterval = 0
	if _, err := core.Run(spec); err == nil || !strings.Contains(err.Error(), "repository") {
		t.Errorf("controller without repository: err = %v, want repository hint", err)
	}
	spec = miniSpec("no-budget", "F100G3T10", 30*time.Second)
	spec.Duration = 30 * time.Second
	spec.Control = &control.Config{}
	if _, err := core.Run(spec); err == nil || !strings.Contains(err.Error(), "Budget") {
		t.Errorf("controller without budget: err = %v, want Budget hint", err)
	}
}

// TestDefaultLadderOrdered pins the ladder invariant the controller's
// movement logic relies on: rung 0 recovers fastest, and both knobs are
// monotone non-decreasing up the ladder.
func TestDefaultLadderOrdered(t *testing.T) {
	ladder := control.DefaultLadder()
	if len(ladder) < 2 {
		t.Fatalf("ladder has %d rungs", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].GroupSizeBytes < ladder[i-1].GroupSizeBytes {
			t.Errorf("rung %d group size %d < rung %d's %d", i, ladder[i].GroupSizeBytes, i-1, ladder[i-1].GroupSizeBytes)
		}
		if ladder[i].CheckpointTimeout < ladder[i-1].CheckpointTimeout {
			t.Errorf("rung %d timeout %v < rung %d's %v", i, ladder[i].CheckpointTimeout, i-1, ladder[i-1].CheckpointTimeout)
		}
	}
}

// TestDefaultLadderIsTable3 pins each rung to the paper's Table 3
// configuration of the same name, and the pareto grid to the ladder: the
// controller's chosen rung is only comparable to a measured frontier point
// because the two are the same geometry, declared once each and looked up
// by name (core.ParetoGrid).
func TestDefaultLadderIsTable3(t *testing.T) {
	grid := core.ParetoGrid()
	ladder := control.DefaultLadder()
	if len(grid) != len(ladder) {
		t.Fatalf("pareto grid has %d configurations for a ladder of %d rungs", len(grid), len(ladder))
	}
	for i, r := range ladder {
		rc, ok := core.ConfigByName(r.Name)
		if !ok {
			t.Errorf("rung %q is not a Table 3 configuration", r.Name)
			continue
		}
		if rc.FileSize != r.GroupSizeBytes || rc.Groups != r.Groups || rc.CheckpointTimeout != r.CheckpointTimeout {
			t.Errorf("rung %+v differs from Table 3's %+v", r, rc)
		}
		if grid[i] != rc {
			t.Errorf("pareto grid[%d] = %+v, want the rung's configuration %+v", i, grid[i], rc)
		}
	}
}
