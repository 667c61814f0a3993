package core

import (
	"fmt"
	"strings"
	"time"

	"dbench/internal/control"
	"dbench/internal/faults"
	"dbench/internal/tpcc"
)

// ---------------------------------------------------------------------
// Pareto sweep: the tpmC-vs-recovery-time frontier of the static Table 3
// configurations, and the self-tuning controller's position on it.
//
// The paper's operators pick one static checkpoint/redo configuration and
// live with its trade-off. The sweep makes that trade-off explicit — one
// fault-free run (tpmC) and one crash run (measured recovery) per grid
// config — and then lets the controller pick for itself under a recovery
// budget, both at steady load and under a shifting load no static choice
// can track.

// ParetoConfig parameterizes the pareto sweep.
type ParetoConfig struct {
	// Budget is the recovery-time objective handed to the controller and
	// used to split the static frontier into within/over-budget halves.
	Budget time.Duration
	// Grid overrides the static configurations swept (nil = ParetoGrid).
	Grid []RecoveryConfig
}

// ParetoGrid is the default static grid: the Table 3 configuration behind
// each rung of the controller's ladder, so the controller's chosen rung is
// always directly comparable to a measured frontier point.
func ParetoGrid() []RecoveryConfig {
	var grid []RecoveryConfig
	for _, r := range control.DefaultLadder() {
		// Every rung has a Table 3 namesake of the same geometry
		// (control.TestDefaultLadderIsTable3).
		c, _ := ConfigByName(r.Name)
		grid = append(grid, c)
	}
	return grid
}

// ParetoRow is one static configuration's frontier point.
type ParetoRow struct {
	Config RecoveryConfig
	// TpmC is the fault-free throughput.
	TpmC float64
	// Recovery is the measured shutdown-abort recovery time (crash at
	// the mid-run injection instant).
	Recovery time.Duration
	// WithinBudget reports Recovery <= Budget.
	WithinBudget bool
}

// ParetoCtl is one controller run's measures.
type ParetoCtl struct {
	// Kind names the scenario: "steady", "crash" or "shift".
	Kind string
	// TpmC is the run's throughput.
	TpmC float64
	// Recovery is the measured recovery time (0 on fault-free runs).
	Recovery time.Duration
	// BudgetHeld reports Recovery <= Budget (crash runs only).
	BudgetHeld bool
	// FinalRung is the ladder rung held when the run ended.
	FinalRung string
	// SettledTick is the tick of the last knob change (0 = never moved).
	SettledTick int
	// Ticks is the number of controller evaluations.
	Ticks int
	// RungChanges counts decisions that moved a knob.
	RungChanges int
	// Infeasible reports the controller flagged the budget unattainable.
	Infeasible bool
}

// ParetoReport is the full sweep: the static frontier plus the
// controller's three scenarios.
type ParetoReport struct {
	Budget time.Duration
	Rows   []ParetoRow
	// BestStatic indexes the highest-tpmC row with Recovery within
	// Budget (-1 when no static config meets it).
	BestStatic int
	// Steady / Crash / Shift are the controller scenarios: fault-free,
	// crash after settling, and shifting load with a late crash.
	Steady ParetoCtl
	Crash  ParetoCtl
	Shift  ParetoCtl
}

// CtlFracOfBest is the steady controller throughput as a fraction of the
// best within-budget static configuration's (0 when none qualifies).
func (r *ParetoReport) CtlFracOfBest() float64 {
	if r.BestStatic < 0 || r.Rows[r.BestStatic].TpmC == 0 {
		return 0
	}
	return r.Steady.TpmC / r.Rows[r.BestStatic].TpmC
}

// paretoCtl folds one controller run into its report entry.
func paretoCtl(kind string, budget time.Duration, res *Result) ParetoCtl {
	pc := ParetoCtl{Kind: kind, TpmC: res.TpmC, Recovery: res.RecoveryTime}
	if res.RecoveryTime > 0 {
		pc.BudgetHeld = res.RecoveryTime <= budget
	}
	if ctl := res.Control; ctl != nil {
		pc.FinalRung = ctl.Rung().Name
		pc.SettledTick = ctl.LastChangeTick()
		pc.Ticks = ctl.Ticks()
		pc.Infeasible = ctl.Infeasible()
		for _, d := range ctl.History() {
			if d.Changed {
				pc.RungChanges++
			}
		}
	}
	return pc
}

// paretoPhases is the shifting-load shape: ramp at 40% for a quarter of
// the run, full load for a quarter, then settle at 70% — the controller
// must track three different redo rates with one budget.
func paretoPhases(d time.Duration) []tpcc.LoadPhase {
	return []tpcc.LoadPhase{
		{Duration: d / 4, ActiveFrac: 0.4},
		{Duration: d / 4, ActiveFrac: 1.0},
		{ActiveFrac: 0.7},
	}
}

// RunPareto executes the sweep: 2 jobs per grid config (fault-free tpmC,
// shutdown-abort recovery) then the three controller scenarios, all
// through the deterministic pool.
func RunPareto(sc Scale, cfg ParetoConfig, progress Progress) (*ParetoReport, error) {
	if cfg.Budget <= 0 {
		cfg.Budget = 30 * time.Second
	}
	grid := cfg.Grid
	if len(grid) == 0 {
		grid = ParetoGrid()
	}
	crash := faults.Fault{Kind: faults.ShutdownAbort}
	rep := &ParetoReport{Budget: cfg.Budget, BestStatic: -1, Rows: make([]ParetoRow, len(grid))}
	c := campaign{sc: sc}
	for i, rc := range grid {
		row := &rep.Rows[i]
		row.Config = rc
		c.add(sc.spec("PF/perf/"+rc.Name, rc), func(res *Result) string {
			return fmt.Sprintf("PF %-10s perf   tpmC=%5.0f", rc.Name, res.TpmC)
		}, func(res *Result) { row.TpmC = res.TpmC })

		spec := sc.spec("PF/crash/"+rc.Name, rc)
		sc.inject(&spec, crash, sc.InjectTimes[1]) // at full throughput
		c.add(spec, func(res *Result) string {
			return fmt.Sprintf("PF %-10s crash  recovery=%v", rc.Name, res.RecoveryTime.Round(time.Second))
		}, func(res *Result) { row.Recovery = res.RecoveryTime })
	}
	// A controller run is monitored (the repository is the controller's
	// sensor) with the budgeted controller attached; injectAt 0 = no fault.
	ctl := func(kind string, cell *ParetoCtl, phases []tpcc.LoadPhase, injectAt time.Duration) {
		spec := sc.spec("PF/ctl/"+kind, mustConfig("F100G3T10"))
		if spec.SampleInterval = sc.SampleInterval; spec.SampleInterval <= 0 {
			spec.SampleInterval = time.Second
		}
		spec.Control = &control.Config{Budget: cfg.Budget}
		spec.Phases = phases
		if injectAt > 0 {
			sc.inject(&spec, crash, injectAt)
		}
		c.add(spec, func(res *Result) string {
			pc := paretoCtl(kind, cfg.Budget, res)
			return fmt.Sprintf("PF ctl/%-6s tpmC=%5.0f recovery=%v rung=%s", kind, pc.TpmC,
				pc.Recovery.Round(time.Second), pc.FinalRung)
		}, func(res *Result) { *cell = paretoCtl(kind, cfg.Budget, res) })
		// The controller runs are the interesting ones to trace and
		// sample; the static grid is covered by the scaling/figure
		// campaigns.
		c.nominate()
	}
	ctl("steady", &rep.Steady, nil, 0)
	ctl("crash", &rep.Crash, nil, sc.InjectTimes[1])
	ctl("shift", &rep.Shift, paretoPhases(sc.Duration), sc.InjectTimes[2]) // after the load has shifted twice
	if _, err := runCampaign(&c, rep, progress); err != nil {
		return nil, err
	}
	for i := range rep.Rows {
		row := &rep.Rows[i]
		row.WithinBudget = row.Recovery > 0 && row.Recovery <= cfg.Budget
		if row.WithinBudget && (rep.BestStatic < 0 || row.TpmC > rep.Rows[rep.BestStatic].TpmC) {
			rep.BestStatic = i
		}
	}
	return rep, nil
}

// FormatPareto renders the report as a fixed-width text table. The
// output is a pure function of the report, so a reproduced sweep renders
// byte-identically.
func FormatPareto(rep *ParetoReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pareto frontier (budget %v)\n", rep.Budget)
	fmt.Fprintf(&b, "%-12s %8s %10s %s\n", "config", "tpmC", "recovery", "within budget")
	for i, row := range rep.Rows {
		mark := "no"
		if row.WithinBudget {
			mark = "yes"
		}
		if i == rep.BestStatic {
			mark = "yes (best)"
		}
		fmt.Fprintf(&b, "%-12s %8.0f %10.1fs %s\n", row.Config.Name, row.TpmC, row.Recovery.Seconds(), mark)
	}
	b.WriteString("\nController:\n")
	fmt.Fprintf(&b, "%-8s %8s %10s %8s %-12s %7s %7s %s\n",
		"scenario", "tpmC", "recovery", "held", "rung", "moves", "ticks", "settled@")
	for _, pc := range []ParetoCtl{rep.Steady, rep.Crash, rep.Shift} {
		held := "-"
		if pc.Recovery > 0 {
			held = fmt.Sprintf("%v", pc.BudgetHeld)
		}
		rec := "-"
		if pc.Recovery > 0 {
			rec = fmt.Sprintf("%.1fs", pc.Recovery.Seconds())
		}
		fmt.Fprintf(&b, "%-8s %8.0f %10s %8s %-12s %7d %7d tick %d\n",
			pc.Kind, pc.TpmC, rec, held, pc.FinalRung, pc.RungChanges, pc.Ticks, pc.SettledTick)
	}
	if rep.BestStatic >= 0 {
		fmt.Fprintf(&b, "\ncontroller steady tpmC is %.0f%% of best within-budget static (%s)\n",
			100*rep.CtlFracOfBest(), rep.Rows[rep.BestStatic].Config.Name)
	} else {
		b.WriteString("\nno static configuration meets the budget\n")
	}
	if rep.Steady.Infeasible || rep.Crash.Infeasible || rep.Shift.Infeasible {
		b.WriteString("controller reports the budget infeasible at this load\n")
	}
	return b.String()
}
