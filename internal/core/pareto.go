package core

import (
	"fmt"
	"slices"
	"time"

	"dbench/internal/control"
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

// Pareto is the sweep: per static configuration of grid a fault-free run
// (tpmC) and a shutdown-abort run (recovery), then the three controller
// scenarios under the budget — steady load, a crash after settling, and a
// shifting load with a late crash.
func Pareto(sc Scale, budget time.Duration, grid []RecoveryConfig) Experiment {
	var frontier []Spec
	for _, rc := range grid {
		crash := sc.spec(rc)
		sc.inject(&crash, abort, sc.InjectTimes[1]) // at full throughput
		frontier = append(frontier, sc.spec(rc), crash)
	}
	// A frontier line is its point's two runs followed by the whole
	// frontier, which its mark compares it with; Run measures each job once.
	var points [][]Spec
	for i := range grid {
		points = append(points, append(slices.Clone(frontier[2*i:2*i+2]), frontier...))
	}
	// A controller run is monitored (the repository is the controller's
	// sensor) with the budgeted controller attached; injectAt 0 = no fault.
	ctl := func(phases []tpcc.LoadPhase, injectAt time.Duration) []Spec {
		spec := sc.spec(mustConfig("F100G3T10"))
		if spec.SampleInterval = sc.SampleInterval; spec.SampleInterval <= 0 {
			spec.SampleInterval = time.Second
		}
		spec.Control = &control.Config{Budget: budget}
		spec.Phases = phases
		if injectAt > 0 {
			sc.inject(&spec, abort, injectAt)
		}
		return []Spec{spec}
	}
	return Experiment{
		Tables: []Table{{
			Title: fmt.Sprintf("Pareto frontier (budget %v)", budget),
			Grid:  points,
			Cols: []Column{
				{"config", -12, "%-12s", func(r Row) any { return r[0].Spec.Recovery.Name }},
				{"tpmC", 8, "%8.0f", tpmC(0)},
				{"recovery", 10, "%10.1fs", func(r Row) any { return r[1].RecoveryTime.Seconds() }},
				{"within budget", 0, "%s", func(r Row) any {
					switch {
					case r[0] == paretoBest(r[2:], budget):
						return "yes (best)"
					case withinBudget(r[1], budget):
						return "yes"
					}
					return "no"
				}},
			},
		}, {
			Title: "\nController:",
			Grid: [][]Spec{
				ctl(nil, 0),
				ctl(nil, sc.InjectTimes[1]),
				ctl(paretoPhases(sc.Duration), sc.InjectTimes[2]), // after the load has shifted twice
			},
			Cols: []Column{
				{"scenario", -8, "%-8s", func(r Row) any {
					switch s := r[0].Spec; {
					case s.Phases != nil:
						return "shift"
					case s.Fault != nil:
						return "crash"
					}
					return "steady"
				}},
				{"tpmC", 8, "%8.0f", tpmC(0)},
				{"recovery", 10, "%10s", func(r Row) any {
					if d := r[0].RecoveryTime; d > 0 {
						return fmt.Sprintf("%.1fs", d.Seconds())
					}
					return "-"
				}},
				{"held", 8, "%8s", func(r Row) any { // the budget held (crash runs only)
					if r[0].RecoveryTime <= 0 {
						return "-"
					}
					return fmt.Sprint(withinBudget(r[0], budget))
				}},
				{"rung", -12, "%-12s", func(r Row) any { return r[0].Control.Rung().Name }}, // held when the run ended
				{"moves", 7, "%7d", func(r Row) any { // decisions that moved a knob
					n := 0
					for _, d := range r[0].Control.History() {
						if d.Changed {
							n++
						}
					}
					return n
				}},
				{"ticks", 7, "%7d", func(r Row) any { return r[0].Control.Ticks() }},
				{"settled@", 0, "tick %d", func(r Row) any { return r[0].Control.LastChangeTick() }},
			},
		}},
		// The controller runs are the interesting ones to trace and sample;
		// the static grid is covered by the scaling and figure campaigns.
		Instrumented: len(points) * (2 + len(frontier)),
		Foot: func(rows [][]Row) string {
			s := "\nno static configuration meets the budget\n"
			if len(rows[0]) > 0 {
				if best := paretoBest(rows[0][0][2:], budget); best != nil {
					frac := 0.0
					if best.TpmC != 0 {
						frac = rows[1][0][0].TpmC / best.TpmC
					}
					s = fmt.Sprintf("\ncontroller steady tpmC is %.0f%% of best within-budget static (%s)\n",
						100*frac, best.Spec.Recovery.Name)
				}
			}
			for _, r := range rows[1] {
				if r[0].Control.Infeasible() {
					return s + "controller reports the budget infeasible at this load\n"
				}
			}
			return s
		},
	}
}

// withinBudget reports that a crash run recovered within budget.
func withinBudget(crash *Result, budget time.Duration) bool {
	return crash.RecoveryTime > 0 && crash.RecoveryTime <= budget
}

// paretoBest returns the fault-free run of the highest-tpmC frontier point
// (perf, crash pairs) that recovered within budget, the first on a tie;
// nil when none did.
func paretoBest(frontier Row, budget time.Duration) *Result {
	var best *Result
	for i := 0; i < len(frontier); i += 2 {
		if withinBudget(frontier[i+1], budget) && (best == nil || frontier[i].TpmC > best.TpmC) {
			best = frontier[i]
		}
	}
	return best
}
