// Package control implements the self-tuning recovery/performance
// controller: a feedback loop that holds a stated recovery-time budget
// ("recover in <= 30s if we crash now") while maximizing throughput,
// automating the trade-off the paper's operators make by hand when they
// pick a static checkpoint/redo configuration (F100G3T10 vs F400G3T20).
//
// The controller is sensor-driven, not schedule-driven: each tick it
// reads the MMON workload repository's redo generation rates, smooths
// them with an EWMA, and asks the calibrated recovery-time estimator a
// what-if question for every rung of a config ladder — "if the instance
// crashed at the worst point of this configuration's checkpoint cycle,
// how long would recovery take?". It then holds the most aggressive
// (largest checkpoint interval, highest-throughput) rung whose
// worst-case prediction still fits inside the budget's safety margin,
// applying changes through the same ALTER SYSTEM path a DBA would use:
// the checkpoint timer re-arms immediately, redo group resizes land at
// the next log switch, and recovery parallelism is raised once to its
// ceiling (parallel apply costs nothing while the instance is up).
//
// Stability over reactivity: moving down the ladder (toward faster
// recovery) happens immediately — a budget at risk is acted on — while
// moving up requires the more aggressive rung to stay within target for
// upTicks consecutive ticks, so a noisy rate sample cannot make the
// knobs oscillate. A budget no configuration can meet (below the fixed
// instance-restart cost) is reported as infeasible rather than silently
// missed.
package control

import (
	"fmt"
	"strconv"
	"time"

	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/trace"
)

// Rung is one step of the controller's config ladder: a named
// checkpoint/redo geometry, ordered from the fastest-recovering (rung
// 0) to the best-performing.
type Rung struct {
	Name              string
	GroupSizeBytes    int64
	Groups            int
	CheckpointTimeout time.Duration
}

// DefaultLadder is the ladder every controller climbs. It mirrors the
// paper's Table 3 axis from its most conservative configuration (1 MB
// groups, 1-minute checkpoints: fast recovery, heavy checkpoint traffic)
// to its most aggressive (400 MB groups, 20-minute checkpoints: peak
// tpmC, minutes of redo to replay); each rung is the Table 3
// configuration of the same name.
func DefaultLadder() []Rung {
	return []Rung{
		{Name: "F1G3T1", GroupSizeBytes: 1 << 20, Groups: 3, CheckpointTimeout: time.Minute},
		{Name: "F10G3T1", GroupSizeBytes: 10 << 20, Groups: 3, CheckpointTimeout: time.Minute},
		{Name: "F40G3T5", GroupSizeBytes: 40 << 20, Groups: 3, CheckpointTimeout: 5 * time.Minute},
		{Name: "F100G3T10", GroupSizeBytes: 100 << 20, Groups: 3, CheckpointTimeout: 10 * time.Minute},
		{Name: "F400G3T10", GroupSizeBytes: 400 << 20, Groups: 3, CheckpointTimeout: 10 * time.Minute},
		{Name: "F400G3T20", GroupSizeBytes: 400 << 20, Groups: 3, CheckpointTimeout: 20 * time.Minute},
	}
}

// Config parameterizes the controller. The budget is all an operator
// states; the rest of the policy is the constants below, and the
// evaluation period is the instance's MMON sample interval — the natural
// cadence of the sensing layer.
type Config struct {
	// Budget is the recovery-time objective: the controller keeps the
	// predicted worst-case crash-recovery time at or below it. Required.
	Budget time.Duration
}

const (
	// margin is the fraction of Budget the controller actually targets:
	// the headroom absorbs estimator error — the chaos harness pins the
	// estimate to ±35%, so targeting 75% keeps the measured recovery
	// inside the budget.
	margin = 0.75
	// slack inflates the observed redo rates when predicting a rung's
	// worst case, covering checkpoint duration and the position clamps
	// that leave the durable checkpoint short of the trigger point.
	slack = 1.3
	// upTicks is how many consecutive ticks a more aggressive rung must
	// stay within target before the controller moves up.
	upTicks = 3
	// maxParallel is the recovery_parallelism the controller sets (the
	// effective fan-out is additionally bounded by CPUs).
	maxParallel = 8
)

// Decision is one evaluated tick of the controller, kept for reports
// and tests.
type Decision struct {
	Tick       int
	At         sim.Time
	Rung       int
	Predicted  time.Duration
	Changed    bool
	Infeasible bool
}

// Controller drives one instance. It runs as a simulation process
// (like the TPC-C terminals, outside the engine), so it survives
// instance crashes and simply skips ticks while the instance is down.
type Controller struct {
	in     *engine.Instance
	budget time.Duration
	ladder []Rung

	ctl *sim.Server

	rung       int
	ticks      int
	lastChange int // tick index of the last knob change (0 = none yet)
	upStreak   int
	infeasible bool
	parSet     bool

	seeded    bool
	ewmaRec   float64 // smoothed redo records/sec
	ewmaBytes float64 // smoothed redo bytes/sec

	history []Decision

	c struct {
		ticks      *trace.Counter
		skipped    *trace.Counter
		changes    *trace.Counter
		knobs      *trace.Counter
		infeasible *trace.Counter
	}
}

// ewmaAlpha smooths the sampled redo rates; ~8 ticks of memory.
const ewmaAlpha = 0.25

// upFactor is the hysteresis on up-moves: a more aggressive rung must
// predict below upFactor×target before the controller will climb to it,
// while only crossing the full target forces a climb-down. Predictions
// drifting inside the [upFactor×target, target] deadband cause no knob
// changes, so a rung whose worst case hovers at the target cannot make
// the controller oscillate.
const upFactor = 0.85

// New wires a controller to an open-or-opening instance. The instance
// must run with monitoring enabled (Config.SampleInterval > 0): the
// repository's rates and estimator are the controller's only sensors.
func New(in *engine.Instance, cfg Config) (*Controller, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("control: Budget must be positive")
	}
	if in.Monitor() == nil {
		return nil, fmt.Errorf("control: instance has no workload repository (set Config.SampleInterval > 0)")
	}
	c := &Controller{in: in, budget: cfg.Budget, ladder: DefaultLadder()}
	c.rung = c.matchRung()
	reg := in.Registry()
	c.c.ticks = reg.Counter("ctl.ticks")
	c.c.skipped = reg.Counter("ctl.skipped_ticks")
	c.c.changes = reg.Counter("ctl.rung_changes")
	c.c.knobs = reg.Counter("ctl.knob_changes")
	c.c.infeasible = reg.Counter("ctl.infeasible_ticks")
	return c, nil
}

// matchRung finds the ladder rung closest to the instance's current
// redo geometry, so the controller's first move is relative to where
// the DBA actually left the knobs.
func (c *Controller) matchRung() int {
	size := c.in.Log().TargetGroupSize()
	best, bestDiff := 0, int64(-1)
	for i, r := range c.ladder {
		diff := r.GroupSizeBytes - size
		if diff < 0 {
			diff = -diff
		}
		if bestDiff < 0 || diff < bestDiff {
			best, bestDiff = i, diff
		}
	}
	return best
}

// Start launches the controller process, which ticks every sample
// interval.
func (c *Controller) Start() {
	if c.ctl == nil {
		c.ctl = c.in.Kernel().Every("CTL", c.in.Config().SampleInterval, c.tick)
	}
}

// Budget returns the controller's recovery-time objective.
func (c *Controller) Budget() time.Duration { return c.budget }

// Rung returns the ladder rung currently held.
func (c *Controller) Rung() Rung { return c.ladder[c.rung] }

// RungIndex returns the index of the rung currently held.
func (c *Controller) RungIndex() int { return c.rung }

// Ticks returns the number of evaluation ticks so far.
func (c *Controller) Ticks() int { return c.ticks }

// LastChangeTick returns the tick index of the most recent knob change
// (0 when the controller has never moved).
func (c *Controller) LastChangeTick() int { return c.lastChange }

// Infeasible reports whether the budget is currently unattainable: even
// the most conservative rung's predicted recovery exceeds it.
func (c *Controller) Infeasible() bool { return c.infeasible }

// History returns the evaluated-decision log (callers must not modify
// the slice).
func (c *Controller) History() []Decision { return c.history }

// tick is one evaluation: sense, predict each rung's worst case, move.
func (c *Controller) tick(p *sim.Proc) {
	c.ticks++
	c.c.ticks.Inc()
	if c.in.State() != engine.StateOpen {
		c.c.skipped.Inc()
		return
	}
	// Parallel recovery has no cost while the instance is up, so the
	// fan-out knob has no trade-off: raise it once to the ceiling.
	if !c.parSet {
		c.parSet = true
		if maxParallel > c.in.RecoveryParallelism() {
			if _, _, err := c.in.AlterSystem(p, "recovery_parallelism", strconv.Itoa(maxParallel)); err == nil {
				c.c.knobs.Inc()
				c.lastChange = c.ticks
			}
			if c.in.State() != engine.StateOpen {
				return // crashed during the admin latency
			}
		}
	}
	repo := c.in.Monitor()
	recRate, ok1 := repo.Rate("db.flushed_scn")
	byteRate, ok2 := repo.Rate("redo.flushed_bytes")
	if !ok1 || !ok2 {
		c.c.skipped.Inc()
		return
	}
	if !c.seeded {
		c.ewmaRec, c.ewmaBytes = recRate, byteRate
		c.seeded = true
	} else {
		c.ewmaRec += ewmaAlpha * (recRate - c.ewmaRec)
		c.ewmaBytes += ewmaAlpha * (byteRate - c.ewmaBytes)
	}

	target := time.Duration(float64(c.budget) * margin)
	desired := -1
	for i := len(c.ladder) - 1; i >= 0; i-- {
		if c.predict(i) <= target {
			desired = i
			break
		}
	}
	floorPred := c.predict(0)
	switch {
	case floorPred > c.budget:
		// Not even the most conservative rung fits: the budget is
		// unattainable at this load. Hold rung 0 and say so.
		if !c.infeasible {
			c.infeasible = true
			c.in.Tracer().Instant(p.Now(), trace.CatCtl, "CTL", "budget infeasible",
				trace.I("budget_ms", c.budget.Milliseconds()),
				trace.I("floor_ms", floorPred.Milliseconds()))
		}
		c.c.infeasible.Inc()
		desired = 0
	case desired < 0:
		// Nothing fits the margin but the floor fits the budget: hold
		// the most conservative rung.
		c.infeasible = false
		desired = 0
	default:
		c.infeasible = false
	}

	changed := false
	switch {
	case desired < c.rung:
		// Budget at risk: step down immediately.
		changed = c.move(p, desired)
		c.upStreak = 0
	case desired > c.rung:
		// More headroom: step up only when the higher rung clears the
		// hysteresis bar AND has done so for upTicks consecutive ticks,
		// so neither one optimistic sample nor a prediction hovering at
		// the target can start an oscillation.
		if c.predict(desired) <= time.Duration(float64(target)*upFactor) {
			c.upStreak++
		} else {
			c.upStreak = 0
			changed = c.move(p, c.rung) // repair drift while holding
		}
		if c.upStreak >= upTicks {
			changed = c.move(p, desired)
			c.upStreak = 0
		}
	default:
		c.upStreak = 0
		// Re-assert the held rung: free when nothing drifted, and it
		// finishes a move a crash interrupted between knobs.
		changed = c.move(p, c.rung)
	}

	pred := c.predict(c.rung)
	c.history = append(c.history, Decision{
		Tick: c.ticks, At: p.Now(), Rung: c.rung,
		Predicted: pred, Changed: changed, Infeasible: c.infeasible,
	})
	c.in.Tracer().Instant(p.Now(), trace.CatCtl, "CTL", "decision",
		trace.S("rung", c.ladder[c.rung].Name),
		trace.I("predicted_ms", pred.Milliseconds()),
		trace.I("target_ms", target.Milliseconds()),
		trace.I("tick", int64(c.ticks)))
}

// predict answers the what-if question for rung i: if the instance ran
// at this rung and crashed at the worst point of its checkpoint cycle,
// how long would recovery take at the observed (smoothed) redo rates?
// The worst case carries one checkpoint interval's worth of redo, where
// the effective interval is the sooner of the timeout trigger and the
// group filling up (a switch triggers a checkpoint too).
func (c *Controller) predict(i int) time.Duration {
	r := c.ladder[i]
	eff := r.CheckpointTimeout.Seconds()
	if c.ewmaBytes > 1 {
		if fill := float64(r.GroupSizeBytes) / c.ewmaBytes; fill < eff {
			eff = fill
		}
	}
	recs := int64(c.ewmaRec * eff * slack)
	bytes := int64(c.ewmaBytes * eff * slack)
	return c.in.Monitor().Estimator().PredictTotal(recs, bytes)
}

// move applies rung `to`'s knobs through the ALTER SYSTEM path (the
// same code path, latency and trace events as a DBA session). Reports
// whether any knob actually changed.
func (c *Controller) move(p *sim.Proc, to int) bool {
	r := c.ladder[to]
	from := c.ladder[c.rung].Name
	down := to < c.rung
	c.rung = to
	changed := false
	knobs := [][2]string{
		{"checkpoint_timeout", r.CheckpointTimeout.String()},
		{"log_group_size_bytes", strconv.FormatInt(r.GroupSizeBytes, 10)},
		{"log_groups", strconv.Itoa(r.Groups)},
	}
	for _, kv := range knobs {
		// A knob already at (or converging to) its value is a free
		// no-op, so re-asserting a rung does not burn admin latency.
		_, moved, err := c.in.AlterSystem(p, kv[0], kv[1])
		if err != nil {
			break // instance went down mid-move; retry next tick
		}
		if moved {
			c.c.knobs.Inc()
			changed = true
		}
	}
	if changed {
		c.c.changes.Inc()
		c.lastChange = c.ticks
		c.in.Tracer().Instant(p.Now(), trace.CatCtl, "CTL", "rung change",
			trace.S("from", from), trace.S("to", r.Name), trace.I("tick", int64(c.ticks)))
		if down && c.in.State() == engine.StateOpen {
			// Stepping down means the budget is at risk now — but the
			// group resize only pends until the next log switch, and the
			// redo already outstanding is the old rung's worth. Do what a
			// DBA would: force the switch (landing the resize) and take a
			// checkpoint, so the replay window shrinks to the new rung's
			// bound immediately rather than at some future switch.
			if err := c.in.ForceLogSwitch(p); err == nil && c.in.State() == engine.StateOpen {
				c.in.RequestCheckpoint()
			}
		}
	}
	return changed
}
