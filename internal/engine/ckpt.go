package engine

import "dbench/internal/sim"

// ckptReason distinguishes what triggered a checkpoint, for the Table 3
// accounting.
type ckptReason uint8

const (
	reasonSwitch ckptReason = iota + 1
	reasonTimeout
	reasonManual
)

// ckptProcess is the CKPT background process plus its timeout timer. One
// checkpoint runs at a time; requests arriving during a checkpoint are
// coalesced into the next one. It runs from start to stop: a failed
// checkpoint ends the CKPT process, but requests still queue and the timer
// still ticks until the crash the failure raises stops them.
type ckptProcess struct {
	in      *Instance
	pending []ckptReason
	ckpt    *sim.Server // nil until started and after stop
	timer   *sim.Server // nil when checkpoint_timeout is 0
}

func (c *ckptProcess) start() {
	if c.ckpt != nil {
		return
	}
	c.ckpt = c.in.k.Serve("CKPT", func() bool { return len(c.pending) > 0 }, c.serve)
	c.rearmTimer()
}

// rearmTimer (re)starts the timeout timer, so a just-altered
// checkpoint_timeout counts from now instead of whenever the previous
// interval would have expired.
func (c *ckptProcess) rearmTimer() {
	if c.ckpt == nil {
		return
	}
	c.timer.Stop()
	c.timer = nil
	if c.in.cfg.CheckpointTimeout > 0 {
		c.timer = c.in.k.Every("CKPT-timer", c.in.cfg.CheckpointTimeout, func(*sim.Proc) { c.request(reasonTimeout) })
	}
}

func (c *ckptProcess) stop() {
	if c.ckpt == nil {
		return
	}
	c.ckpt.Stop()
	c.ckpt = nil
	c.timer.Stop()
	c.pending = nil
}

func (c *ckptProcess) request(r ckptReason) {
	if c.ckpt == nil {
		return
	}
	c.pending = append(c.pending, r)
	c.ckpt.Wake()
}

// serve takes one checkpoint for every request pending.
func (c *ckptProcess) serve(p *sim.Proc) bool {
	batch := c.pending
	c.pending = nil
	if err := c.in.checkpoint(p); err != nil {
		// The instance is crashing (log down or control file lost); the
		// CKPT process just exits.
		return false
	}
	// Account one checkpoint per trigger reason batch: Oracle coalesces
	// too, but the paper's Table 3 counts checkpoint *events*, so
	// attribute the batch to its first reason.
	switch batch[0] {
	case reasonSwitch:
		c.in.st.SwitchCheckpoints++
	case reasonTimeout:
		c.in.st.TimeoutCheckpoints++
	}
	return true
}
