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
// coalesced into the next one.
type ckptProcess struct {
	in      *Instance
	pending []ckptReason
	wake    sim.Cond
	proc    *sim.Proc
	timer   *sim.Periodic // nil when checkpoint_timeout is 0
	running bool
}

func (c *ckptProcess) start() {
	if c.running {
		return
	}
	c.running = true
	c.proc = c.in.k.Go("CKPT", c.loop)
	c.rearmTimer()
}

// rearmTimer (re)starts the timeout timer, so a just-altered
// checkpoint_timeout counts from now instead of whenever the previous
// interval would have expired.
func (c *ckptProcess) rearmTimer() {
	if !c.running {
		return
	}
	c.timer.Stop()
	c.timer = nil
	if c.in.cfg.CheckpointTimeout > 0 {
		c.timer = c.in.k.Every("CKPT-timer", c.in.cfg.CheckpointTimeout, func(*sim.Proc) { c.request(reasonTimeout) })
	}
}

func (c *ckptProcess) stop() {
	if !c.running {
		return
	}
	c.running = false
	c.proc.Kill()
	c.timer.Stop()
	c.pending = nil
}

func (c *ckptProcess) request(r ckptReason) {
	if !c.running {
		return
	}
	c.pending = append(c.pending, r)
	c.wake.Broadcast(c.in.k)
}

func (c *ckptProcess) loop(p *sim.Proc) {
	for c.running {
		for c.running && len(c.pending) == 0 {
			c.wake.Wait(p)
		}
		if !c.running {
			return
		}
		batch := c.pending
		c.pending = nil
		if err := c.in.checkpoint(p); err != nil {
			// The instance is crashing (log down or control file
			// lost); the CKPT process just exits.
			return
		}
		// Account one checkpoint per trigger reason batch: Oracle
		// coalesces too, but the paper's Table 3 counts checkpoint
		// *events*, so attribute the batch to its first reason.
		switch batch[0] {
		case reasonSwitch:
			c.in.c.switchCheckpoints.Inc()
		case reasonTimeout:
			c.in.c.timeoutCheckpoints.Inc()
		}
	}
}
