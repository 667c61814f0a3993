package engine

import (
	"time"

	"dbench/internal/sim"
)

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
	timer   *sim.Proc
	running bool
}

func newCkptProcess(in *Instance) *ckptProcess {
	return &ckptProcess{in: in}
}

func (c *ckptProcess) start() {
	if c.running {
		return
	}
	c.running = true
	c.proc = c.in.k.Go("CKPT", c.loop)
	if c.in.cfg.CheckpointTimeout > 0 {
		c.timer = c.in.k.Go("CKPT-timer", c.timerLoop)
	}
}

// rearmTimer restarts the timeout timer so a just-altered
// checkpoint_timeout counts from now instead of whenever the previous
// interval would have expired.
func (c *ckptProcess) rearmTimer() {
	if !c.running {
		return
	}
	if c.timer != nil {
		c.timer.Kill()
		c.timer = nil
	}
	if c.in.cfg.CheckpointTimeout > 0 {
		c.timer = c.in.k.Go("CKPT-timer", c.timerLoop)
	}
}

func (c *ckptProcess) stop() {
	if !c.running {
		return
	}
	c.running = false
	if c.proc != nil {
		c.proc.Kill()
	}
	if c.timer != nil {
		c.timer.Kill()
	}
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

func (c *ckptProcess) timerLoop(p *sim.Proc) {
	for c.running {
		p.Sleep(c.in.cfg.CheckpointTimeout)
		if !c.running {
			return
		}
		c.request(reasonTimeout)
	}
}

// periodic is a background process that runs tick every interval of
// virtual time until stopped. PMON sweeps zombie transactions (whose
// client-side rollback failed, typically because their datafiles were
// offline) and rolls them back once their media is available again; MMON
// snapshots the counter registry, gauge probes and the live recovery-time
// estimate into the workload repository, and only exists when monitoring
// is enabled.
type periodic struct {
	every   time.Duration
	tick    func(p *sim.Proc)
	proc    *sim.Proc
	running bool
}

func startPeriodic(k *sim.Kernel, name string, every time.Duration, tick func(p *sim.Proc)) *periodic {
	b := &periodic{every: every, tick: tick, running: true}
	b.proc = k.Go(name, b.loop)
	return b
}

// stop ends the process; a nil receiver (never started) is a no-op.
func (b *periodic) stop() {
	if b == nil || !b.running {
		return
	}
	b.running = false
	b.proc.Kill()
}

func (b *periodic) loop(p *sim.Proc) {
	for b.running {
		p.Sleep(b.every)
		if !b.running {
			return
		}
		b.tick(p)
	}
}
