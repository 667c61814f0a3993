package sim

// Periodic is a process that runs a tick every interval of virtual time until
// stopped: the engine's PMON, MMON and CKPT timer, the tuning controller.
type Periodic struct {
	every   Duration
	tick    func(p *Proc)
	proc    *Proc
	running bool
}

// Every starts a process named name that sleeps every, then calls tick, for
// as long as it runs.
func (k *Kernel) Every(name string, every Duration, tick func(p *Proc)) *Periodic {
	b := &Periodic{every: every, tick: tick, running: true}
	b.proc = k.Go(name, b.loop)
	return b
}

// Stop ends the process; a nil receiver (never started) is a no-op. A tick
// that stops its own process ends after that tick without sleeping again.
func (b *Periodic) Stop() {
	if b == nil || !b.running {
		return
	}
	b.running = false
	b.proc.Kill()
}

func (b *Periodic) loop(p *Proc) {
	for b.running {
		p.Sleep(b.every)
		if !b.running {
			return
		}
		b.tick(p)
	}
}
