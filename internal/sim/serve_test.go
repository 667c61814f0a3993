package sim

import (
	"fmt"
	"testing"
	"time"
)

// serveProgramHash is randomProgramHash for background servers: producers
// feed queue-fed consumers and start, stop and wake them while periodic
// tickers run beside them. Consumers 0 and 1 serve one item per call (ARCH,
// an LNS shipper), 2 and 3 drain their queue in one call (managed recovery).
// An item can make its serve fail, which ends the process (a failed
// checkpoint), or stop its own server (a crash raised on LGWR); a tick can
// stop its ticker. Wakes find the consumer waiting, busy, stopped, or with
// nothing queued; a stopped consumer or ticker is started again.
func serveProgramHash(seed int64) uint64 {
	const producers, steps, consumers, tickers = 6, 300, 4, 2
	k := NewKernel(seed)
	rec, sum := traceHash(k)
	cpu := NewResource(2)
	rnd := k.Rand()
	dur := func() Duration { return Duration(rnd.Intn(2000)) * time.Microsecond }
	alive := producers

	type consumer struct {
		name  string
		drain bool
		queue []int
		srv   *Server
	}
	item := func(p *Proc, c *consumer) bool {
		v := c.queue[0]
		c.queue = c.queue[1:]
		rec(p.pid, 'v')
		switch v % 16 {
		case 0:
			rec(p.pid, 'F')
			return false
		case 1:
			c.srv.Stop()
			rec(p.pid, 'O')
		case 2, 3, 4:
			cpu.Use(p, dur())
		default:
			p.Sleep(dur())
		}
		return true
	}
	serve := func(p *Proc, c *consumer) bool {
		if !item(p, c) {
			return false
		}
		for c.drain && len(c.queue) > 0 {
			if !item(p, c) {
				return false
			}
		}
		return true
	}
	start := func(c *consumer) {
		if c.srv.Running() {
			return
		}
		c.srv = k.Serve(c.name, func() bool { return len(c.queue) > 0 }, func(p *Proc) bool { return serve(p, c) })
	}
	var cs [consumers]*consumer
	for i := range cs {
		cs[i] = &consumer{name: fmt.Sprintf("consumer%d", i), drain: i >= 2}
		start(cs[i])
	}

	var tks [tickers]*Server
	startTicker := func(i int) {
		if tks[i].Running() {
			return
		}
		tks[i] = k.Every(fmt.Sprintf("ticker%d", i), Duration(1+rnd.Intn(4))*time.Millisecond, func(p *Proc) {
			rec(p.pid, 't')
			switch rnd.Intn(12) {
			case 0:
				tks[i].Stop()
				rec(p.pid, 'T')
			case 1, 2:
				cpu.Use(p, dur())
			}
		})
	}
	for i := range tks {
		startTicker(i)
	}

	for i := 0; i < producers; i++ {
		k.Go(fmt.Sprintf("producer%d", i), func(p *Proc) {
			defer func() { alive-- }()
			for j := 0; j < steps; j++ {
				var op byte
				c := cs[rnd.Intn(consumers)]
				switch r := rnd.Intn(100); {
				case r < 40:
					op = 'e'
					c.queue = append(c.queue, rnd.Intn(64))
					c.srv.Wake()
				case r < 48:
					op = 'w'
					c.srv.Wake()
				case r < 70:
					op = 's'
					p.Sleep(dur())
				case r < 76:
					op = 'x'
					c.srv.Stop()
				case r < 86:
					op = 'r'
					start(c)
				case r < 87:
					op = 'X'
					tks[rnd.Intn(tickers)].Stop()
				case r < 92:
					op = 'R'
					startTicker(rnd.Intn(tickers))
				case r < 96:
					op = 'c'
					cpu.Use(p, dur())
				default:
					op = 'y'
					p.Yield()
				}
				rec(p.pid, op)
			}
		})
	}
	// A consumer killed in the CPU queue swallows a Release's wakeup.
	k.Go("pump", func(p *Proc) {
		for alive > 0 {
			p.Sleep(3 * time.Millisecond)
			cpu.queue.Broadcast(k)
		}
	})
	for t := Time(0); alive > 0 && t < Time(time.Hour); {
		t = t.Add(5 * time.Millisecond)
		rec(0, 'R')
		k.Run(t)
	}
	for _, c := range cs {
		rec(uint64(len(c.queue)), 'Q')
	}
	rec(uint64(cpu.BusyTotal()), 'B')
	rec(uint64(k.Procs()), 'K')
	k.KillAll()
	rec(uint64(k.Pending()), 'E')
	return sum()
}

// TestServeOrderPinned pins serveProgramHash to the values the same program
// hashed to with every consumer written as the loop the daemons wrote by hand
// before Serve (a running flag, a process, and a wake Cond kept across
// restarts), and the tickers on the periodic process Every replaced (commit
// ad049d5). The only events Serve drops are the no-op wakeups the kept Cond
// pushed for a killed predecessor; none of them moves another event.
func TestServeOrderPinned(t *testing.T) {
	for seed, want := range map[int64]uint64{1: 0x94e43bd66db1b285, 7: 0xcd7e7f83ca36cdf2, 42: 0xc97c3aa08c8a4fbf} {
		if got := serveProgramHash(seed); got != want {
			t.Errorf("seed %d: trace hash %#x, want %#x: event order changed", seed, got, want)
		}
	}
}

// A serve that stops its own server ends without waiting again; one that
// returns false leaves the server stopped and its process done.
func TestServeEndsOnStopOrFailure(t *testing.T) {
	k := NewKernel(1)
	work := 0
	var self, failing *Server
	self = k.Serve("self", func() bool { return work > 0 }, func(p *Proc) bool {
		work--
		self.Stop()
		return true
	})
	failing = k.Serve("failing", func() bool { return work > 0 }, func(p *Proc) bool {
		work--
		return false
	})
	k.RunAll()
	if !self.Running() || !failing.Running() || self.wake.Waiting() != 1 || failing.wake.Waiting() != 1 {
		t.Fatalf("idle servers: running %v %v, waiting %d %d; want both running and waiting", self.Running(), failing.Running(), self.wake.Waiting(), failing.wake.Waiting())
	}
	work = 2
	self.Wake()
	failing.Wake()
	k.RunAll()
	for _, s := range []*Server{self, failing} {
		if s.Running() || !s.proc.Done() || s.wake.Waiting() != 0 || k.Procs() != 0 {
			t.Errorf("%s: running %v, done %v, waiting %d, procs %d; want stopped, done, nobody waiting", s.proc.Name(), s.Running(), s.proc.Done(), s.wake.Waiting(), k.Procs())
		}
	}
	if work != 0 {
		t.Errorf("%d items left, want each server to serve one", work)
	}
	// A stopped server ignores Wake and Stop.
	self.Wake()
	self.Stop()
	if k.Pending() != 0 {
		t.Errorf("%d events queued by a stopped server", k.Pending())
	}
}

// Wake, Stop and Running on a server never started are no-ops.
func TestServeNilServer(t *testing.T) {
	var s *Server
	s.Wake()
	s.Stop()
	if s.Running() {
		t.Fatal("a nil server runs")
	}
}

// A tick that stops its own ticker does not sleep again, and a ticker
// stopped from outside ticks no more.
func TestEveryStops(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	var self *Server
	self = k.Every("self", time.Second, func(p *Proc) {
		ticks = append(ticks, p.Now())
		if len(ticks) == 3 {
			self.Stop()
		}
	})
	outside := 0
	other := k.Every("other", time.Second, func(*Proc) { outside++ })
	k.After(2500*time.Millisecond, other.Stop)
	if end := k.RunAll(); end != Time(3*time.Second) || len(ticks) != 3 || outside != 2 || self.Running() || other.Running() || k.Procs() != 0 {
		t.Fatalf("end %v, ticks %v, outside %d, running %v %v, procs %d; want 3s, three ticks, two outside, both stopped",
			end, ticks, outside, self.Running(), other.Running(), k.Procs())
	}
}

// serveLoad: a producer wakes a server that serves one item per call — a
// commit waking LGWR.
func serveLoad(k *Kernel, p *Proc) func() {
	queued, served := 0, 0
	s := k.Serve("server", func() bool { return queued > 0 }, func(*Proc) bool {
		queued--
		served++
		return true
	})
	p.Yield()
	return func() {
		queued++
		s.Wake()
		for served == 0 {
			p.Yield()
		}
		served = 0
	}
}
