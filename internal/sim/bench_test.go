package sim

import (
	"testing"
	"time"
)

// A load sets up its background processes on k and returns the one
// steady-state operation the foreground process p repeats. The shapes are
// those of the sim.* probes in benchmark/probes.go; the benchmarks below and
// the allocation gate (TestSimAllocs) both drive them.
type load func(k *Kernel, p *Proc) (op func())

// sleepLoad: one Sleep is one event plus one coroutine round trip.
func sleepLoad(k *Kernel, p *Proc) func() {
	return func() { p.Sleep(time.Microsecond) }
}

// condPingPongLoad: a Signal/Wait each way between two processes — a commit
// waking LGWR and LGWR waking the committer.
func condPingPongLoad(k *Kernel, p *Proc) func() {
	var ping, pong Cond
	k.Go("echo", func(q *Proc) {
		for {
			ping.Wait(q)
			pong.Signal(k)
		}
	})
	p.Yield() // let the echo process reach its Wait
	return func() {
		ping.Signal(k)
		pong.Wait(p)
	}
}

// broadcastLoad: one Broadcast to eight parked waiters, which park again.
func broadcastLoad(k *Kernel, p *Proc) func() {
	var c Cond
	for i := 0; i < 8; i++ {
		k.Go("waiter", func(q *Proc) {
			for {
				c.Wait(q)
			}
		})
	}
	p.Yield()
	return func() {
		c.Broadcast(k)
		p.Yield() // runs after the eight wakeups queued before it
	}
}

// resourceUseLoad: one Use of a capacity-1 resource three others queue for.
// Everyone yields after its turn: a releaser that re-acquired at once would
// find the slot free and starve the queue.
func resourceUseLoad(k *Kernel, p *Proc) func() {
	r := NewResource(1)
	for i := 0; i < 3; i++ {
		k.Go("contender", func(q *Proc) {
			for {
				r.Use(q, time.Microsecond)
				q.Yield()
			}
		})
	}
	p.Yield()
	return func() {
		r.Use(p, time.Microsecond)
		p.Yield()
	}
}

// contendedResourceLoad: txn.charge's pattern — twenty processes loop Use of
// a capacity-1 resource with nothing in between. The foreground takes the
// slot first and, re-acquiring at each release, keeps it; every Release
// wakes the head of the 19-deep queue to find the slot taken again.
func contendedResourceLoad(k *Kernel, p *Proc) func() {
	r := NewResource(1)
	for i := 0; i < 19; i++ {
		k.Go("contender", func(q *Proc) {
			for {
				r.Use(q, 180*time.Microsecond)
			}
		})
	}
	return func() { r.Use(p, 180*time.Microsecond) }
}

// linkSendLoad: one Send over a LAN-like link a second sender shares.
func linkSendLoad(k *Kernel, p *Proc) func() {
	l := NewLink(k, LinkSpec{Name: "lan", Latency: 200 * time.Microsecond, BytesPerSec: 100 << 20})
	k.Go("sender", func(q *Proc) {
		for {
			l.Send(q, 4096)
		}
	})
	p.Yield()
	return func() { l.Send(p, 4096) }
}

// inSim runs fn as the foreground process of a fresh kernel and tears the
// kernel down when fn returns.
func inSim(fn func(k *Kernel, p *Proc)) {
	k := NewKernel(42)
	k.Go("foreground", func(p *Proc) {
		fn(k, p)
		k.Stop()
	})
	k.Run(Time(1000 * time.Hour))
	k.KillAll()
}

func benchLoad(b *testing.B, l load) {
	b.ReportAllocs()
	inSim(func(k *Kernel, p *Proc) {
		op := l(k, p)
		for i := 0; i < 64; i++ { // grow the heap and the wait queues once
			op()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

func BenchmarkSleep(b *testing.B)             { benchLoad(b, sleepLoad) }
func BenchmarkCondPingPong(b *testing.B)      { benchLoad(b, condPingPongLoad) }
func BenchmarkBroadcast(b *testing.B)         { benchLoad(b, broadcastLoad) }
func BenchmarkResourceUse(b *testing.B)       { benchLoad(b, resourceUseLoad) }
func BenchmarkResourceContended(b *testing.B) { benchLoad(b, contendedResourceLoad) }
func BenchmarkLinkSend(b *testing.B)          { benchLoad(b, linkSendLoad) }

// BenchmarkSchedule is schedule + dispatch of a plain event: the heap and
// the closure call, no coroutine switch. The one allocation is the caller's
// closure.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(42)
	fired := 0
	for i := 0; i < b.N; i++ {
		k.After(time.Duration(i%97), func() { fired++ })
		if i%1024 == 1023 {
			k.RunAll()
		}
	}
	k.RunAll()
	if fired != b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}
