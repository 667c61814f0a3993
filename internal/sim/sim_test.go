package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelSchedulesInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(3*time.Second, func() { got = append(got, 3) })
	k.After(1*time.Second, func() { got = append(got, 1) })
	k.After(2*time.Second, func() { got = append(got, 2) })
	k.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != Time(3*time.Second) {
		t.Fatalf("now = %v, want 3s", k.Now())
	}
}

func TestKernelTieBreakIsFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(Time(time.Second), func() { got = append(got, i) })
	}
	k.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.After(1*time.Second, func() { ran++ })
	k.After(5*time.Second, func() { ran++ })
	end := k.Run(Time(2 * time.Second))
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if end != Time(2*time.Second) {
		t.Fatalf("end = %v, want 2s", end)
	}
	// The remaining event still fires on a later Run.
	k.Run(Time(10 * time.Second))
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestRunEventExactlyAtDeadlineFires(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.After(2*time.Second, func() { ran = true })
	k.Run(Time(2 * time.Second))
	if !ran {
		t.Fatal("event at deadline did not run")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.After(time.Second, func() {})
	k.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.Schedule(0, func() {})
}

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	k.RunAll()
	if wake != Time(42*time.Millisecond) {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
	if k.Procs() != 0 {
		t.Fatalf("procs = %d, want 0", k.Procs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	k.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * time.Second)
		trace = append(trace, "a2")
	})
	k.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * time.Second)
		trace = append(trace, "b1")
		p.Sleep(2 * time.Second)
		trace = append(trace, "b3")
	})
	k.RunAll()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	k := NewKernel(1)
	var c Cond
	var got []string
	waiter := func(name string) func(p *Proc) {
		return func(p *Proc) {
			c.Wait(p)
			got = append(got, name)
		}
	}
	k.Go("w1", waiter("w1"))
	k.Go("w2", waiter("w2"))
	k.Go("sig", func(p *Proc) {
		p.Sleep(time.Second)
		c.Signal(p.Kernel())
		p.Sleep(time.Second)
		c.Signal(p.Kernel())
	})
	k.RunAll()
	if len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("got %v, want [w1 w2]", got)
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel(1)
	var c Cond
	woken := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.Go("b", func(p *Proc) {
		p.Sleep(time.Second)
		c.Broadcast(p.Kernel())
	})
	k.RunAll()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	if c.Waiting() != 0 {
		t.Fatalf("waiting = %d, want 0", c.Waiting())
	}
}

func TestResourceSerialisesUse(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(1)
	var finish []Time
	for i := 0; i < 3; i++ {
		k.Go("u", func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	k.RunAll()
	want := []Time{Time(1 * time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if r.BusyTotal() != 3*time.Second {
		t.Fatalf("busy = %v, want 3s", r.BusyTotal())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(2)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.Go("u", func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	k.RunAll()
	// Pairs complete together: 1s, 1s, 2s, 2s.
	if finish[1] != Time(time.Second) || finish[3] != Time(2*time.Second) {
		t.Fatalf("finish = %v", finish)
	}
}

func TestKillRunsDefers(t *testing.T) {
	k := NewKernel(1)
	cleaned := false
	p := k.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	k.Go("killer", func(q *Proc) {
		q.Sleep(time.Second)
		p.Kill()
	})
	k.RunAll()
	if !cleaned {
		t.Fatal("defer did not run on Kill")
	}
	if !p.Done() {
		t.Fatal("killed proc not done")
	}
	if k.Procs() != 0 {
		t.Fatalf("procs = %d, want 0", k.Procs())
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	k := NewKernel(1)
	p := k.Go("quick", func(p *Proc) {})
	k.RunAll()
	p.Kill()
	k.RunAll()
	if k.Procs() != 0 {
		t.Fatalf("procs = %d", k.Procs())
	}
}

func TestDeterministicRand(t *testing.T) {
	run := func() []int64 {
		k := NewKernel(99)
		var vals []int64
		k.Go("r", func(p *Proc) {
			for i := 0; i < 5; i++ {
				vals = append(vals, p.Kernel().Rand().Int63())
				p.Sleep(time.Millisecond)
			}
		})
		k.RunAll()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.After(time.Second, func() { ran++; k.Stop() })
	k.After(2*time.Second, func() { ran++ })
	k.Run(Time(time.Hour))
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

// Property: for any set of non-negative delays, processes wake exactly at
// start+delay and the clock ends at the max delay.
func TestQuickSleepExactness(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		if len(delaysMs) > 64 {
			delaysMs = delaysMs[:64]
		}
		k := NewKernel(7)
		wake := make([]Time, len(delaysMs))
		for i, ms := range delaysMs {
			i, d := i, time.Duration(ms)*time.Millisecond
			k.Go("s", func(p *Proc) {
				p.Sleep(d)
				wake[i] = p.Now()
			})
		}
		k.RunAll()
		var maxT Time
		for i, ms := range delaysMs {
			want := Time(time.Duration(ms) * time.Millisecond)
			if wake[i] != want {
				return false
			}
			if want > maxT {
				maxT = want
			}
		}
		return k.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-1 resource with n users of service s finishes the
// last user at exactly n*s regardless of arrival interleaving at t=0.
func TestQuickResourceThroughput(t *testing.T) {
	f := func(n uint8, svcMs uint8) bool {
		users := int(n%16) + 1
		svc := time.Duration(int(svcMs)+1) * time.Millisecond
		k := NewKernel(3)
		r := NewResource(1)
		var last Time
		for i := 0; i < users; i++ {
			k.Go("u", func(p *Proc) {
				r.Use(p, svc)
				last = p.Now()
			})
		}
		k.RunAll()
		return last == Time(time.Duration(users)*svc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSimAllocs is the kernel's allocation gate: in steady state — event
// heap and wait queues grown — no scheduling primitive allocates, a plain
// Schedule costs nothing beyond the caller's own closure, and a timer and
// its Stop nothing at all.
func TestSimAllocs(t *testing.T) {
	loads := map[string]load{
		"Sleep": sleepLoad, "CondPingPong": condPingPongLoad, "Broadcast": broadcastLoad,
		"ResourceUse": resourceUseLoad, "ResourceContended": contendedResourceLoad, "LinkSend": linkSendLoad,
		"ServePingPong": serveLoad,
	}
	for name, l := range loads {
		inSim(func(k *Kernel, p *Proc) {
			if got := testing.AllocsPerRun(200, l(k, p)); got != 0 {
				t.Errorf("%s: %v allocs per operation in steady state, want 0", name, got)
			}
		})
	}
	k := NewKernel(1)
	fired := 0
	fn := func() { fired++ }
	if got := testing.AllocsPerRun(200, func() { k.After(time.Microsecond, fn); k.RunAll() }); got != 0 {
		t.Errorf("Schedule of a ready-made func: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { k.After(time.Microsecond, func() { fired++ }); k.RunAll() }); got > 1 {
		t.Errorf("Schedule of a fresh closure: %v allocs, want at most the closure itself", got)
	}
	// Timers stopped behind an earlier event, as granted lock waits stop
	// their timeouts, until the heap is compacted.
	var timers [8]Timer
	if got := testing.AllocsPerRun(200, func() {
		for i := range timers {
			timers[i] = k.AfterFunc(time.Second, fn)
		}
		k.After(time.Microsecond, fn)
		for _, tm := range timers {
			tm.Stop()
		}
		k.RunAll()
	}); got != 0 {
		t.Errorf("AfterFunc and Stop: %v allocs, want 0", got)
	}
}

// TestStoppedTimersLeaveNoTrace runs one seeded program of plain events and
// timers twice: once with its timers, some of which it stops before they
// are due — as a granted lock wait stops its timeout, seconds early or at
// its very deadline — and once with plain events in place of the timers
// that fire and nothing in place of the stopped ones. Deadlines come in any
// order and tie often. A stopped timer never fires; every other call fires at the time and
// in the order it has in the run without the stopped timers; Pending does not
// count a stopped timer, and the heap never holds more than twice what
// Pending counts; a timer that has fired, or was stopped, stops no more.
func TestStoppedTimersLeaveNoTrace(t *testing.T) {
	type firing struct {
		at Time
		id int
	}
	run := func(withTimers bool) (fired []firing, pending []int) {
		k := NewKernel(1)
		r := rand.New(rand.NewSource(7)) // drawn alike by both runs
		stopping := 0                    // timers to be stopped and not yet stopped
		var spent []Timer                // timers that fired or were stopped
		ids := 0
		var fire func(id int)
		schedule := func() {
			ids++
			id, d := ids, Duration(r.Intn(40))*time.Millisecond
			switch r.Intn(3) {
			case 0:
				k.After(d, func() { fire(id) })
			case 1: // a timer that fires
				if !withTimers {
					k.After(d, func() { fire(id) })
					break
				}
				var tm Timer
				tm = k.AfterFunc(d, func() { spent = append(spent, tm); fire(id) })
			case 2: // a timeout stopped soon, by an event scheduled first, or at its deadline
				stopIn := d
				d += Duration(r.Intn(3)) * time.Second
				if !withTimers {
					k.After(stopIn, func() {})
					break
				}
				var tm Timer
				stopping++
				k.After(stopIn, func() {
					if !tm.Stop() {
						t.Errorf("timer %d: Stop before its deadline found it gone", id)
					}
					stopping--
					spent = append(spent, tm)
				})
				tm = k.AfterFunc(d, func() { t.Errorf("stopped timer %d fired", id) })
			}
		}
		fire = func(id int) {
			fired = append(fired, firing{k.Now(), id})
			pending = append(pending, k.Pending()-stopping)
			if len(k.events) > 2*k.Pending() {
				t.Fatalf("%d events in the heap, %d pending", len(k.events), k.Pending())
			}
			for n := 1 + r.Intn(3); n > 0 && ids < 5000; n-- {
				schedule()
			}
		}
		for i := 0; i < 50; i++ {
			schedule()
		}
		k.RunAll()
		if k.Pending() != 0 || len(k.events) != 0 || len(k.timers) != 0 {
			t.Fatalf("drained kernel: %d pending, %d events, %d timers", k.Pending(), len(k.events), len(k.timers))
		}
		for _, tm := range spent {
			if tm.Stop() {
				t.Fatal("Stop took back a timer that had fired or was stopped")
			}
		}
		if withTimers && (len(spent) < 1000 || len(spent) == len(fired)) {
			t.Fatalf("%d timers spent, %d calls fired: the program exercises too little", len(spent), len(fired))
		}
		return fired, pending
	}
	got, gotPending := run(true)
	want, wantPending := run(false)
	if !slices.Equal(got, want) {
		t.Fatalf("with timers %d calls fired, without %d; first difference at %d", len(got), len(want), firstDiff(got, want))
	}
	if !slices.Equal(gotPending, wantPending) {
		t.Fatalf("Pending counts differ at call %d", firstDiff(gotPending, wantPending))
	}
}

func firstDiff[T comparable](a, b []T) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}

// randomProgramHash runs a seeded random program over every kernel
// primitive and returns the FNV-1a hash of its (now, pid, op) trace. Every
// draw comes from the kernel's own source in execution order, so one event
// firing out of order changes every later draw and the hash with it.
func randomProgramHash(seed int64) uint64 {
	const mains, steps, childSteps = 30, 2000, 25
	k := NewKernel(seed)
	rec, sum := traceHash(k)
	var conds [4]Cond
	cpu, disk := NewResource(2), NewResource(1)
	var children []*Proc
	alive := mains
	rnd := k.Rand()
	dur := func() Duration { return Duration(rnd.Intn(3000)) * time.Microsecond }

	// Only the mains spawn: a child that spawned would, at these odds, leave
	// one descendant on average and the program would never end.
	var body func(n int, spawn bool) func(p *Proc)
	body = func(n int, spawn bool) func(p *Proc) {
		return func(p *Proc) {
			defer rec(p.pid, 'X') // also fires, in kill order, when unwinding
			for i := 0; i < n; i++ {
				var op byte
				switch r := rnd.Intn(100); {
				case r < 25:
					op = 's'
					p.Sleep(dur())
				case r < 35:
					op = 'y'
					p.Yield()
				case r < 50:
					op = 'w'
					conds[rnd.Intn(len(conds))].Wait(p)
				case r < 65:
					op = 'g'
					conds[rnd.Intn(len(conds))].Signal(k)
				case r < 70:
					op = 'b'
					conds[rnd.Intn(len(conds))].Broadcast(k)
				case r < 80:
					op = 'c'
					cpu.Use(p, dur())
				case r < 88:
					op = 'd'
					disk.Use(p, dur())
				case r < 92 && spawn:
					op = 'n'
					children = append(children, k.Go("child", body(childSteps, false)))
				case r < 95:
					op = 'k'
					if len(children) > 0 {
						if c := children[rnd.Intn(len(children))]; c != p {
							c.Kill()
						}
					}
				default:
					op = 'a'
					c := &conds[rnd.Intn(len(conds))]
					k.After(dur(), func() {
						rec(0, 'A')
						c.Signal(k)
					})
				}
				rec(p.pid, op)
			}
		}
	}
	for i := 0; i < mains; i++ {
		k.Go(fmt.Sprintf("main%d", i), func(p *Proc) {
			defer func() { alive-- }()
			body(steps, true)(p)
		})
	}
	// The pump keeps waiters from wedging once every signaller is parked.
	k.Go("pump", func(p *Proc) {
		for alive > 0 {
			p.Sleep(2 * time.Millisecond)
			for i := range conds {
				conds[i].Broadcast(k)
			}
			// A killed acquirer stays queued and can swallow a Release's
			// wakeup; Acquire re-checks, so a spurious one is harmless.
			cpu.queue.Broadcast(k)
			disk.queue.Broadcast(k)
		}
	})
	// Drive in slices so Run(until)'s boundary handling is in the hash too.
	for t := Time(0); alive > 0 && t < Time(time.Hour); {
		t = t.Add(40 * time.Millisecond)
		rec(0, 'R')
		k.Run(t)
	}
	rec(uint64(k.Procs()), 'K')
	k.KillAll()
	rec(uint64(k.Pending()), 'E')
	return sum()
}

// traceHash returns a recorder of (now, pid, op) into an FNV-1a hash, and
// the hash so far.
func traceHash(k *Kernel) (rec func(pid uint64, op byte), sum func() uint64) {
	h := fnv.New64a()
	var buf [17]byte
	rec = func(pid uint64, op byte) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(k.Now()))
		binary.LittleEndian.PutUint64(buf[8:], pid)
		buf[16] = op
		h.Write(buf[:])
	}
	return rec, h.Sum64
}

// contendedProgramHash is randomProgramHash for the contended shapes the
// kernel settles without a coroutine switch: 24 acquirers run bursts of
// back-to-back Use on a Resource(1) and a Resource(4) with nothing between
// them (txn.charge's pattern, where a releaser re-acquires before the waiter
// it signalled runs), queued acquirers are killed, resource queues are
// broadcast and signalled from func events, processes call Stop, and the
// program runs in slices short enough that some own wakeups lie past the
// bound.
func contendedProgramHash(seed int64) uint64 {
	const acquirers, rounds = 24, 300
	k := NewKernel(seed)
	rec, sum := traceHash(k)
	one, four := NewResource(1), NewResource(4)
	rnd := k.Rand()
	dur := func() Duration { return Duration(rnd.Intn(400)) * time.Microsecond }
	var procs []*Proc
	alive, kills := acquirers, 12

	// A victim taken from a queue is waiting in Acquire; one taken from all
	// acquirers may hold a slot, sleep, or have a wakeup pending.
	victim := func() *Proc {
		if q := &one.queue; rnd.Intn(3) > 0 && q.Waiting() > 0 {
			return q.waiters[q.head+rnd.Intn(q.Waiting())]
		}
		return procs[rnd.Intn(len(procs))]
	}
	body := func(p *Proc) {
		defer func() { alive-- }()
		defer rec(p.pid, 'X') // also fires, in kill order, when unwinding
		for i := 0; i < rounds; i++ {
			switch r := rnd.Intn(100); {
			case r < 45:
				for n := rnd.Intn(4); n >= 0; n-- {
					one.Use(p, dur())
					rec(p.pid, 'c')
				}
			case r < 80:
				for n := rnd.Intn(4); n >= 0; n-- {
					four.Use(p, dur())
					rec(p.pid, 'f')
				}
			case r < 90:
				p.Sleep(dur())
				rec(p.pid, 's')
			case r < 94:
				if v := victim(); v != p && kills > 0 && !v.Done() {
					kills--
					v.Kill()
					rec(v.pid, 'k')
				}
			case r < 96:
				one.queue.Broadcast(k)
				rec(p.pid, 'b')
			case r < 98:
				k.After(dur(), func() {
					rec(0, 'A')
					one.queue.Signal(k)
					four.queue.Signal(k)
				})
			default:
				k.Stop()
				rec(p.pid, 'S')
			}
		}
	}
	for i := 0; i < acquirers; i++ {
		procs = append(procs, k.Go(fmt.Sprintf("acquirer%d", i), body))
	}
	// A killed acquirer stays queued and swallows a Release's wakeup; the
	// pump's broadcasts keep the resources from wedging with a free slot.
	k.Go("pump", func(p *Proc) {
		for alive > 0 {
			p.Sleep(3 * time.Millisecond)
			one.queue.Broadcast(k)
			four.queue.Broadcast(k)
		}
	})
	for t := Time(0); alive > 0 && t < Time(time.Hour); {
		t = t.Add(7 * time.Millisecond)
		rec(0, 'R')
		k.Run(t)
	}
	rec(uint64(one.BusyTotal()), '1')
	rec(uint64(four.BusyTotal()), '4')
	rec(uint64(k.Procs()), 'K')
	k.KillAll()
	rec(uint64(k.Pending()), 'E')
	return sum()
}

// TestSimEventOrderPinned proves the kernel fires events in the order the
// channel-handoff kernel it replaced did: the pinned values are that
// kernel's hashes of the same program (commit e3b9689). Any change to the
// (at, seq) order — a missed or extra k.seq++, a heap that is not stable on
// ties, a different Run boundary — moves them, in a fraction of a second
// instead of the minutes the goldens take.
func TestSimEventOrderPinned(t *testing.T) {
	for seed, want := range map[int64]uint64{1: 0x187b9b612d80061d, 42: 0x605bd59348108e94} {
		if got := randomProgramHash(seed); got != want {
			t.Errorf("seed %d: trace hash %#x, want %#x: event order changed", seed, got, want)
		}
	}
}

// TestSimContendedOrderPinned pins contendedProgramHash to the values the
// kernel computed before it settled wakeups in place (commit 513e106): a
// futile wakeup re-queued by the kernel, or a process's own wakeup fired
// without a switch, must leave every event where the resuming kernel put it.
func TestSimContendedOrderPinned(t *testing.T) {
	for seed, want := range map[int64]uint64{1: 0x1f2bdd2dc0e55183, 7: 0xf20fd741bdaf948b, 42: 0x6c6cd5f60083aef9} {
		if got := contendedProgramHash(seed); got != want {
			t.Errorf("seed %d: trace hash %#x, want %#x: event order changed", seed, got, want)
		}
	}
}

// A process that blocks settles, in place, a waiter's futile wakeup (the
// releaser re-acquired first) and its own wakeup when that is what comes
// next: neither needs a coroutine switch.
func TestSettledWakeupsSkipTheSwitch(t *testing.T) {
	const users, uses, service = 20, 50, 180 * time.Microsecond
	k := NewKernel(1)
	r := NewResource(1)
	for i := 0; i < users; i++ {
		k.Go("user", func(p *Proc) {
			for j := 0; j < uses; j++ {
				r.Use(p, service)
			}
		})
	}
	// Each user runs once to queue and once when the slot is finally its
	// own; resuming on every event took ~1 970 switches.
	if end := k.RunAll(); end != Time(users*uses*service) || k.resumes > 2*users {
		t.Errorf("%d users x %d uses: end %v, %d resumes, want %v and at most %d", users, uses, end, k.resumes, Time(users*uses*service), 2*users)
	}

	k = NewKernel(1)
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if end := k.RunAll(); end != Time(time.Millisecond) || k.resumes != 1 {
		t.Errorf("1000 sleeps: end %v, %d resumes, want 1ms and 1", end, k.resumes)
	}
}

// A queued acquirer that is killed unwinds through its defers — also when
// the wakeup a Release gave it finds the slot taken again, the case the
// kernel would otherwise settle by putting it back in the queue.
func TestKilledQueuedAcquirerUnwinds(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(1)
	unwound := map[string]bool{}
	var a, b *Proc
	acquirer := func(name string) func(p *Proc) {
		return func(p *Proc) {
			defer func() { unwound[name] = true }()
			r.Use(p, time.Second)
			t.Errorf("%s got the slot", name)
		}
	}
	k.Go("holder", func(p *Proc) {
		r.Use(p, time.Second) // its Release signals a, queued first
		a.Kill()
		r.Use(p, time.Second) // taken before a's wakeup pops
	})
	a = k.Go("a", acquirer("a"))
	b = k.Go("b", acquirer("b"))
	k.Go("killer", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		b.Kill() // queued, no wakeup pending
	})
	if end := k.RunAll(); end != Time(2*time.Second) || !unwound["a"] || !unwound["b"] || !a.Done() || !b.Done() || k.Procs() != 0 {
		t.Fatalf("end %v, unwound %v, done a=%v b=%v, procs %d: want 2s, both unwound and done, none left", end, unwound, a.Done(), b.Done(), k.Procs())
	}
}

// ROADMAP 5(c)'s dead waiter, kept as it is: Signal hands a Release to the
// head of the queue without asking whether that process is still alive, so
// a killed acquirer left in the queue swallows the wakeup and the waiter
// behind it stays parked beside a free slot. The dead-waiter fix flips this
// test on purpose.
func TestFinishedWaiterSwallowsARelease(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(1)
	served := false
	k.Go("holder", func(p *Proc) { r.Use(p, time.Second) })
	dead := k.Go("dead", func(p *Proc) { r.Use(p, time.Second) })
	k.Go("waiter", func(p *Proc) { r.Use(p, time.Second); served = true })
	k.Go("killer", func(p *Proc) { p.Sleep(500 * time.Millisecond); dead.Kill() })
	k.RunAll()
	if served || !dead.Done() || r.QueueLen() != 1 || r.inUse != 0 || k.Procs() != 1 {
		t.Fatalf("served=%v dead done=%v queued=%d in use=%d procs=%d: want the release swallowed, the waiter parked beside a free slot",
			served, dead.Done(), r.QueueLen(), r.inUse, k.Procs())
	}
	k.KillAll()
}

// A process whose own next wakeup lies past Run's bound cannot settle it: it
// parks, and the next Run resumes it.
func TestOwnWakeupPastRunBoundParks(t *testing.T) {
	k := NewKernel(1)
	var woke []Time
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(300 * time.Millisecond)
			woke = append(woke, p.Now())
		}
	})
	if end := k.Run(Time(time.Second)); end != Time(time.Second) || len(woke) != 3 || k.Pending() != 1 || k.resumes != 1 {
		t.Fatalf("first Run: end %v, woke %v, pending %d, resumes %d; want 1s, 3 wakeups, the fourth queued, 1 resume", end, woke, k.Pending(), k.resumes)
	}
	k.Run(Time(2 * time.Second))
	if len(woke) != 6 || woke[3] != Time(1200*time.Millisecond) || woke[5] != Time(1800*time.Millisecond) || k.resumes != 2 || k.Procs() != 0 {
		t.Fatalf("second Run: woke %v, resumes %d, procs %d; want 6 wakeups to 1.8s, 2 resumes, done", woke, k.resumes, k.Procs())
	}
}

func TestRunResumesParkedProcesses(t *testing.T) {
	k := NewKernel(1)
	var c Cond
	r := NewResource(1)
	var got []string
	k.Go("sleeper", func(p *Proc) { p.Sleep(3 * time.Second); got = append(got, "sleeper") })
	k.Go("waiter", func(p *Proc) { c.Wait(p); got = append(got, "waiter") })
	k.Go("holder", func(p *Proc) { r.Use(p, 2*time.Second); got = append(got, "holder") })
	k.Go("queued", func(p *Proc) { r.Use(p, 2*time.Second); got = append(got, "queued") })
	if end := k.Run(Time(time.Second)); end != Time(time.Second) || len(got) != 0 || k.Procs() != 4 {
		t.Fatalf("first Run: end=%v finished=%v procs=%d, want 1s, none, 4", end, got, k.Procs())
	}
	k.After(0, func() { c.Signal(k) })
	k.Run(Time(10 * time.Second))
	if want := "waiter holder sleeper queued"; strings.Join(got, " ") != want {
		t.Fatalf("second Run finished %v, want %s", got, want)
	}
	if k.Procs() != 0 || k.Now() != Time(10*time.Second) {
		t.Fatalf("procs=%d now=%v, want 0 and 10s", k.Procs(), k.Now())
	}
}

func TestStopFromInsideProcess(t *testing.T) {
	k := NewKernel(1)
	steps := 0
	k.Go("stopper", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			steps++
			if steps == 2 {
				k.Stop()
			}
		}
	})
	if end := k.Run(Time(time.Hour)); end != Time(2*time.Second) || steps != 2 {
		t.Fatalf("Run stopped at %v after %d steps, want 2s and 2", end, steps)
	}
	// Stop holds for one Run only; the parked process carries on.
	k.Run(Time(3 * time.Second))
	if steps != 3 {
		t.Fatalf("steps = %d after resuming, want 3", steps)
	}
	k.KillAll()
}

// A panic in a process reaches Run's caller once, wrapped with the process
// name and the virtual time and carrying the stack of the panicking frame,
// and leaves a kernel KillAll can still tear down.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel(1)
	cleaned := false
	k.Go("bystander", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	k.Go("boom", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		explode()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run(Time(time.Second))
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want an error", got, got)
	}
	for _, want := range []string{`sim: process "boom" panicked at t=3ms: kaboom`, "sim.explode"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("panic message lacks %q:\n%v", want, err)
		}
	}
	if k.Now() != Time(3*time.Millisecond) || k.Procs() != 1 {
		t.Fatalf("after the panic now=%v procs=%d, want 3ms and the bystander", k.Now(), k.Procs())
	}
	k.KillAll()
	if !cleaned || k.Procs() != 0 {
		t.Fatalf("KillAll after the panic: bystander unwound=%v procs=%d", cleaned, k.Procs())
	}
}

//go:noinline
func explode() { panic("kaboom") }

// The coroutine keeps Go's closure reachable for the life of the process,
// so Go must drop fn from it: whatever fn captured has to be collectable as
// soon as fn itself no longer needs it, even with the process still parked.
func TestSimLifetimesFnReleasedWhileParked(t *testing.T) {
	k := NewKernel(1)
	var park Cond
	collected := make(chan struct{})
	func() {
		state := new([1 << 20]byte)
		runtime.SetFinalizer(state, func(*[1 << 20]byte) { close(collected) })
		k.Go("holder", func(p *Proc) {
			state[0] = 1 // fn's closure is the only reference
			park.Wait(p)
		})
	}()
	k.RunAll()
	if k.Procs() != 1 || park.Waiting() != 1 {
		t.Fatalf("procs=%d waiting=%d, want the holder parked", k.Procs(), park.Waiting())
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			k.KillAll()
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the state fn captured is still reachable while the process is parked")
}

// Every process is a coroutine on a goroutine of its own; KillAll must end
// all of them, however they are parked — or never started.
func TestSimLifetimesKillAllEndsEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	var c Cond
	r := NewResource(1)
	for i := 0; i < 150; i++ {
		switch i % 3 {
		case 0:
			k.Go("cond", func(p *Proc) { c.Wait(p) })
		case 1:
			k.Go("sleep", func(p *Proc) { p.Sleep(time.Hour) })
		case 2:
			k.Go("resource", func(p *Proc) { r.Use(p, time.Hour) })
		}
	}
	k.Run(Time(time.Second))
	for i := 0; i < 50; i++ {
		k.Go("unstarted", func(p *Proc) { p.Sleep(time.Hour) })
	}
	if k.Procs() != 200 || runtime.NumGoroutine() < before+200 {
		t.Fatalf("procs=%d goroutines=%d (before: %d), want 200 live coroutines", k.Procs(), runtime.NumGoroutine(), before)
	}
	k.KillAll()
	if k.Procs() != 0 || k.Pending() != 0 {
		t.Fatalf("after KillAll procs=%d pending=%d", k.Procs(), k.Pending())
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after KillAll, %d before the kernel", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A process killed before its first step still runs its body up to its
// first block; a panic there is marked ErrKilledUnstarted, one from a
// process that had already run is not.
func TestKillBeforeFirstStepPanicIsMarked(t *testing.T) {
	for _, started := range []bool{false, true} {
		k := NewKernel(1)
		p := k.Go("p", func(p *Proc) {
			defer func() {
				if started {
					panic("cleanup")
				}
			}()
			if !started {
				panic("body")
			}
			p.Sleep(time.Hour)
		})
		if started {
			k.Run(Time(time.Second))
		}
		p.Kill()
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			k.RunAll()
			return nil
		}()
		err, ok := rec.(error)
		if !ok || errors.Is(err, ErrKilledUnstarted) == started {
			t.Errorf("started=%v: panic %v, want marked ErrKilledUnstarted only when unstarted", started, rec)
		}
	}
}
