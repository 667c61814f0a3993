// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and runs simulated processes. A
// process is an ordinary Go function executing as a coroutine (iter.Pull),
// so exactly one process (or the kernel itself) runs at any instant: control
// is handed off explicitly whenever a process blocks on Sleep, a Cond, or a
// Resource and something other than its own wakeup is due. Events at equal
// virtual times fire in scheduling order, so runs are fully reproducible.
//
// A call scheduled with AfterFunc can be taken back with Timer.Stop, so a
// timeout nobody waits for any more (a granted lock wait's) costs the queue
// nothing; a timer that fires keeps the place it was scheduled in.
//
// The kernel is the substrate for everything else in this repository: the
// simulated disks, the database engine's background processes, the TPC-C
// terminals, and the fault injector are all sim processes.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// Time is an instant of virtual time, measured as a duration since the
// start of the simulation.
type Time time.Duration

// Duration re-exports time.Duration for callers that configure the kernel.
type Duration = time.Duration

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled wakeup of proc or, when proc is nil, a call of fn or,
// when fn is nil too, of timer seq. It is stored by value in the kernel's
// heap, in four words the compiler keeps in registers: scheduling allocates
// nothing.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Time
	until   Time // bound of the Run in progress
	seq     uint64
	events  []event           // binary min-heap on (at, seq)
	timers  map[uint64]func() // by seq: the calls of timers neither run nor stopped
	stale   int               // events of stopped timers left in events
	rng     *rand.Rand
	procs   int
	live    map[*Proc]struct{}
	nextPID uint64
	stopped bool
	resumes int // coroutine switches into a process, for tests
}

// NewKernel returns a kernel with its clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:    rand.New(rand.NewSource(seed)),
		live:   make(map[*Proc]struct{}),
		timers: make(map[uint64]func()),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulation processes (never concurrently).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Schedule registers fn to run at absolute virtual time at. Scheduling in
// the past panics: it indicates a logic error in the caller.
func (k *Kernel) Schedule(at Time, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	k.push(at, nil, fn)
}

// push queues a wakeup of p (or a call of fn) at at, after everything
// already queued for that instant.
func (k *Kernel) push(at Time, p *Proc, fn func()) {
	k.seq++
	e := event{at: at, seq: k.seq, proc: p, fn: fn}
	h := append(k.events, e)
	i := len(h) - 1
	for ; i > 0 && e.before(&h[(i-1)/2]); i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = e
	k.events = h
}

// pop removes and returns the earliest event. The top is never a stopped
// timer's: pop drops those that come up after it, or compacts the heap once
// they are more than half of it.
func (k *Kernel) pop() event {
	top := k.events[0]
	for {
		h := k.events
		n := len(h) - 1
		last := h[n]
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&last) {
				break
			}
			h[i], i = h[c], c
		}
		h[i] = last
		h[n] = event{} // drop the references the vacated slot holds
		k.events = h[:n]
		switch {
		case k.stale == 0:
		case 2*k.stale > n:
			k.compact()
		case k.dead(&h[0]):
			k.stale--
			continue
		}
		return top
	}
}

// compact rebuilds the heap without the events of stopped timers: sorted,
// which is a heap too.
func (k *Kernel) compact() {
	h := k.events[:0]
	for i := range k.events {
		if !k.dead(&k.events[i]) {
			h = append(h, k.events[i])
		}
	}
	clear(k.events[len(h):])
	slices.SortFunc(h, func(a, b event) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) })
	k.events, k.stale = h, 0
}

// dead reports whether e is the event of a stopped timer.
func (k *Kernel) dead(e *event) bool {
	if e.proc != nil || e.fn != nil {
		return false
	}
	_, queued := k.timers[e.seq]
	return !queued
}

// After registers fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.Schedule(k.now.Add(d), fn)
}

// Timer is a call scheduled by AfterFunc. It is a value and allocates
// nothing of its own.
type Timer struct {
	k   *Kernel
	seq uint64
}

// AfterFunc registers fn to run d from now, as After does, and returns a
// Timer whose Stop takes the call back.
func (k *Kernel) AfterFunc(d Duration, fn func()) Timer {
	k.push(k.now.Add(max(d, 0)), nil, nil)
	k.timers[k.seq] = fn
	return Timer{k: k, seq: k.seq}
}

// Stop takes the call back unless it has run already, and reports whether
// it did. Its event leaves the heap now if it is the next one, else when it
// comes to the top or the heap is compacted: the heap never holds more than
// twice the events still to fire.
func (t Timer) Stop() bool {
	k := t.k
	if _, queued := k.timers[t.seq]; !queued {
		return false
	}
	delete(k.timers, t.seq)
	if k.events[0].seq == t.seq {
		k.pop()
	} else if k.stale++; 2*k.stale > len(k.events) {
		k.compact()
	}
	return true
}

// Stop makes Run return once the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the event queue drains, the
// clock would pass until, or Stop is called. It returns the virtual time at
// which it stopped. Events scheduled exactly at until still run. A panic
// in a process surfaces here, wrapped with the process name and the virtual
// time; the kernel stays usable (KillAll still unwinds the other processes).
func (k *Kernel) Run(until Time) Time {
	k.run(until)
	if k.now < until && !k.stopped {
		k.now = until
	}
	return k.now
}

// RunAll executes events until the queue drains or Stop is called.
func (k *Kernel) RunAll() Time {
	k.run(math.MaxInt64)
	return k.now
}

func (k *Kernel) run(until Time) {
	k.stopped, k.until = false, until
	for k.due() {
		e := k.pop()
		k.now = e.at
		switch {
		case e.proc == nil && e.fn == nil:
			fn := k.timers[e.seq]
			delete(k.timers, e.seq)
			fn()
		case e.proc == nil:
			e.fn()
		case e.proc.mustRequeue():
			e.proc.requeue()
		default:
			e.proc.step()
		}
	}
}

// due reports whether the earliest event fires within the Run in progress.
func (k *Kernel) due() bool {
	return len(k.events) > 0 && !k.stopped && k.events[0].at <= k.until
}

// KillAll terminates every live process (in creation order) and runs the
// kernel until they have unwound. Call it when a simulation ends so that
// parked process coroutines — and everything their stacks retain — can be
// collected; otherwise each finished simulation leaks its whole state.
func (k *Kernel) KillAll() {
	for _, p := range k.Live() {
		p.Kill()
	}
	k.RunAll()
}

// Live returns the processes started and not yet finished, in start
// order: who is still there when part of a simulation should have wound
// down.
func (k *Kernel) Live() []*Proc {
	procs := make([]*Proc, 0, len(k.live))
	for p := range k.live {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
	return procs
}

// Pending reports the number of queued events, stopped timers not counted.
func (k *Kernel) Pending() int { return len(k.events) - k.stale }

// Procs reports the number of live processes (started and not finished).
func (k *Kernel) Procs() int { return k.procs }

// Proc is a simulated process: a coroutine that runs only when the kernel
// hands it control and that yields control back whenever it blocks.
type Proc struct {
	k      *Kernel
	name   string
	pid    uint64
	next   func() (struct{}, bool) // kernel side: run the process to its next block
	yield  func(struct{}) bool     // process side: hand control back to the kernel
	done   bool
	killed bool

	acquiring *Resource // set while in Acquire's wait loop
}

// Go starts fn as a simulated process. fn begins executing at the current
// virtual time (as a scheduled event) and may call the blocking primitives
// on its Proc. Go itself never blocks.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.nextPID++
	p := &Proc{k: k, name: name, pid: k.nextPID}
	k.procs++
	k.live[p] = struct{}{}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		unstarted := p.killed // killed before its first step
		defer func() {
			p.done = true
			k.procs--
			delete(k.live, p)
			switch r := recover().(type) {
			case nil, killSignal:
			default: // iter.Pull re-raises this from next, i.e. out of Run
				err := fmt.Errorf("sim: process %q panicked at t=%v: %v\n%s", name, k.now, r, debug.Stack())
				if unstarted {
					err = fmt.Errorf("%w: %w", ErrKilledUnstarted, err)
				}
				panic(err)
			}
		}()
		// The coroutine keeps this closure reachable for the life of the
		// process; drop fn from it, or whatever fn captured (a whole
		// experiment's state) stays pinned after fn itself is done with it.
		f := fn
		fn = nil
		f(p)
	})
	k.push(k.now, p, nil)
	return p
}

type killSignal struct{}

// ErrKilledUnstarted marks the panic of a process killed before its first
// step: such a process still runs its body up to its first block, so the
// panic comes from code that whoever killed it never meant to run.
var ErrKilledUnstarted = errors.New("killed before its first step")

// step resumes the process coroutine and returns when it blocks or
// finishes. It runs on the kernel's goroutine.
func (p *Proc) step() {
	if p.done {
		return
	}
	p.k.resumes++
	p.next()
}

// mustRequeue reports whether resuming p would only put it back in the queue
// of the resource it waits for: Acquire's loop, woken while every slot is
// still taken, does nothing but wait again. A killed process must run to
// unwind; one that finished inside Acquire was killed, so its wakeup is
// spent as before.
func (p *Proc) mustRequeue() bool {
	r := p.acquiring
	return r != nil && r.inUse >= len(r.holds) && !p.killed
}

// requeue is what p would do if resumed when mustRequeue holds.
func (p *Proc) requeue() { p.acquiring.queue.enqueue(p) }

// block suspends the process until a wakeup event for it fires. It must be
// called from the process itself. It fires the due events only the kernel
// would act on in place (settle), and returns control to the kernel only if
// something else — another process, a func event, Stop or Run's bound —
// comes before the process's own wakeup.
func (p *Proc) block() {
	if !p.settle() {
		p.yield(struct{}{})
	}
	if p.killed {
		panic(killSignal{})
	}
}

// settle fires, in (at, seq) order and without a coroutine switch, the due
// wakeups of processes that mustRequeue, and reports whether it reached one
// of p's own — which it also fires: p then simply carries on.
func (p *Proc) settle() bool {
	k := p.k
	for k.due() {
		q := k.events[0].proc
		if q != p && (q == nil || !q.mustRequeue()) {
			return false
		}
		k.now = k.pop().at
		if q == p {
			return true
		}
		q.requeue()
	}
	return false
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.push(p.k.now.Add(d), p, nil)
	p.block()
}

// Yield suspends the process until all events already scheduled for the
// current instant have run.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill terminates the process the next time it would resume. A killed
// process unwinds via panic/recover, so its deferred functions run. Killing
// a finished process is a no-op. Kill must be called from the kernel
// goroutine or another process, never from the target process itself.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.k.push(p.k.now, p, nil)
}

// Cond is a condition variable for simulated processes. The zero value is
// ready to use once associated with a kernel via Wait's process argument.
type Cond struct {
	waiters []*Proc // the queue is waiters[head:]
	head    int
}

// Wait suspends p until another process calls Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.enqueue(p)
	p.block()
}

// enqueue appends p to the queue.
func (c *Cond) enqueue(p *Proc) {
	if w := c.waiters; len(w) == cap(w) && c.head*2 >= len(w) {
		// Reuse the slots Signal vacated instead of letting append grow.
		n := copy(w, w[c.head:])
		clear(w[n:])
		c.waiters, c.head = w[:n], 0
	}
	c.waiters = append(c.waiters, p)
}

// Signal wakes the earliest waiter, if any, scheduling it at the current
// instant on k.
func (c *Cond) Signal(k *Kernel) {
	if c.head == len(c.waiters) {
		return
	}
	w := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	k.push(k.now, w, nil)
}

// Broadcast wakes all waiters in FIFO order.
func (c *Cond) Broadcast(k *Kernel) {
	for _, w := range c.waiters[c.head:] {
		k.push(k.now, w, nil)
	}
	clear(c.waiters)
	c.waiters, c.head = c.waiters[:0], 0
}

// Waiting reports the number of processes blocked on c.
func (c *Cond) Waiting() int { return len(c.waiters) - c.head }

// Resource is a FIFO server with fixed capacity, used to model contended
// devices such as disks or a CPU. Acquire blocks while all slots are busy.
type Resource struct {
	inUse int
	queue Cond

	// Busy accumulates total busy time across slots, for utilisation
	// reporting.
	holds     []hold // one per slot; proc == nil when the slot is free
	busyTotal Duration
}

type hold struct {
	proc  *Proc
	since Time
}

// NewResource returns a resource with the given number of slots.
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{holds: make([]hold, capacity)}
}

// Acquire obtains a slot, blocking in FIFO order while none is free.
func (r *Resource) Acquire(p *Proc) {
	p.acquiring = r
	for r.inUse >= len(r.holds) {
		r.queue.Wait(p)
	}
	p.acquiring = nil
	r.inUse++
	for i := range r.holds {
		if r.holds[i].proc == nil {
			r.holds[i] = hold{p, p.Now()}
			break
		}
	}
}

// Release frees the slot held by p and wakes the next waiter.
func (r *Resource) Release(p *Proc) {
	for i := range r.holds {
		if r.holds[i].proc == p {
			r.busyTotal += p.Now().Sub(r.holds[i].since)
			r.holds[i] = hold{}
			break
		}
	}
	r.inUse--
	r.queue.Signal(p.k)
}

// Use acquires the resource, holds it for service virtual time, and
// releases it. It models a single FIFO-queued service demand. The release
// is deferred so that a killed process (instance crash) does not leak the
// slot and wedge the device forever.
func (r *Resource) Use(p *Proc, service Duration) {
	r.Acquire(p)
	defer r.Release(p)
	p.Sleep(service)
}

// QueueLen reports the number of blocked acquirers.
func (r *Resource) QueueLen() int { return r.queue.Waiting() }

// BusyTotal reports accumulated busy time (completed holds only).
func (r *Resource) BusyTotal() Duration { return r.busyTotal }
