package txn

import (
	"errors"
	"testing"
	"time"

	"dbench/internal/sim"
)

// An uncontended grant and its release touch the table's map and the
// transaction's lock list, and allocate nothing: the lock state is a map
// value, and a waiter queue exists only while somebody waits.
func TestUncontendedLockGrantAllocatesNothing(t *testing.T) {
	lt := newLockTable(sim.NewKernel(1), time.Second)
	tx := &Txn{state: StateActive}
	room := make([]lockKey, 0, 16)
	got := testing.AllocsPerRun(100, func() {
		tx.locks = room
		for key := int64(0); key < 16; key++ {
			if err := lt.acquire(nil, tx, "stock", key); err != nil {
				t.Fatal(err)
			}
		}
		if !lt.held(tx, "stock", 7) {
			t.Fatal("granted lock is not held")
		}
		lt.releaseAll(tx)
	})
	if got != 0 {
		t.Fatalf("16 uncontended grants and releases allocate %v times, want 0", got)
	}
	if n := len(lt.locks); n != 0 {
		t.Fatalf("%d released locks still in the table", n)
	}
}

// A wait for a held lock that ends in a grant allocates the waiter, its
// timeout call, its wake call, the row's waiter queue and the waiter's
// place on its own condition: five objects, where it was six with a
// condition of its own allocated per wait and a wake call per schedule.
func TestContendedLockWaitAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	lt := newLockTable(k, time.Second)
	holder, waiter := &Txn{state: StateActive}, &Txn{state: StateActive}
	holderRoom, waiterRoom := make([]lockKey, 0, 1), make([]lockKey, 0, 1)
	var start sim.Cond
	k.Go("waiter", func(p *sim.Proc) {
		for {
			start.Wait(p)
			waiter.locks = waiterRoom
			if err := lt.acquire(p, waiter, "stock", 7); err != nil {
				t.Error(err)
			}
			lt.releaseAll(waiter)
		}
	})
	k.RunAll()
	got := testing.AllocsPerRun(100, func() {
		holder.locks = holderRoom
		if err := lt.acquire(nil, holder, "stock", 7); err != nil {
			t.Fatal(err)
		}
		start.Signal(k)
		k.Run(k.Now()) // the waiter queues behind the holder
		lt.releaseAll(holder)
		k.Run(k.Now()) // and takes the lock, gives it back and waits for the next round
	})
	if lt.waits < 100 || lt.timeouts != 0 || len(lt.locks) != 0 {
		t.Fatalf("%d waits, %d timeouts, %d locks left in the table; want a wait per round, no timeout and no lock left", lt.waits, lt.timeouts, len(lt.locks))
	}
	if got != 5 {
		t.Fatalf("a contended lock wait allocates %v objects, want 5", got)
	}
}

// A wait that ends in a grant takes its timeout out of the event queue: the
// waiter, once it holds the lock, finds nothing queued, and the kernel runs
// out of events when the release is done, not when the timeout would have
// come due.
func TestGrantedWaitLeavesNoTimeoutQueued(t *testing.T) {
	k := sim.NewKernel(1)
	lt := newLockTable(k, 10*time.Second)
	holder, waiter := &Txn{state: StateActive}, &Txn{state: StateActive}
	if err := lt.acquire(nil, holder, "stock", 7); err != nil {
		t.Fatal(err)
	}
	pending := -1
	k.Go("waiter", func(p *sim.Proc) {
		if err := lt.acquire(p, waiter, "stock", 7); err != nil {
			t.Error(err)
		}
		pending = k.Pending()
	})
	k.Schedule(sim.Time(time.Second), func() { lt.releaseAll(holder) })
	if end := k.RunAll(); pending != 0 || end != sim.Time(time.Second) || !lt.held(waiter, "stock", 7) {
		t.Fatalf("granted waiter saw %d events queued, the kernel ran to %v; want 0, and 1s", pending, end)
	}
}

// Waiters are served first come, first served; one that times out in the
// middle of the queue drops out without disturbing the order behind it;
// and a lock nobody holds or waits for leaves nothing in the table.
func TestLockQueueIsFIFOAcrossATimeout(t *testing.T) {
	f := newFixture(t) // LockTimeout 2 s
	defer f.shutdown()
	var events []string
	contender := func(name string, arrive, hold time.Duration) {
		f.k.Go(name, func(p *sim.Proc) {
			p.Sleep(arrive)
			tx := f.m.Begin()
			if _, err := f.m.ReadForUpdate(p, tx, "acct", 1); errors.Is(err, ErrLockTimeout) {
				events = append(events, name+" timed out")
				_ = f.m.Rollback(p, tx)
				return
			}
			events = append(events, name+" locked")
			p.Sleep(hold)
			_ = f.m.Commit(p, tx)
		})
	}
	f.k.Go("holder", func(p *sim.Proc) {
		tx := f.m.Begin()
		_ = f.m.Insert(p, tx, "acct", 1, []byte("row"))
		events = append(events, "holder locked")
		p.Sleep(1500 * time.Millisecond)
		_ = f.m.Commit(p, tx)
	})
	contender("w1", 100*time.Millisecond, 750*time.Millisecond) // granted at 1.5 s, holds to 2.25 s
	contender("w2", 200*time.Millisecond, 0)                    // gives up at 2.2 s, mid-queue
	contender("w3", 300*time.Millisecond, 0)                    // granted at 2.25 s, before its 2.3 s limit
	f.k.Run(sim.Time(time.Hour))
	want := []string{"holder locked", "w1 locked", "w2 timed out", "w3 locked"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	if s := f.m.Stats(); s.LockWaits != 3 || s.LockTimeouts != 1 {
		t.Fatalf("lock waits %d, timeouts %d, want 3 and 1", s.LockWaits, s.LockTimeouts)
	}
	if n := len(f.m.locks.locks); n != 0 {
		t.Fatalf("the lock table still holds %d entries after everyone finished", n)
	}
}
