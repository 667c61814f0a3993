// Package txn implements transactions: row-level two-phase locking, undo
// tracking for rollback, and the data access path that funnels every
// change through the redo log and the buffer cache (write-ahead logging).
package txn

import (
	"errors"
	"time"

	"dbench/internal/sim"
)

// ErrLockTimeout reports that a lock wait exceeded the configured timeout;
// callers abort and retry the transaction (this also resolves deadlocks).
var ErrLockTimeout = errors.New("txn: lock wait timeout")

// lockKey identifies one row lock.
type lockKey struct {
	table string
	key   int64
}

// heldLock records a granted lock together with the stripe it was granted
// in. The stripe is captured at acquire time: DDL can drop a table while a
// transaction still holds locks on it, and recomputing the stripe at
// release (via the then-missing catalog entry) would hand the release to
// the wrong stripe and leak the lock.
type heldLock struct {
	lk     lockKey
	stripe int
}

type lockWaiter struct {
	txn      *Txn
	proc     *sim.Proc
	granted  bool
	timeout  bool
	wakeCond *sim.Cond
}

// lockState is held by value in its stripe's map: granting and releasing an
// uncontended lock allocates nothing, and waiters exists only while
// somebody waits. Every change is stored back with put.
type lockState struct {
	holder  *Txn
	waiters []*lockWaiter
}

// lockStripe is one independently managed slice of the lock namespace.
type lockStripe struct {
	locks map[lockKey]lockState
}

// put stores the state of lk, or forgets the lock once it is free.
func (s *lockStripe) put(lk lockKey, st lockState) {
	if st.holder == nil && len(st.waiters) == 0 {
		delete(s.locks, lk)
		return
	}
	s.locks[lk] = st
}

// lockTable grants exclusive row locks in FIFO order with a wait timeout.
// The lock namespace is striped — by warehouse when the caller wires a
// partition-aware stripeOf — so hot tables at high warehouse counts do not
// funnel every grant and release through one map.
type lockTable struct {
	k       *sim.Kernel
	timeout time.Duration
	stripes []*lockStripe

	// stripeOf maps a row to its stripe; when nil everything lands in
	// stripe 0. The Manager wires it to the catalog's partition routing
	// so stripes align with warehouse partitions.
	stripeOf func(table string, key int64) int

	waits    int64
	timeouts int64
}

func newLockTable(k *sim.Kernel, timeout time.Duration, stripes int) *lockTable {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if stripes < 1 {
		stripes = 1
	}
	lt := &lockTable{k: k, timeout: timeout}
	for i := 0; i < stripes; i++ {
		lt.stripes = append(lt.stripes, &lockStripe{locks: make(map[lockKey]lockState)})
	}
	return lt
}

// stripeFor returns the stripe index serving (table, key).
func (lt *lockTable) stripeFor(table string, key int64) int {
	if lt.stripeOf == nil || len(lt.stripes) == 1 {
		return 0
	}
	s := lt.stripeOf(table, key)
	if s < 0 {
		s = 0
	}
	return s % len(lt.stripes)
}

// acquire obtains the exclusive lock on (table, key) for t, blocking p
// until granted or timed out. Re-acquiring a held lock is a no-op.
func (lt *lockTable) acquire(p *sim.Proc, t *Txn, table string, key int64) error {
	lk := lockKey{table: table, key: key}
	sn := lt.stripeFor(table, key)
	stripe := lt.stripes[sn]
	st := stripe.locks[lk]
	if st.holder == t {
		return nil
	}
	if st.holder == nil && len(st.waiters) == 0 {
		stripe.locks[lk] = lockState{holder: t}
		t.locks = append(t.locks, heldLock{lk: lk, stripe: sn})
		return nil
	}
	w := &lockWaiter{txn: t, proc: p}
	st.waiters = append(st.waiters, w)
	stripe.locks[lk] = st
	lt.waits++
	lt.k.After(lt.timeout, func() {
		if w.granted || w.timeout {
			return
		}
		w.timeout = true
		lt.k.After(0, w.wake)
	})
	for !w.granted && !w.timeout {
		w.block()
	}
	st = stripe.locks[lk] // the lock moved on while we were parked
	if w.timeout {
		lt.timeouts++
		// Remove ourselves from the queue (a release that came first has
		// already dropped us).
		for i, q := range st.waiters {
			if q == w {
				st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
				stripe.put(lk, st)
				break
			}
		}
		return ErrLockTimeout
	}
	if t.state != StateActive {
		// The transaction was abandoned (instance crash) while we were
		// waiting; pass the lock on and fail the operation.
		stripe.put(lk, lt.grantNext(st))
		return ErrTxnDone
	}
	t.locks = append(t.locks, heldLock{lk: lk, stripe: sn})
	return nil
}

// grantNext takes the lock from its holder and hands it to the next live
// waiter, if there is one; it returns the state to store.
func (lt *lockTable) grantNext(st lockState) lockState {
	st.holder = nil
	for len(st.waiters) > 0 {
		w := st.waiters[0]
		st.waiters = st.waiters[1:]
		if w.timeout {
			continue
		}
		st.holder = w.txn
		w.granted = true
		lt.k.After(0, w.wake)
		break
	}
	return st
}

// block/wake adapt a waiter to the kernel's handoff protocol via a private
// condition: the waiter parks on its own proc.
func (w *lockWaiter) block() {
	var c sim.Cond
	w.wakeCond = &c
	c.Wait(w.proc)
}

func (w *lockWaiter) wake() {
	if w.wakeCond != nil {
		w.wakeCond.Broadcast(w.proc.Kernel())
		w.wakeCond = nil
	}
}

// releaseAll frees every lock held by t, handing each to its next waiter.
// Each release goes to the stripe recorded at acquire time.
func (lt *lockTable) releaseAll(t *Txn) {
	for _, hl := range t.locks {
		stripe := lt.stripes[hl.stripe]
		st, ok := stripe.locks[hl.lk]
		if !ok || st.holder != t {
			continue
		}
		stripe.put(hl.lk, lt.grantNext(st))
	}
	t.locks = nil
}

// held reports whether t holds the lock (used by tests).
func (lt *lockTable) held(t *Txn, table string, key int64) bool {
	stripe := lt.stripes[lt.stripeFor(table, key)]
	st, ok := stripe.locks[lockKey{table: table, key: key}]
	return ok && st.holder == t
}
