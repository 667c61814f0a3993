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

type lockWaiter struct {
	txn     *Txn
	granted bool
	timeout bool
	timer   sim.Timer // the wait's timeout, stopped by the grant
	cond    sim.Cond  // the waiter parks on its own condition
	// wake broadcasts cond; bound once, the timeout and the grant both
	// schedule it.
	wake func()
}

// lockState is held by value in the table's map: granting and releasing an
// uncontended lock allocates nothing, and waiters exists only while
// somebody waits. Every change is stored back with put.
type lockState struct {
	holder  *Txn
	waiters []*lockWaiter
}

// lockTable grants exclusive row locks in FIFO order with a wait timeout.
// It is one map: the kernel runs one process at a time, so splitting it
// would change no grant and only add a routing step to every acquire.
type lockTable struct {
	k       *sim.Kernel
	timeout time.Duration
	locks   map[lockKey]lockState

	waits    int64
	timeouts int64
}

func newLockTable(k *sim.Kernel, timeout time.Duration) *lockTable {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &lockTable{k: k, timeout: timeout, locks: make(map[lockKey]lockState)}
}

// put stores the state of lk, or forgets the lock once it is free.
func (lt *lockTable) put(lk lockKey, st lockState) {
	if st.holder == nil && len(st.waiters) == 0 {
		delete(lt.locks, lk)
		return
	}
	lt.locks[lk] = st
}

// acquire obtains the exclusive lock on (table, key) for t, blocking p
// until granted or timed out. Re-acquiring a held lock is a no-op.
func (lt *lockTable) acquire(p *sim.Proc, t *Txn, table string, key int64) error {
	lk := lockKey{table: table, key: key}
	st := lt.locks[lk]
	if st.holder == t {
		return nil
	}
	if st.holder == nil && len(st.waiters) == 0 {
		lt.locks[lk] = lockState{holder: t}
		t.locks = append(t.locks, lk)
		return nil
	}
	w := &lockWaiter{txn: t}
	w.wake = func() { w.cond.Broadcast(lt.k) }
	w.timer = lt.k.AfterFunc(lt.timeout, func() {
		w.timeout = true
		lt.k.After(0, w.wake)
	})
	st.waiters = append(st.waiters, w)
	lt.locks[lk] = st
	lt.waits++
	for !w.granted && !w.timeout {
		w.cond.Wait(p)
	}
	st = lt.locks[lk] // the lock moved on while we were parked
	if w.timeout {
		lt.timeouts++
		// Remove ourselves from the queue (a release that came first has
		// already dropped us).
		for i, q := range st.waiters {
			if q == w {
				st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
				lt.put(lk, st)
				break
			}
		}
		return ErrLockTimeout
	}
	if t.state != StateActive {
		// The transaction was abandoned (instance crash) while we were
		// waiting; pass the lock on and fail the operation.
		lt.put(lk, lt.grantNext(st))
		return ErrTxnDone
	}
	t.locks = append(t.locks, lk)
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
		w.timer.Stop()
		lt.k.After(0, w.wake)
		break
	}
	return st
}

// releaseAll frees every lock held by t, handing each to its next waiter.
func (lt *lockTable) releaseAll(t *Txn) {
	for _, lk := range t.locks {
		st, ok := lt.locks[lk]
		if !ok || st.holder != t {
			continue
		}
		lt.put(lk, lt.grantNext(st))
	}
	t.locks = nil
}

// held reports whether t holds the lock (used by tests).
func (lt *lockTable) held(t *Txn, table string, key int64) bool {
	st, ok := lt.locks[lockKey{table: table, key: key}]
	return ok && st.holder == t
}
