package txn

import (
	"errors"
	"testing"
	"time"

	"dbench/internal/sim"
)

// A finished transaction's undo and lock lists go back to the manager,
// emptied — no before-image or lock key stays reachable through them — and
// the next Begin hands them out again instead of allocating two new ones; the
// finished Txn keeps neither. An abandoned (crashed) transaction returns
// nothing.
func TestBeginReusesFinishedTransactionsLists(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		seed := f.m.Begin()
		for k := int64(1); k <= 3; k++ {
			_ = f.m.Insert(p, seed, "acct", k, []byte("v"))
		}
		_ = f.m.Commit(p, seed)

		tx := f.m.Begin()
		for k := int64(1); k <= 3; k++ {
			if err := f.m.Update(p, tx, "acct", k, []byte("w")); err != nil {
				t.Error(err)
				return
			}
		}
		undo, locks := tx.undo, tx.locks
		if err := f.m.Rollback(p, tx); err != nil {
			t.Error(err)
			return
		}
		if tx.undo != nil || tx.locks != nil {
			t.Errorf("the finished transaction still holds its lists (%d undo records, %d locks)", len(tx.undo), len(tx.locks))
		}
		for i := range undo {
			if undo[i].Before != nil || undo[i].Table != "" || locks[i].table != "" {
				t.Errorf("entry %d of the retired lists was not emptied: %+v, %+v", i, undo[i], locks[i])
			}
		}

		next := f.m.Begin()
		if len(next.undo) != 0 || len(next.locks) != 0 || cap(next.undo) < 3 ||
			&next.undo[:1][0] != &undo[0] || &next.locks[:1][0] != &locks[0] {
			t.Errorf("Begin did not hand out the retired lists, empty")
		}
		other := f.m.Begin() // runs at the same time: lists of its own
		if cap(other.undo) == 0 || &other.undo[:1][0] == &undo[0] {
			t.Errorf("two running transactions share one undo list")
		}
		_ = f.m.Commit(p, other)
		_ = f.m.Insert(p, next, "acct", 9, []byte("v"))
		f.m.AbandonAll()
		if len(f.m.spare) != 1 {
			t.Errorf("%d spare lists after one commit and one abandoned transaction, want 1", len(f.m.spare))
		}

		// In steady state a transaction costs the Txn and nothing else.
		if got := testing.AllocsPerRun(100, func() { _ = f.m.Commit(p, f.m.Begin()) }); got != 1 {
			t.Errorf("Begin + read-only Commit allocate %v objects, want 1", got)
		}
	})
}

// PMON rolls a killed session's transaction back while the session may be
// rolling it back itself. Whoever finishes first retires the undo list; the
// other must notice when it comes back from a compensation, not index a list
// that is gone (or, worse, has been handed to the next transaction).
func TestSecondRollbackStopsWhenTheFirstHasRetiredTheList(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	// A CPU to queue for makes every compensation yield.
	m := NewManager(f.k, f.log, f.c, f.cat, sim.NewResource(1), Config{LockTimeout: 2 * time.Second, CPUPerOp: time.Millisecond})
	f.run(func(p *sim.Proc) {
		seed := m.Begin()
		for k := int64(1); k <= 3; k++ {
			_ = m.Insert(p, seed, "acct", k, []byte("old"))
		}
		_ = m.Commit(p, seed)
		tx := m.Begin()
		for k := int64(1); k <= 3; k++ {
			_ = m.Update(p, tx, "acct", k, []byte("new"))
		}
		pmonErr, pmonDone := error(nil), false
		f.k.Go("PMON", func(q *sim.Proc) { pmonErr, pmonDone = m.Rollback(q, tx), true })
		err := m.Rollback(p, tx)
		for i := 0; i < 100 && !pmonDone; i++ {
			p.Sleep(time.Millisecond)
		}
		if (err == nil) == (pmonErr == nil) {
			t.Errorf("session's rollback: %v, PMON's: %v; want exactly one to finish it", err, pmonErr)
		}
		if loser := errors.Join(err, pmonErr); !errors.Is(loser, ErrTxnDone) {
			t.Errorf("the rollback that lost reports %v, want ErrTxnDone", loser)
		}
		check := m.Begin()
		for k := int64(1); k <= 3; k++ {
			if v, err := m.Read(p, check, "acct", k); err != nil || string(v) != "old" {
				t.Errorf("row %d after the rollbacks: %q, %v", k, v, err)
			}
		}
		_ = m.Commit(p, check)
	})
}
