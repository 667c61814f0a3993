package txn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
)

// recordsOf returns one transaction's flushed redo from SCN from on, in SCN
// order.
func (f *fixture) recordsOf(p *sim.Proc, id redo.TxnID, from redo.SCN) ([]redo.Record, error) {
	if err := f.log.WaitFlushed(p, f.log.NextSCN()-1); err != nil {
		return nil, err
	}
	all, ok := f.log.OnlineRecords(from)
	if !ok {
		return nil, fmt.Errorf("the redo from SCN %d is no longer online", from)
	}
	var recs []redo.Record
	for _, r := range all {
		if r.Txn == id {
			recs = append(recs, r)
		}
	}
	return recs, nil
}

// seeded commits row 1 = "old", then begins the transaction under test and
// updates the row to "new".
func (f *fixture) seeded(p *sim.Proc) (*Txn, error) {
	seed := f.m.Begin()
	if err := f.m.Insert(p, seed, "acct", 1, []byte("old")); err != nil {
		return nil, err
	}
	if err := f.m.Commit(p, seed); err != nil {
		return nil, err
	}
	tx := f.m.Begin()
	return tx, f.m.Update(p, tx, "acct", 1, []byte("new"))
}

// await sleeps in steps of a virtual millisecond until done reports true,
// for at most a virtual second, and reports whether it did.
func await(p *sim.Proc, done func() bool) bool {
	for i := 0; i < 1000 && !done(); i++ {
		p.Sleep(time.Millisecond)
	}
	return done()
}

// A commit stalled on the log when a shutdown's rollback of its transaction
// begins must not append its COMMIT: the rollback has the transaction, and
// the client sees ErrTxnDone.
func TestNoCommitFollowsTheStartOfARollback(t *testing.T) {
	f, err := makeFixtureLog(redo.Config{GroupSizeBytes: 64 << 10, Groups: 2, Disk: "redo"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx, err := f.seeded(p)
		if err != nil {
			t.Error(err)
			return
		}
		// Leave the first group un-checkpointed and fill the second but for
		// 128 bytes: the next reservation stalls on "checkpoint not complete".
		f.log.OnSwitch = nil
		if err := f.log.WaitFlushed(p, f.log.NextSCN()-1); err != nil {
			t.Error(err)
			return
		}
		if _, err := f.log.ForceSwitch(p); err != nil {
			t.Error(err)
			return
		}
		fill := redo.Record{Op: redo.OpDDL, Meta: "fill"}
		fill.Before = make([]byte, f.log.CurrentGroup().Capacity()-128-fill.Size())
		fillSCN := f.log.Append(fill)

		var commitErr, rollbackErr error
		committed, rolledBack := false, false
		f.k.Go("client", func(q *sim.Proc) { commitErr, committed = f.m.Commit(q, tx), true })
		p.Yield()
		f.k.Go("shutdown", func(q *sim.Proc) { rollbackErr, rolledBack = f.m.RollbackAllActive(q), true })
		p.Yield()
		if committed || rolledBack {
			t.Errorf("the commit (%v) or the rollback (%v) did not stall on the log", commitErr, rollbackErr)
			return
		}
		f.log.CheckpointCompleted(f.log.NextSCN())
		if !await(p, func() bool { return committed && rolledBack }) {
			t.Errorf("a second later: commit returned %v, rollback returned %v", committed, rolledBack)
			return
		}
		if !errors.Is(commitErr, ErrTxnDone) || rollbackErr != nil {
			t.Errorf("commit: %v, rollback: %v; want ErrTxnDone and nil", commitErr, rollbackErr)
		}
		if tx.State() != StateAborted {
			t.Errorf("transaction %v, want aborted", tx.State())
		}
		recs, err := f.recordsOf(p, tx.ID, fillSCN)
		if err != nil {
			t.Error(err)
			return
		}
		for _, r := range recs {
			if r.Op == redo.OpCommit {
				t.Errorf("COMMIT logged at SCN %d after the rollback began", r.SCN)
			}
		}
		check := f.m.Begin()
		if v, err := f.m.Read(p, check, "acct", 1); err != nil || string(v) != "old" {
			t.Errorf("row after the rollback: %q, %v", v, err)
		}
	})
}

// A shutdown that finds a transaction waiting for its COMMIT record's flush
// waits for the commit instead of compensating a committed change.
func TestNoCompensationFollowsACommitRecord(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx, err := f.seeded(p)
		if err != nil {
			t.Error(err)
			return
		}
		var commitErr, rollbackErr error
		committed, rolledBack := false, false
		f.k.Go("client", func(q *sim.Proc) { commitErr, committed = f.m.Commit(q, tx), true })
		p.Yield()
		f.k.Go("shutdown", func(q *sim.Proc) { rollbackErr, rolledBack = f.m.RollbackAllActive(q), true })
		if !await(p, func() bool { return committed && rolledBack }) {
			t.Errorf("a second later: commit returned %v, rollback returned %v", committed, rolledBack)
			return
		}
		if commitErr != nil || rollbackErr != nil {
			t.Errorf("commit: %v, rollback: %v; want both nil", commitErr, rollbackErr)
		}
		if tx.State() != StateCommitted || f.m.ActiveCount() != 0 {
			t.Errorf("transaction %v with %d active, want committed and none", tx.State(), f.m.ActiveCount())
		}
		f.lastRecordIsCommit(p, t, tx)
		check := f.m.Begin()
		if v, err := f.m.Read(p, check, "acct", 1); err != nil || string(v) != "new" {
			t.Errorf("row after the commit: %q, %v", v, err)
		}
	})
}

// A session killed while its COMMIT record waits for the flush has
// committed: PMON's sweep leaves the transaction to finish.
func TestPMONLeavesAKilledSessionsCommitAlone(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx, err := f.seeded(p)
		if err != nil {
			t.Error(err)
			return
		}
		var commitErr error
		committed := false
		f.k.Go("client", func(q *sim.Proc) { commitErr, committed = f.m.Commit(q, tx), true })
		p.Yield()
		if err := f.m.KillOldestActive(); err != nil {
			t.Error(err)
			return
		}
		if n := f.m.RollbackZombies(p); n != 0 {
			t.Errorf("PMON rolled back %d transactions, want none", n)
		}
		if !await(p, func() bool { return committed }) || commitErr != nil || tx.State() != StateCommitted {
			t.Errorf("commit: returned %v with %v, transaction %v; want nil and committed", committed, commitErr, tx.State())
		}
		f.lastRecordIsCommit(p, t, tx)
	})
}

// lastRecordIsCommit checks that nothing of tx's follows its COMMIT record.
func (f *fixture) lastRecordIsCommit(p *sim.Proc, t *testing.T, tx *Txn) {
	recs, err := f.recordsOf(p, tx.ID, 0)
	if err != nil || len(recs) == 0 {
		t.Errorf("transaction's redo: %d records, %v", len(recs), err)
		return
	}
	if last := recs[len(recs)-1]; last.Op != redo.OpCommit {
		t.Errorf("transaction's last record is %v at SCN %d, want its COMMIT", last.Op, last.SCN)
	}
}
