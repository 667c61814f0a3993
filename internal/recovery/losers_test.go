package recovery

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/txn"
)

// compactionStream is a redo stream over the rig's acct table that
// compacts a loser table while two transactions are open across it. Rows 1
// and 2 are inserted and committed; then loser L updates row 1 and T
// updates row 2; then 1200 committed one-record transactions insert and
// delete row 3 in turn, which is more than a compaction's worth; then L
// updates row 1 a second time and T commits. It returns the stream and its
// count of data records.
func compactionStream(first redo.SCN) ([]redo.Record, int) {
	const base = redo.TxnID(1 << 40)
	recs := []redo.Record{
		{Txn: base, Op: redo.OpInsert, Table: "acct", Key: 1, After: []byte("v0")},
		{Txn: base, Op: redo.OpInsert, Table: "acct", Key: 2, After: []byte("w0")},
		{Txn: base, Op: redo.OpCommit},
		{Txn: base + 1, Op: redo.OpUpdate, Table: "acct", Key: 1, Before: []byte("v0"), After: []byte("v1")},
		{Txn: base + 2, Op: redo.OpUpdate, Table: "acct", Key: 2, Before: []byte("w0"), After: []byte("w1")},
	}
	for i := range 1200 {
		id := base + 10 + redo.TxnID(i)
		rec := redo.Record{Txn: id, Op: redo.OpInsert, Table: "acct", Key: 3, After: []byte("f")}
		if i%2 == 1 {
			rec = redo.Record{Txn: id, Op: redo.OpDelete, Table: "acct", Key: 3, Before: []byte("f")}
		}
		recs = append(recs, rec, redo.Record{Txn: id, Op: redo.OpCommit})
	}
	recs = append(recs,
		redo.Record{Txn: base + 1, Op: redo.OpUpdate, Table: "acct", Key: 1, Before: []byte("v1"), After: []byte("v2")},
		redo.Record{Txn: base + 2, Op: redo.OpCommit})
	data := 0
	for i := range recs {
		recs[i].SCN = first + redo.SCN(i)
		if recs[i].IsDataChange() {
			data++
		}
	}
	return recs, data
}

// A loser whose records straddle a compaction of the loser table is undone
// newest first — row 1 reads v0, not v1 — and a transaction whose commit
// arrives after the compaction is not undone: row 2 keeps T's w1. The
// stream runs through a failover recovery pass at one apply worker and at
// four.
func TestLoserTableCompactionKeepsUndoOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r, err := newRigParallel(false, 1<<20, 3, 128, 4, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.run(t, func(p *sim.Proc) error {
				if err := r.setup(p); err != nil {
					return err
				}
				stream, data := compactionStream(r.in.Log().NextSCN())
				// The stream does compact: routed through a table of its
				// own, fewer records remain than joined, and only the
				// loser's two are live.
				probe := NewLosers(r.in)
				for i := range stream {
					probe.route(&stream[i])
				}
				if len(probe.recs) >= data || probe.Live() != 2 {
					return fmt.Errorf("table holds %d of %d data records, %d live; want a compaction and L's 2 live",
						len(probe.recs), data, probe.Live())
				}

				r.in.Crash()
				if err := r.in.Mount(p); err != nil {
					return err
				}
				rep, err := r.rm.Failover(p, [][]redo.Record{stream}, NewLosers(r.in), stream[len(stream)-1].SCN)
				if err != nil {
					return err
				}
				if rep.LosersRolledBack != 1 {
					return fmt.Errorf("rolled back %d transactions, want 1 (L)", rep.LosersRolledBack)
				}
				for key, want := range map[int64]string{1: "v0", 2: "w1"} {
					got, err := r.get(p, key)
					if err != nil {
						return err
					}
					if got != want {
						return fmt.Errorf("row %d = %q after the failover, want %q", key, got, want)
					}
				}
				if _, err := r.get(p, 3); !errors.Is(err, txn.ErrRowNotFound) {
					return fmt.Errorf("row 3 after an even number of insert/delete pairs: %v, want not found", err)
				}
				return nil
			})
		})
	}
}

// A rollback that waits in a compensation while another rollback of the
// same transaction logs its abort logs nothing after that abort. The
// session's own rollback and PMON's both undo T, which updated row 2 and
// then deleted row 1; each parks on the read of row 1's evicted block (the
// first change undone), and while PMON's read is queued behind the
// session's, the session undoes row 2 and logs the abort, and 1100
// committed records of other transactions (appended straight to the log)
// push the loser table past a compaction, which forgets T's abort. A
// compensation PMON logged for row 1 now would join as a live loser, and
// instance recovery would undo it, deleting the row T's rollback restored.
func TestNoCompensationFollowsAnAbortAcrossACompaction(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r, err := newRigParallel(false, 1<<20, 3, 128, 4, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.run(t, func(p *sim.Proc) error {
				if err := r.setup(p); err != nil {
					return err
				}
				for key, val := range map[int64]string{1: "one", 2: "two"} {
					if err := r.put(p, key, val); err != nil {
						return err
					}
				}
				tx, err := r.in.Begin()
				if err != nil {
					return err
				}
				if err := r.in.Update(p, tx, "acct", 2, []byte("T")); err != nil {
					return err
				}
				if err := r.in.Delete(p, tx, "acct", 1); err != nil {
					return err
				}
				tbl, err := r.in.Catalog().Table("acct")
				if err != nil {
					return err
				}
				row1 := []storage.BlockRef{tbl.BlockFor(1)}
				if err := r.in.Cache().FlushBlocksForce(p, row1); err != nil {
					return err
				}
				r.in.Cache().InvalidateBlocks(row1)

				var sessionErr error
				sessionDone, filled := false, false
				r.k.Go("session", func(p *sim.Proc) {
					sessionErr = r.in.Rollback(p, tx)
					sessionDone = true
				})
				r.k.Go("filler", func(p *sim.Proc) {
					for tx.State() == txn.StateActive {
						p.Sleep(10 * time.Microsecond)
					}
					const base = redo.TxnID(1 << 40)
					for i := range 1100 {
						id := base + redo.TxnID(i)
						rec := redo.Record{Txn: id, Op: redo.OpInsert, Table: "acct", Key: 3, After: []byte("f")}
						if i%2 == 1 {
							rec = redo.Record{Txn: id, Op: redo.OpDelete, Table: "acct", Key: 3, Before: []byte("f")}
						}
						r.in.Log().Append(rec)
						r.in.Log().Append(redo.Record{Txn: id, Op: redo.OpCommit})
					}
					filled = true
				})
				p.Sleep(time.Microsecond)
				if err := r.in.Txns().KillOldestActive(); err != nil {
					return err
				}
				if tx.State() != txn.StateActive || sessionDone {
					return fmt.Errorf("T is %v before PMON starts; the race is not staged", tx.State())
				}
				r.in.Txns().RollbackZombies(p)
				if !sessionDone || sessionErr != nil || !filled {
					return fmt.Errorf("session rollback done=%v err=%v, filler done=%v when PMON returns; want the session first, then the filler",
						sessionDone, sessionErr, filled)
				}
				if err := r.put(p, 4, "durable"); err != nil {
					return err
				}

				r.in.Crash()
				rep, err := r.rm.InstanceRecovery(p)
				if err != nil {
					return err
				}
				if rep.LosersRolledBack != 0 {
					return fmt.Errorf("rolled back %d transactions, want 0", rep.LosersRolledBack)
				}
				for key, want := range map[int64]string{1: "one", 2: "two", 4: "durable"} {
					got, err := r.get(p, key)
					if err != nil {
						return fmt.Errorf("row %d: %w", key, err)
					}
					if got != want {
						return fmt.Errorf("row %d = %q after instance recovery, want %q", key, got, want)
					}
				}
				return nil
			})
		})
	}
}
