package txn

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dbench/internal/bufcache"
	"dbench/internal/catalog"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
)

type fixture struct {
	k   *sim.Kernel
	fs  *simdisk.FS
	db  *storage.DB
	cat *catalog.Catalog
	log *redo.Manager
	c   *bufcache.Cache
	m   *Manager
}

func makeFixture() (*fixture, error) {
	return makeFixtureLog(redo.Config{GroupSizeBytes: 4 << 20, Groups: 3, Disk: "redo"})
}

// makeFixtureLog is makeFixture over a log of the given geometry.
func makeFixtureLog(logCfg redo.Config) (*fixture, error) {
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("data"), simdisk.DefaultSpec("redo"))
	db, err := storage.NewDB(fs, "data")
	if err != nil {
		return nil, err
	}
	ts, err := db.CreateTablespace("USERS", []string{"data"}, 32)
	if err != nil {
		return nil, err
	}
	cat := catalog.New()
	if _, err := cat.CreateTableClustered("acct", "bank", ts, 8, 1); err != nil {
		return nil, err
	}
	log, err := redo.NewManager(k, fs, logCfg)
	if err != nil {
		return nil, err
	}
	log.OnSwitch = func(p *sim.Proc, old *redo.Group) { log.CheckpointCompleted(old.LastSCN()) }
	log.Start()
	cache := bufcache.New(k, 64)
	m := NewManager(k, log, cache, cat, nil, Config{LockTimeout: 2 * time.Second})
	return &fixture{k: k, fs: fs, db: db, cat: cat, log: log, c: cache, m: m}, nil
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f, err := makeFixture()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) run(fn func(p *sim.Proc)) {
	f.k.Go("t", fn)
	f.k.Run(sim.Time(time.Hour))
}

func (f *fixture) shutdown() {
	f.log.Stop()
	f.k.RunAll()
}

func TestInsertCommitRead(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		if err := f.m.Insert(p, tx, "acct", 1, []byte("100")); err != nil {
			t.Error(err)
			return
		}
		if err := f.m.Commit(p, tx); err != nil {
			t.Error(err)
			return
		}
		if tx.State() != StateCommitted || tx.CommitSCN == 0 {
			t.Errorf("state=%v commitSCN=%d", tx.State(), tx.CommitSCN)
		}
		tx2 := f.m.Begin()
		v, err := f.m.Read(p, tx2, "acct", 1)
		if err != nil {
			t.Error(err)
			return
		}
		if string(v) != "100" {
			t.Errorf("read %q", v)
		}
		_ = f.m.Commit(p, tx2)
	})
}

func TestInsertDuplicateFails(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		_ = f.m.Insert(p, tx, "acct", 1, []byte("a"))
		if err := f.m.Insert(p, tx, "acct", 1, []byte("b")); !errors.Is(err, ErrRowExists) {
			t.Errorf("err = %v, want ErrRowExists", err)
		}
		if err := f.m.Update(p, tx, "acct", 99, []byte("x")); !errors.Is(err, ErrRowNotFound) {
			t.Errorf("update missing err = %v", err)
		}
		if err := f.m.Delete(p, tx, "acct", 99); !errors.Is(err, ErrRowNotFound) {
			t.Errorf("delete missing err = %v", err)
		}
		_ = f.m.Commit(p, tx)
	})
}

func TestRollbackRestoresAllChanges(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		setup := f.m.Begin()
		_ = f.m.Insert(p, setup, "acct", 1, []byte("orig"))
		_ = f.m.Insert(p, setup, "acct", 2, []byte("victim"))
		_ = f.m.Commit(p, setup)

		tx := f.m.Begin()
		_ = f.m.Update(p, tx, "acct", 1, []byte("changed"))
		_ = f.m.Delete(p, tx, "acct", 2)
		_ = f.m.Insert(p, tx, "acct", 3, []byte("new"))
		if err := f.m.Rollback(p, tx); err != nil {
			t.Error(err)
			return
		}
		check := f.m.Begin()
		if v, _ := f.m.Read(p, check, "acct", 1); string(v) != "orig" {
			t.Errorf("key1 = %q", v)
		}
		if v, _ := f.m.Read(p, check, "acct", 2); string(v) != "victim" {
			t.Errorf("key2 = %q", v)
		}
		if _, err := f.m.Read(p, check, "acct", 3); !errors.Is(err, ErrRowNotFound) {
			t.Errorf("key3 err = %v, want not found", err)
		}
		_ = f.m.Commit(p, check)
	})
	if f.m.Stats().Aborted != 1 {
		t.Fatalf("aborted = %d", f.m.Stats().Aborted)
	}
}

// A rollback logs one compensation record (CLR) per change, newest first:
// the inverse of the change, whose before-image is what the row holds when
// it is compensated. The rows end as they were before the transaction.
func TestRollbackLogsTheInverseOfEachChange(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		setup := f.m.Begin()
		_ = f.m.Insert(p, setup, "acct", 2, []byte("b0"))
		_ = f.m.Insert(p, setup, "acct", 3, []byte("c0"))
		_ = f.m.Commit(p, setup)

		tx := f.m.Begin()
		for _, err := range []error{
			f.m.Insert(p, tx, "acct", 1, []byte("a1")),
			f.m.Update(p, tx, "acct", 1, []byte("a2")),
			f.m.Update(p, tx, "acct", 1, []byte("a3")),
			f.m.Update(p, tx, "acct", 2, []byte("b1")),
			f.m.Delete(p, tx, "acct", 3),
		} {
			if err != nil {
				t.Error(err)
				return
			}
		}
		if err := f.m.Rollback(p, tx); err != nil {
			t.Error(err)
			return
		}
		if err := f.log.WaitFlushed(p, f.log.NextSCN()-1); err != nil {
			t.Error(err)
			return
		}
		recs, _ := f.log.OnlineRecords(0)
		var clrs []redo.Record
		var last redo.Op
		for _, r := range recs {
			if r.Txn != tx.ID {
				continue
			}
			last = r.Op
			if r.Meta == "clr" {
				clrs = append(clrs, r)
			}
		}
		want := []redo.Record{
			{Op: redo.OpInsert, Key: 3, After: []byte("c0")},
			{Op: redo.OpUpdate, Key: 2, Before: []byte("b1"), After: []byte("b0")},
			{Op: redo.OpUpdate, Key: 1, Before: []byte("a3"), After: []byte("a2")},
			{Op: redo.OpUpdate, Key: 1, Before: []byte("a2"), After: []byte("a1")},
			{Op: redo.OpDelete, Key: 1, Before: []byte("a1")},
		}
		if len(clrs) != len(want) {
			t.Errorf("%d CLRs logged, want %d: %+v", len(clrs), len(want), clrs)
			return
		}
		for i, w := range want {
			g := clrs[i]
			if g.Op != w.Op || g.Table != "acct" || g.Key != w.Key || g.Meta != "clr" ||
				!bytes.Equal(g.Before, w.Before) || !bytes.Equal(g.After, w.After) {
				t.Errorf("CLR %d = %v acct[%d] %q -> %q (%s), want %v acct[%d] %q -> %q (clr)",
					i, g.Op, g.Key, g.Before, g.After, g.Meta, w.Op, w.Key, w.Before, w.After)
			}
		}
		if last != redo.OpAbort {
			t.Errorf("the transaction's last record is %v, want abort", last)
		}
		check := f.m.Begin()
		if _, err := f.m.Read(p, check, "acct", 1); !errors.Is(err, ErrRowNotFound) {
			t.Errorf("key1 err = %v, want not found", err)
		}
		if v, _ := f.m.Read(p, check, "acct", 2); string(v) != "b0" {
			t.Errorf("key2 = %q, want b0", v)
		}
		if v, _ := f.m.Read(p, check, "acct", 3); string(v) != "c0" {
			t.Errorf("key3 = %q, want c0", v)
		}
		_ = f.m.Commit(p, check)
	})
}

func TestLockBlocksSecondWriter(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	var order []string
	f.k.Go("t1", func(p *sim.Proc) {
		tx := f.m.Begin()
		_ = f.m.Insert(p, tx, "acct", 1, []byte("t1"))
		p.Sleep(500 * time.Millisecond) // hold the lock a while
		order = append(order, "t1-commit")
		_ = f.m.Commit(p, tx)
	})
	f.k.Go("t2", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // ensure t1 got the lock
		tx := f.m.Begin()
		if _, err := f.m.ReadForUpdate(p, tx, "acct", 1); err != nil {
			// value exists by the time we acquire the lock
			t.Errorf("ReadForUpdate: %v", err)
		}
		order = append(order, "t2-locked")
		_ = f.m.Commit(p, tx)
	})
	f.k.Run(sim.Time(time.Hour))
	if len(order) != 2 || order[0] != "t1-commit" || order[1] != "t2-locked" {
		t.Fatalf("order = %v", order)
	}
	if f.m.Stats().LockWaits != 1 {
		t.Fatalf("lock waits = %d", f.m.Stats().LockWaits)
	}
}

func TestLockTimeoutBreaksDeadlock(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	var timeouts int
	deadlocker := func(first, second int64) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			tx := f.m.Begin()
			if err := f.m.Insert(p, tx, "acct", first, []byte("x")); err != nil {
				_ = f.m.Rollback(p, tx)
				return
			}
			p.Sleep(10 * time.Millisecond)
			err := f.m.Insert(p, tx, "acct", second, []byte("y"))
			if errors.Is(err, ErrLockTimeout) {
				timeouts++
				_ = f.m.Rollback(p, tx)
				return
			}
			_ = f.m.Commit(p, tx)
		}
	}
	f.k.Go("a", deadlocker(1, 2))
	f.k.Go("b", deadlocker(2, 1))
	f.k.Run(sim.Time(time.Hour))
	if timeouts == 0 {
		t.Fatal("deadlock was not broken by timeout")
	}
	if f.m.ActiveCount() != 0 {
		t.Fatalf("active = %d", f.m.ActiveCount())
	}
}

func TestReacquireOwnLockIsNoop(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		_ = f.m.Insert(p, tx, "acct", 1, []byte("a"))
		if err := f.m.Update(p, tx, "acct", 1, []byte("b")); err != nil {
			t.Errorf("update own row: %v", err)
		}
		if _, err := f.m.ReadForUpdate(p, tx, "acct", 1); err != nil {
			t.Errorf("read for update own row: %v", err)
		}
		_ = f.m.Commit(p, tx)
	})
}

func TestCommitIsDurableWAL(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		_ = f.m.Insert(p, tx, "acct", 1, []byte("v"))
		if f.log.FlushedSCN() != 0 {
			t.Error("log flushed before commit without need")
		}
		_ = f.m.Commit(p, tx)
		if f.log.FlushedSCN() < 2 {
			t.Errorf("flushedSCN = %d after commit", f.log.FlushedSCN())
		}
		// The redo stream contains insert + commit.
		recs, ok := f.log.OnlineRecords(1)
		if !ok || len(recs) != 2 {
			t.Errorf("records = %d (ok=%v)", len(recs), ok)
			return
		}
		if recs[0].Op != redo.OpInsert || recs[1].Op != redo.OpCommit {
			t.Errorf("ops = %v,%v", recs[0].Op, recs[1].Op)
		}
	})
}

func TestOpsOnFinishedTxnFail(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		_ = f.m.Insert(p, tx, "acct", 1, []byte("v"))
		_ = f.m.Commit(p, tx)
		if err := f.m.Insert(p, tx, "acct", 2, []byte("w")); !errors.Is(err, ErrTxnDone) {
			t.Errorf("insert err = %v", err)
		}
		if err := f.m.Commit(p, tx); !errors.Is(err, ErrTxnDone) {
			t.Errorf("commit err = %v", err)
		}
		if err := f.m.Rollback(p, tx); !errors.Is(err, ErrTxnDone) {
			t.Errorf("rollback err = %v", err)
		}
		if _, err := f.m.Read(p, tx, "acct", 1); !errors.Is(err, ErrTxnDone) {
			t.Errorf("read err = %v", err)
		}
	})
}

func TestAbandonAllReleasesLocks(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		_ = f.m.Insert(p, tx, "acct", 1, []byte("v"))
		f.m.AbandonAll()
		if f.m.ActiveCount() != 0 {
			t.Errorf("active = %d", f.m.ActiveCount())
		}
		tx2 := f.m.Begin()
		if _, err := f.m.ReadForUpdate(p, tx2, "acct", 1); err != nil {
			t.Errorf("lock still held after abandon: %v", err)
		}
		_ = f.m.Commit(p, tx2)
	})
}

func TestScanSeesCommittedRows(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		for i := int64(0); i < 20; i++ {
			_ = f.m.Insert(p, tx, "acct", i, []byte{byte(i)})
		}
		_ = f.m.Commit(p, tx)
		got := map[int64]byte{}
		if err := f.m.Scan(p, "acct", func(k int64, v []byte) bool {
			got[k] = v[0]
			return true
		}); err != nil {
			t.Error(err)
			return
		}
		if len(got) != 20 {
			t.Errorf("scanned %d rows", len(got))
		}
		for i := int64(0); i < 20; i++ {
			if got[i] != byte(i) {
				t.Errorf("row %d = %d", i, got[i])
			}
		}
	})
}

func TestScanEarlyStop(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		for i := int64(0); i < 10; i++ {
			_ = f.m.Insert(p, tx, "acct", i, []byte{1})
		}
		_ = f.m.Commit(p, tx)
		n := 0
		_ = f.m.Scan(p, "acct", func(k int64, v []byte) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Errorf("visited %d, want 3", n)
		}
	})
}

func TestCommitFailsWhenLogDown(t *testing.T) {
	f := newFixture(t)
	var commitErr error
	f.k.Go("t", func(p *sim.Proc) {
		tx := f.m.Begin()
		_ = f.m.Insert(p, tx, "acct", 1, []byte("v"))
		f.log.Stop()
		commitErr = f.m.Commit(p, tx)
	})
	f.k.RunAll()
	if commitErr == nil {
		t.Fatal("commit succeeded with log down")
	}
}

// Property: a random interleaving of commits and rollbacks leaves exactly
// the committed values visible.
func TestQuickCommitRollbackVisibility(t *testing.T) {
	prop := func(commitMask uint32) bool {
		f, err := makeFixture()
		if err != nil {
			return false
		}
		defer f.shutdown()
		want := map[int64]bool{}
		ok := true
		f.k.Go("t", func(p *sim.Proc) {
			for i := int64(0); i < 16; i++ {
				tx := f.m.Begin()
				if err := f.m.Insert(p, tx, "acct", i, []byte{byte(i)}); err != nil {
					ok = false
					return
				}
				if commitMask&(1<<uint(i)) != 0 {
					if err := f.m.Commit(p, tx); err != nil {
						ok = false
					}
					want[i] = true
				} else {
					if err := f.m.Rollback(p, tx); err != nil {
						ok = false
					}
				}
			}
			check := f.m.Begin()
			for i := int64(0); i < 16; i++ {
				_, err := f.m.Read(p, check, "acct", i)
				if want[i] && err != nil {
					ok = false
				}
				if !want[i] && !errors.Is(err, ErrRowNotFound) {
					ok = false
				}
			}
			_ = f.m.Commit(p, check)
		})
		f.k.Run(sim.Time(time.Hour))
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
