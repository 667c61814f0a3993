package engine_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/txn"
)

// frameRig is an open instance with table t (rows 0..rows-1 holding "v<key>")
// in tablespace USERS, and a recovery manager to repair it with.
type frameRig struct {
	k  *sim.Kernel
	in *engine.Instance
	rm *recovery.Manager
}

const frameRows = 100

func newFrameRig(t *testing.T) *frameRig {
	t.Helper()
	k := sim.NewKernel(11)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
	cfg := engine.DefaultConfig()
	cfg.Redo.GroupSizeBytes = 1 << 20
	cfg.CheckpointTimeout = 0
	cfg.CacheBlocks = 64
	in, err := engine.New(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &frameRig{k: k, in: in, rm: recovery.NewManager(in, backup.NewManager(k, fs, engine.DiskArch))}
}

// run sets the rig up, then runs fn as a simulation process.
func (r *frameRig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var got error
	r.k.Go("test", func(p *sim.Proc) {
		if got = r.setup(p); got == nil {
			got = fn(p)
		}
	})
	r.k.Run(sim.Time(100 * time.Hour))
	if got != nil {
		t.Fatal(got)
	}
}

func (r *frameRig) setup(p *sim.Proc) error {
	in := r.in
	if _, err := in.CreateTablespace(p, "SYSTEM", []string{engine.DiskData1}, 16); err != nil {
		return err
	}
	if _, err := in.CreateTablespace(p, "USERS", []string{engine.DiskData1}, 32); err != nil {
		return err
	}
	if err := in.CreateUser(p, "u", "USERS"); err != nil {
		return err
	}
	if err := in.Open(p); err != nil {
		return err
	}
	if err := in.CreateTableClustered(p, "t", "u", "USERS", 8, 1); err != nil {
		return err
	}
	_, err := in.Atomically(p, func(t *txn.Txn) error {
		for key := range int64(frameRows) {
			if err := in.Insert(p, t, "t", key, fmt.Appendf(nil, "v%d", key)); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// rows checks that t holds exactly its set-up rows.
func (r *frameRig) rows(p *sim.Proc) error {
	n := 0
	var bad error
	if err := r.in.Scan(p, "t", func(key int64, v []byte) bool {
		n++
		if string(v) != fmt.Sprintf("v%d", key) {
			bad = fmt.Errorf("row %d = %q", key, v)
		}
		return bad == nil
	}); err != nil {
		return err
	}
	if bad == nil && n != frameRows {
		bad = fmt.Errorf("t holds %d rows, want %d", n, frameRows)
	}
	return bad
}

// awaitPMON gives PMON (a 1 s sweep) two seconds to finish every
// transaction the frame handed it.
func (r *frameRig) awaitPMON(p *sim.Proc) error {
	for deadline := p.Now().Add(2 * time.Second); r.in.Txns().ActiveCount() > 0; p.Sleep(100 * time.Millisecond) {
		if p.Now() > deadline {
			return fmt.Errorf("%d transaction(s) still active (%d zombie) 2s after the repair",
				r.in.Txns().ActiveCount(), r.in.Txns().ZombieCount())
		}
	}
	return nil
}

// A body that succeeds commits and yields the commit SCN — 0 when it wrote
// nothing; one that fails is rolled back, and the caller gets its error.
func TestAtomicallyCommitsOrRollsBack(t *testing.T) {
	r := newFrameRig(t)
	r.run(t, func(p *sim.Proc) error {
		in := r.in
		var committed *txn.Txn
		scn, err := in.Atomically(p, func(t *txn.Txn) error {
			committed = t
			return in.Update(p, t, "t", 7, []byte("new"))
		})
		if err != nil {
			return err
		}
		if scn == 0 || scn != committed.CommitSCN {
			return fmt.Errorf("commit SCN %d, the transaction's is %d", scn, committed.CommitSCN)
		}
		if scn, err := in.Atomically(p, func(t *txn.Txn) error {
			_, err := in.Read(p, t, "t", 7)
			return err
		}); err != nil || scn != 0 {
			return fmt.Errorf("read-only body: SCN %d, error %v; want 0 and nil", scn, err)
		}
		boom := errors.New("boom")
		scn, err = in.Atomically(p, func(t *txn.Txn) error {
			if err := in.Update(p, t, "t", 7, []byte("v7")); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) || scn != 0 {
			return fmt.Errorf("failing body: SCN %d, error %v; want 0 and the body's error", scn, err)
		}
		if n := in.Txns().ActiveCount(); n != 0 {
			return fmt.Errorf("%d transaction(s) active after a rolled-back body", n)
		}
		var v []byte
		if _, err := in.Atomically(p, func(t *txn.Txn) (err error) {
			v, err = in.Read(p, t, "t", 7)
			return err
		}); err != nil {
			return err
		}
		if string(v) != "new" {
			return fmt.Errorf("row 7 = %q after the rollback, want the committed %q", v, "new")
		}
		return nil
	})
}

// A body that fails once its datafile is offline cannot be rolled back
// either: the frame hands the transaction to PMON, which rolls it back once
// RECOVER DATAFILE has brought the file back.
func TestAtomicallyHandsFailedRollbackToPMON(t *testing.T) {
	r := newFrameRig(t)
	r.run(t, func(p *sim.Proc) error {
		in := r.in
		tbl, err := in.Catalog().Table("t")
		if err != nil {
			return err
		}
		file := tbl.BlockFor(7).File.Name
		boom := errors.New("boom")
		if _, err := in.Atomically(p, func(t *txn.Txn) error {
			if err := in.Update(p, t, "t", 7, []byte("changed")); err != nil {
				return err
			}
			if err := in.OfflineDatafile(p, file); err != nil {
				return err
			}
			return boom
		}); !errors.Is(err, boom) {
			return fmt.Errorf("Atomically returned %v, want the body's error", err)
		}
		if n := in.Txns().ZombieCount(); n != 1 {
			return fmt.Errorf("%d zombie(s) after a rollback against an offline file, want 1", n)
		}
		if _, err := r.rm.RecoverDatafile(p, file); err != nil {
			return err
		}
		if err := r.awaitPMON(p); err != nil {
			return err
		}
		return r.rows(p)
	})
}

// TRUNCATE's purge is one transaction. When its tablespace goes offline
// under it, the purge fails and so does its rollback: the purge goes to
// PMON, which restores the table once the tablespace is back, instead of
// holding its row locks forever.
func TestTruncateHandsFailedRollbackToPMON(t *testing.T) {
	r := newFrameRig(t)
	r.run(t, func(p *sim.Proc) error {
		in := r.in
		var offErr error
		dba := r.k.Go("dba", func(p *sim.Proc) {
			for in.Txns().ActiveWritersOn("t") == 0 {
				p.Sleep(time.Millisecond)
			}
			offErr = in.OfflineTablespaceForRecovery(p, "USERS")
		})
		if err := in.TruncateTable(p, "t"); err == nil {
			return fmt.Errorf("TRUNCATE succeeded with its tablespace going offline under it")
		}
		for !dba.Done() {
			p.Sleep(10 * time.Millisecond)
		}
		if offErr != nil {
			return offErr
		}
		if n := in.Txns().ZombieCount(); n != 1 {
			return fmt.Errorf("%d zombie(s) after the failed purge, want 1", n)
		}
		if _, err := r.rm.OnlineTablespaceRecovery(p, "USERS"); err != nil {
			return err
		}
		if err := r.awaitPMON(p); err != nil {
			return err
		}
		return r.rows(p)
	})
}
