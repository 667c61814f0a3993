package recovery

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/trace"
)

// rig is a full single-instance test rig: engine + backup + recovery over
// a four-disk simulated machine.
type rig struct {
	k   *sim.Kernel
	fs  *simdisk.FS
	in  *engine.Instance
	bk  *backup.Manager
	rm  *Manager
	err error
}

func newRig(archive bool, groupSize int64, groups int) (*rig, error) {
	return newRigCache(archive, groupSize, groups, 128)
}

func newRigCache(archive bool, groupSize int64, groups, cacheBlocks int) (*rig, error) {
	return newRigTraced(archive, groupSize, groups, cacheBlocks, nil)
}

func newRigTraced(archive bool, groupSize int64, groups, cacheBlocks int, tr *trace.Tracer) (*rig, error) {
	return newRigParallel(archive, groupSize, groups, cacheBlocks, 0, 0, tr)
}

func newRigParallel(archive bool, groupSize int64, groups, cacheBlocks, cpus, workers int, tr *trace.Tracer) (*rig, error) {
	k := sim.NewKernel(42)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
	cfg := engine.DefaultConfig()
	cfg.Redo.GroupSizeBytes = groupSize
	cfg.Redo.Groups = groups
	cfg.Redo.ArchiveMode = archive
	cfg.CheckpointTimeout = 0 // tests trigger checkpoints explicitly
	cfg.CacheBlocks = cacheBlocks
	cfg.CPUs = cpus
	cfg.RecoveryParallelism = workers
	cfg.Tracer = tr
	in, err := engine.New(k, fs, cfg)
	if err != nil {
		return nil, err
	}
	bk := backup.NewManager(k, fs, engine.DiskArch)
	return &rig{k: k, fs: fs, in: in, bk: bk, rm: NewManager(in, bk)}, nil
}

// setup opens the instance and creates a USERS tablespace with one table.
func (r *rig) setup(p *sim.Proc) error {
	if _, err := r.in.CreateTablespace(p, "SYSTEM", []string{engine.DiskData1}, 16); err != nil {
		return err
	}
	if _, err := r.in.CreateTablespace(p, "USERS", []string{engine.DiskData1, engine.DiskData2}, 64); err != nil {
		return err
	}
	if err := r.in.CreateUser(p, "tpcc", "USERS"); err != nil {
		return err
	}
	if err := r.in.Open(p); err != nil {
		return err
	}
	if err := r.in.CreateTableClustered(p, "acct", "tpcc", "USERS", 16, 1); err != nil {
		return err
	}
	return nil
}

// run executes fn as a simulation process and propagates its error.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	r.k.Go("test", func(p *sim.Proc) {
		if err := fn(p); err != nil {
			r.err = err
		}
	})
	r.k.Run(sim.Time(100 * time.Hour))
	if r.err != nil {
		t.Fatal(r.err)
	}
}

// put commits one row.
func (r *rig) put(p *sim.Proc, key int64, val string) error {
	tx, err := r.in.Begin()
	if err != nil {
		return err
	}
	exists := true
	if _, err := r.in.Read(p, tx, "acct", key); err != nil {
		exists = false
	}
	if exists {
		if err := r.in.Update(p, tx, "acct", key, []byte(val)); err != nil {
			return err
		}
	} else {
		if err := r.in.Insert(p, tx, "acct", key, []byte(val)); err != nil {
			return err
		}
	}
	return r.in.Commit(p, tx)
}

// get reads one row in a fresh transaction.
func (r *rig) get(p *sim.Proc, key int64) (string, error) {
	tx, err := r.in.Begin()
	if err != nil {
		return "", err
	}
	v, err := r.in.Read(p, tx, "acct", key)
	if err != nil {
		_ = r.in.Rollback(p, tx)
		return "", err
	}
	if err := r.in.Commit(p, tx); err != nil {
		return "", err
	}
	return string(v), nil
}

func TestCrashRecoveryPreservesCommittedAndUndoesInFlight(t *testing.T) {
	r, err := newRig(false, 4<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 50; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		// Take a checkpoint, then more committed work after it.
		if err := r.in.Checkpoint(p); err != nil {
			return err
		}
		for i := int64(50); i < 80; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		// One in-flight transaction at crash time.
		tx, err := r.in.Begin()
		if err != nil {
			return err
		}
		if err := r.in.Insert(p, tx, "acct", 999, []byte("uncommitted")); err != nil {
			return err
		}
		if err := r.in.Update(p, tx, "acct", 10, []byte("dirty")); err != nil {
			return err
		}
		// A later commit group-commits the in-flight records to disk,
		// so recovery will see (and undo) them.
		if err := r.put(p, 80, "v80"); err != nil {
			return err
		}

		r.in.Crash() // SHUTDOWN ABORT

		if _, err := r.get(p, 1); !errors.Is(err, engine.ErrInstanceDown) {
			return fmt.Errorf("expected instance down, got %v", err)
		}
		rep, err := r.rm.InstanceRecovery(p)
		if err != nil {
			return err
		}
		if !rep.Complete || rep.Kind != KindInstance {
			return fmt.Errorf("report = %+v", rep)
		}
		if rep.LostCommits != 0 {
			return fmt.Errorf("lost commits = %d", rep.LostCommits)
		}
		if rep.LosersRolledBack != 1 {
			return fmt.Errorf("losers = %d, want 1", rep.LosersRolledBack)
		}
		if rep.Duration() <= 0 {
			return fmt.Errorf("duration = %v", rep.Duration())
		}
		// All committed rows intact.
		for i := int64(0); i < 80; i++ {
			v, err := r.get(p, i)
			if err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
			if v != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("row %d = %q", i, v)
			}
		}
		// In-flight work undone.
		if _, err := r.get(p, 999); err == nil {
			return fmt.Errorf("uncommitted insert survived crash")
		}
		if v, _ := r.get(p, 10); v != "v10" {
			return fmt.Errorf("row 10 = %q, want v10 (dirty update must be rolled back)", v)
		}
		return nil
	})
}

func TestRecoveryTimeGrowsWithRedoSinceCheckpoint(t *testing.T) {
	recoveryTime := func(commitsAfterCkpt int) time.Duration {
		r, err := newRig(false, 64<<20, 3)
		if err != nil {
			t.Fatal(err)
		}
		var dur time.Duration
		r.run(t, func(p *sim.Proc) error {
			if err := r.setup(p); err != nil {
				return err
			}
			if err := r.in.Checkpoint(p); err != nil {
				return err
			}
			for i := 0; i < commitsAfterCkpt; i++ {
				if err := r.put(p, int64(i%300), "x"); err != nil {
					return err
				}
			}
			r.in.Crash()
			rep, err := r.rm.InstanceRecovery(p)
			if err != nil {
				return err
			}
			dur = rep.Duration()
			return nil
		})
		return dur
	}
	small := recoveryTime(20)
	large := recoveryTime(2000)
	if large <= small {
		t.Fatalf("recovery time small=%v large=%v; want growth with redo volume", small, large)
	}
}

func TestCheckpointReducesRecoveryWork(t *testing.T) {
	applied := func(checkpointLate bool) int {
		r, err := newRig(false, 64<<20, 3)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		r.run(t, func(p *sim.Proc) error {
			if err := r.setup(p); err != nil {
				return err
			}
			for i := 0; i < 500; i++ {
				if err := r.put(p, int64(i%100), "x"); err != nil {
					return err
				}
			}
			if checkpointLate {
				if err := r.in.Checkpoint(p); err != nil {
					return err
				}
			}
			r.in.Crash()
			rep, err := r.rm.InstanceRecovery(p)
			if err != nil {
				return err
			}
			n = rep.RecordsApplied
			return nil
		})
		return n
	}
	withCkpt := applied(true)
	withoutCkpt := applied(false)
	if withCkpt >= withoutCkpt {
		t.Fatalf("applied withCkpt=%d withoutCkpt=%d; checkpoint should cut replay", withCkpt, withoutCkpt)
	}
	if withCkpt != 0 {
		t.Fatalf("applied after immediate checkpoint = %d, want 0", withCkpt)
	}
}

func TestDeleteDatafileMediaRecovery(t *testing.T) {
	r, err := newRigCache(true, 1<<20, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 100; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		// Backup (checkpoint first so images are current), then force a
		// switch so the redo so far gets archived.
		if err := r.in.Checkpoint(p); err != nil {
			return err
		}
		if _, err := r.bk.TakeFull(p, r.in.DB(), r.in.Catalog(), r.in.DB().Control.CheckpointSCN); err != nil {
			return err
		}
		if err := r.in.ForceLogSwitch(p); err != nil {
			return err
		}
		// More committed work after the backup.
		for i := int64(100); i < 200; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		// Operator fault: delete one datafile.
		victim := "USERS_01.dbf"
		if err := r.fs.Delete(victim); err != nil {
			return err
		}
		// Some transactions now fail (those touching the lost file).
		failures := 0
		for i := int64(0); i < 50; i++ {
			if _, err := r.get(p, i); err != nil {
				failures++
			}
		}
		if failures == 0 {
			return fmt.Errorf("no failures despite lost datafile")
		}
		rep, err := r.rm.RestoreAndRecoverDatafile(p, victim)
		if err != nil {
			return err
		}
		if !rep.Complete || rep.Kind != KindDatafile {
			return fmt.Errorf("report = %+v", rep)
		}
		if rep.LostCommits != 0 {
			return fmt.Errorf("lost commits = %d", rep.LostCommits)
		}
		if rep.RecordsApplied == 0 {
			return fmt.Errorf("no records applied")
		}
		// Everything is back, including post-backup commits.
		for i := int64(0); i < 200; i++ {
			v, err := r.get(p, i)
			if err != nil {
				return fmt.Errorf("row %d after recovery: %w", i, err)
			}
			if v != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("row %d = %q", i, v)
			}
		}
		return nil
	})
}

func TestOfflineDatafileRecoveryWithoutRestore(t *testing.T) {
	r, err := newRig(true, 8<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 100; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		// Operator fault: set a datafile offline (no checkpoint).
		victim := "USERS_02.dbf"
		if err := r.in.OfflineDatafile(p, victim); err != nil {
			return err
		}
		// Bringing it online without recovery fails (needs recovery).
		if err := r.in.OnlineDatafile(p, victim); err == nil {
			return fmt.Errorf("online without recovery succeeded")
		}
		rep, err := r.rm.RecoverDatafile(p, victim)
		if err != nil {
			return err
		}
		if !rep.Complete {
			return fmt.Errorf("offline datafile recovery not complete")
		}
		for i := int64(0); i < 100; i++ {
			v, err := r.get(p, i)
			if err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
			if v != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("row %d = %q", i, v)
			}
		}
		return nil
	})
}

func TestOfflineTablespaceNeedsNoRecovery(t *testing.T) {
	r, err := newRig(false, 8<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 50; i++ {
			if err := r.put(p, i, "x"); err != nil {
				return err
			}
		}
		if err := r.in.OfflineTablespace(p, "USERS"); err != nil {
			return err
		}
		if _, err := r.get(p, 1); err == nil {
			return fmt.Errorf("read from offline tablespace succeeded")
		}
		// Back online directly: offline NORMAL checkpointed everything.
		if err := r.in.OnlineTablespace(p, "USERS"); err != nil {
			return err
		}
		for i := int64(0); i < 50; i++ {
			if _, err := r.get(p, i); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
}

func TestPointInTimeRecoveryAfterDropTable(t *testing.T) {
	r, err := newRig(true, 128<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 100; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		if err := r.in.Checkpoint(p); err != nil {
			return err
		}
		if _, err := r.bk.TakeFull(p, r.in.DB(), r.in.Catalog(), r.in.DB().Control.CheckpointSCN); err != nil {
			return err
		}
		if err := r.in.ForceLogSwitch(p); err != nil {
			return err
		}
		// Enough post-backup work to wrap the online ring, so recovery
		// must read archived logs.
		for i := int64(100); i < 150; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		for j := 0; j < 2000; j++ {
			if err := r.put(p, int64(j%100), fmt.Sprintf("v%d", int64(j%100))); err != nil {
				return err
			}
		}
		// Operator fault: DROP TABLE by mistake.
		target := r.in.Log().NextSCN() - 1 // recover to just before the drop
		if err := r.in.DropTable(p, "acct"); err != nil {
			return err
		}
		// Work committed after the fault (on other tables it would be;
		// here the DB keeps running until the DBA reacts).
		if _, err := r.get(p, 1); err == nil {
			return fmt.Errorf("read from dropped table succeeded")
		}

		rep, err := r.rm.PointInTime(p, target)
		if err != nil {
			return err
		}
		if rep.Complete {
			return fmt.Errorf("PITR reported complete")
		}
		if rep.ArchivesProcessed == 0 {
			return fmt.Errorf("no archives processed")
		}
		// The table is back with all pre-drop commits.
		for i := int64(0); i < 150; i++ {
			v, err := r.get(p, i)
			if err != nil {
				return fmt.Errorf("row %d after PITR: %w", i, err)
			}
			if v != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("row %d = %q", i, v)
			}
		}
		// The database accepts new work after RESETLOGS.
		if err := r.put(p, 500, "after-resetlogs"); err != nil {
			return err
		}
		return nil
	})
}

func TestPointInTimeLosesCommitsAfterTarget(t *testing.T) {
	r, err := newRig(true, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 50; i++ {
			if err := r.put(p, i, "before"); err != nil {
				return err
			}
		}
		if err := r.in.Checkpoint(p); err != nil {
			return err
		}
		if _, err := r.bk.TakeFull(p, r.in.DB(), r.in.Catalog(), r.in.DB().Control.CheckpointSCN); err != nil {
			return err
		}
		if err := r.in.ForceLogSwitch(p); err != nil {
			return err
		}
		target := r.in.Log().NextSCN() - 1
		// Commits after the recovery target: these will be lost.
		const lost = 7
		for i := int64(100); i < 100+lost; i++ {
			if err := r.put(p, i, "after-target"); err != nil {
				return err
			}
		}
		rep, err := r.rm.PointInTime(p, target)
		if err != nil {
			return err
		}
		if rep.LostCommits != lost {
			return fmt.Errorf("lost commits = %d, want %d", rep.LostCommits, lost)
		}
		for i := int64(100); i < 100+lost; i++ {
			if _, err := r.get(p, i); err == nil {
				return fmt.Errorf("post-target row %d survived PITR", i)
			}
		}
		for i := int64(0); i < 50; i++ {
			if v, _ := r.get(p, i); v != "before" {
				return fmt.Errorf("pre-target row %d = %q", i, v)
			}
		}
		return nil
	})
}

func TestPointInTimeRecoversDroppedTablespace(t *testing.T) {
	r, err := newRig(true, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 60; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		if err := r.in.Checkpoint(p); err != nil {
			return err
		}
		if _, err := r.bk.TakeFull(p, r.in.DB(), r.in.Catalog(), r.in.DB().Control.CheckpointSCN); err != nil {
			return err
		}
		if err := r.in.ForceLogSwitch(p); err != nil {
			return err
		}
		target := r.in.Log().NextSCN() - 1
		if err := r.in.DropTablespace(p, "USERS"); err != nil {
			return err
		}
		rep, err := r.rm.PointInTime(p, target)
		if err != nil {
			return err
		}
		if rep.Kind != KindPointInTime {
			return fmt.Errorf("kind = %v", rep.Kind)
		}
		for i := int64(0); i < 60; i++ {
			v, err := r.get(p, i)
			if err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
			if v != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("row %d = %q", i, v)
			}
		}
		return nil
	})
}

func TestInstanceRecoveryRefusesCleanDatabase(t *testing.T) {
	r, err := newRig(false, 4<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if err := r.in.ShutdownImmediate(p); err != nil {
			return err
		}
		if _, err := r.rm.InstanceRecovery(p); err == nil {
			return fmt.Errorf("recovery of clean database succeeded")
		}
		// Clean open works directly.
		return r.in.Open(p)
	})
}

func TestCrashWithoutRecoveryCannotOpen(t *testing.T) {
	r, err := newRig(false, 4<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if err := r.put(p, 1, "x"); err != nil {
			return err
		}
		r.in.Crash()
		if err := r.in.Open(p); !errors.Is(err, engine.ErrCrashRecoveryNeeded) {
			return fmt.Errorf("open after crash: %v", err)
		}
		return nil
	})
}

// Property: for any crash point (number of committed rows before crash),
// crash recovery restores exactly the committed rows — committed data is
// durable, uncommitted data is gone.
func TestQuickCrashDurability(t *testing.T) {
	prop := func(nCommitted uint8, withInFlight bool) bool {
		r, err := newRig(false, 4<<20, 3)
		if err != nil {
			return false
		}
		n := int64(nCommitted%40) + 1
		ok := true
		r.k.Go("t", func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil {
					ok = false
				}
			}()
			if err := r.setup(p); err != nil {
				ok = false
				return
			}
			for i := int64(0); i < n; i++ {
				if err := r.put(p, i, "v"); err != nil {
					ok = false
					return
				}
			}
			if withInFlight {
				tx, err := r.in.Begin()
				if err != nil {
					ok = false
					return
				}
				if err := r.in.Insert(p, tx, "acct", 1000, []byte("uncommitted")); err != nil {
					ok = false
					return
				}
			}
			r.in.Crash()
			if _, err := r.rm.InstanceRecovery(p); err != nil {
				ok = false
				return
			}
			for i := int64(0); i < n; i++ {
				if _, err := r.get(p, i); err != nil {
					ok = false
					return
				}
			}
			if _, err := r.get(p, 1000); err == nil {
				ok = false // uncommitted row survived
			}
		})
		r.k.Run(sim.Time(100 * time.Hour))
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: recovery is idempotent — crash, recover, crash again
// immediately, recover again: same data.
func TestRecoveryIdempotence(t *testing.T) {
	r, err := newRig(false, 4<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 60; i++ {
			if err := r.put(p, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		for round := 0; round < 3; round++ {
			r.in.Crash()
			if _, err := r.rm.InstanceRecovery(p); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			for i := int64(0); i < 60; i++ {
				v, err := r.get(p, i)
				if err != nil {
					return fmt.Errorf("round %d row %d: %w", round, i, err)
				}
				if v != fmt.Sprintf("v%d", i) {
					return fmt.Errorf("round %d row %d = %q", round, i, v)
				}
			}
			// Write a little more each round.
			if err := r.put(p, int64(100+round), "extra"); err != nil {
				return err
			}
		}
		return nil
	})
}
