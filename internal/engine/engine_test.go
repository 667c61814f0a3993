package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
	"dbench/internal/txn"
)

func newInstance(t *testing.T, mutate func(*Config)) (*sim.Kernel, *simdisk.FS, *Instance) {
	t.Helper()
	k := sim.NewKernel(7)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(DiskData1),
		simdisk.DefaultSpec(DiskData2),
		simdisk.DefaultSpec(DiskRedo),
		simdisk.DefaultSpec(DiskArch),
	)
	cfg := DefaultConfig()
	cfg.Redo.GroupSizeBytes = 1 << 20
	cfg.CheckpointTimeout = 0
	cfg.CacheBlocks = 64
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := New(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, fs, in
}

func setupAndOpen(p *sim.Proc, in *Instance) error {
	if _, err := in.CreateTablespace(p, "USERS", []string{DiskData1}, 32); err != nil {
		return err
	}
	if err := in.CreateUser(p, "u", "USERS"); err != nil {
		return err
	}
	if err := in.Open(p); err != nil {
		return err
	}
	return in.CreateTableClustered(p, "t", "u", "USERS", 8, 1)
}

func runErr(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc) error) {
	t.Helper()
	var got error
	k.Go("test", func(p *sim.Proc) {
		got = fn(p)
	})
	k.Run(sim.Time(100 * time.Hour))
	if got != nil {
		t.Fatal(got)
	}
}

func TestOpenChargesStartupTime(t *testing.T) {
	k, _, in := newInstance(t, nil)
	var opened sim.Time
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		opened = p.Now()
		return nil
	})
	if opened < sim.Time(in.cfg.Cost.InstanceStartup) {
		t.Fatalf("opened at %v, startup cost is %v", opened, in.cfg.Cost.InstanceStartup)
	}
	if in.State() != StateOpen {
		t.Fatalf("state = %v", in.State())
	}
}

func TestDMLFailsWhenDown(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if _, err := in.Begin(); !errors.Is(err, ErrInstanceDown) {
			return fmt.Errorf("Begin while down: %v", err)
		}
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		tx, err := in.Begin()
		if err != nil {
			return err
		}
		if err := in.Insert(p, tx, "t", 1, []byte("v")); err != nil {
			return err
		}
		in.Crash()
		if err := in.Commit(p, tx); !errors.Is(err, ErrInstanceDown) {
			return fmt.Errorf("Commit after crash: %v", err)
		}
		return nil
	})
}

func TestCheckpointTimeoutFires(t *testing.T) {
	k, _, in := newInstance(t, func(c *Config) {
		c.CheckpointTimeout = 60 * time.Second
	})
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		p.Sleep(10 * time.Minute)
		if got := in.Stats().TimeoutCheckpoints; got < 8 || got > 11 {
			return fmt.Errorf("timeout checkpoints in 10min = %d, want ~10", got)
		}
		return in.ShutdownImmediate(p)
	})
}

func TestLogSwitchTriggersCheckpoint(t *testing.T) {
	k, _, in := newInstance(t, func(c *Config) {
		c.Redo.GroupSizeBytes = 16 << 10
	})
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		for i := 0; i < 300; i++ {
			tx, err := in.Begin()
			if err != nil {
				return err
			}
			if err := in.Insert(p, tx, "t", int64(i), make([]byte, 100)); err != nil {
				return err
			}
			if err := in.Commit(p, tx); err != nil {
				return err
			}
		}
		p.Sleep(time.Second) // let CKPT drain
		if in.Stats().SwitchCheckpoints == 0 {
			return fmt.Errorf("no switch checkpoints after %d switches", in.Log().Stats().Switches)
		}
		return nil
	})
}

func TestCleanShutdownAndReopenWithoutRecovery(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		tx, _ := in.Begin()
		if err := in.Insert(p, tx, "t", 1, []byte("v")); err != nil {
			return err
		}
		if err := in.Commit(p, tx); err != nil {
			return err
		}
		if err := in.ShutdownImmediate(p); err != nil {
			return err
		}
		if in.Crashed() {
			return fmt.Errorf("clean shutdown marked crashed")
		}
		if err := in.Open(p); err != nil {
			return err
		}
		tx2, _ := in.Begin()
		v, err := in.Read(p, tx2, "t", 1)
		if err != nil {
			return err
		}
		if string(v) != "v" {
			return fmt.Errorf("value = %q", v)
		}
		return in.Commit(p, tx2)
	})
}

func TestShutdownImmediateRollsBackActive(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		tx, _ := in.Begin()
		if err := in.Insert(p, tx, "t", 42, []byte("inflight")); err != nil {
			return err
		}
		if err := in.ShutdownImmediate(p); err != nil {
			return err
		}
		if err := in.Open(p); err != nil {
			return err
		}
		check, _ := in.Begin()
		if _, err := in.Read(p, check, "t", 42); err == nil {
			return fmt.Errorf("in-flight insert survived clean shutdown")
		}
		return in.Commit(p, check)
	})
}

// Four writers update their own rows every millisecond when SHUTDOWN
// IMMEDIATE begins. It closes the database to new work first, ends every
// transaction in flight and returns soon after; no transaction begun after
// it started commits, and after Open every acknowledged commit reads back.
func TestShutdownImmediateUnderLoadClosesBeforeItDrains(t *testing.T) {
	const writers, keysPer = 4, 10
	k, _, in := newInstance(t, nil)
	acked := make(map[int64]string)   // the last acknowledged value of each key
	inDoubt := make(map[int64]string) // a commit that failed after its COMMIT record
	shuttingDown, lateCommits := false, 0
	writer := func(p *sim.Proc, w int) {
		for i := 0; p.Now() < sim.Time(time.Minute); i++ {
			tx, err := in.Begin()
			if err != nil {
				return
			}
			late := shuttingDown
			key, val := int64(w*keysPer+i%keysPer), fmt.Sprintf("w%d-%d", w, i)
			write := in.Update
			if i < keysPer {
				write = in.Insert
			}
			if write(p, tx, "t", key, []byte(val)) != nil {
				return
			}
			if err := in.Commit(p, tx); err != nil {
				if !errors.Is(err, ErrInstanceDown) && !errors.Is(err, txn.ErrTxnDone) {
					inDoubt[key] = val
				}
				return
			}
			if late {
				lateCommits++
			}
			acked[key] = val
			p.Sleep(time.Millisecond)
		}
	}
	var took sim.Duration
	reopened := false
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		for w := 0; w < writers; w++ {
			k.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) { writer(p, w) })
		}
		p.Sleep(14500 * time.Millisecond)
		shuttingDown = true
		start := p.Now()
		if err := in.ShutdownImmediate(p); err != nil {
			return fmt.Errorf("SHUTDOWN IMMEDIATE under load: %w", err)
		}
		took = p.Now().Sub(start)
		if err := in.Open(p); err != nil {
			return err
		}
		tx, err := in.Begin()
		if err != nil {
			return err
		}
		for key, want := range acked {
			got, err := in.Read(p, tx, "t", key)
			if err != nil {
				return err
			}
			if string(got) != want && string(got) != inDoubt[key] {
				return fmt.Errorf("key %d reads %q, acknowledged %q", key, got, want)
			}
		}
		reopened = true
		return in.Commit(p, tx)
	})
	if !reopened {
		t.Fatal("SHUTDOWN IMMEDIATE never returned")
	}
	if took > 5*time.Second {
		t.Errorf("SHUTDOWN IMMEDIATE took %v", took)
	}
	if lateCommits > 0 {
		t.Errorf("%d transactions begun after SHUTDOWN IMMEDIATE started committed", lateCommits)
	}
	if len(acked) != writers*keysPer {
		t.Errorf("%d keys acknowledged, want %d", len(acked), writers*keysPer)
	}
}

func TestDropTableMakesRowsUnreachable(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		tx, _ := in.Begin()
		_ = in.Insert(p, tx, "t", 1, []byte("v"))
		if err := in.Commit(p, tx); err != nil {
			return err
		}
		if err := in.DropTable(p, "t"); err != nil {
			return err
		}
		tx2, _ := in.Begin()
		if _, err := in.Read(p, tx2, "t", 1); err == nil {
			return fmt.Errorf("read from dropped table succeeded")
		}
		_ = in.Rollback(p, tx2)
		if err := in.DropTable(p, "t"); err == nil {
			return fmt.Errorf("double drop succeeded")
		}
		return nil
	})
}

// stageRows stages the rows for table t and returns the images.
func stageRows(in *Instance, rows map[int64][]byte) ([]*storage.Block, error) {
	st, err := in.StageTable("t")
	if err != nil {
		return nil, err
	}
	for key, row := range rows {
		st.Put(key, row)
	}
	return st.Images(), nil
}

func TestStagedLoadThenScan(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		rows := make(map[int64][]byte)
		for i := int64(0); i < 200; i++ {
			rows[i] = []byte{byte(i)}
		}
		images, err := stageRows(in, rows)
		if err != nil {
			return err
		}
		if err := in.InstallImages(p, "t", images); err != nil {
			return err
		}
		n := 0
		if err := in.Scan(p, "t", func(k int64, v []byte) bool {
			n++
			return true
		}); err != nil {
			return err
		}
		if n != 200 {
			return fmt.Errorf("scanned %d rows", n)
		}
		// Loaded rows are readable transactionally too.
		tx, _ := in.Begin()
		v, err := in.Read(p, tx, "t", 77)
		if err != nil {
			return err
		}
		if v[0] != 77 {
			return fmt.Errorf("row 77 = %v", v)
		}
		return in.Commit(p, tx)
	})
}

// An install is one block read and one block write per staged block; the
// datafile takes the staged image itself, marked shared, so the same set
// installs again elsewhere and a later Put on it panics; a block that already
// holds rows keeps them, the staged rows merged into a copy; and a set staged
// for another layout is refused, not misplaced.
func TestInstallImagesSharesMergesAndRefuses(t *testing.T) {
	k, fs, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		tbl, err := in.Catalog().Table("t")
		if err != nil {
			return err
		}
		first, err := stageRows(in, map[int64][]byte{1: {1}, 2: {2}})
		if err != nil {
			return err
		}
		r0, w0, _, _ := fs.Disk(DiskData1).Stats()
		if err := in.InstallImages(p, "t", first); err != nil {
			return err
		}
		if r1, w1, _, _ := fs.Disk(DiskData1).Stats(); r1-r0 != 2 || w1-w0 != 2 {
			return fmt.Errorf("installing 2 blocks cost %d reads and %d writes, want 2 and 2", r1-r0, w1-w0)
		}
		home := -1 // row 2's block, by position
		for no, ref := range tbl.Blocks() {
			if ref == tbl.BlockFor(2) {
				home = no
			}
		}
		ref := tbl.Blocks()[home]
		if ref.File.PeekBlock(ref.No) != first[home] || !first[home].Shared() {
			return fmt.Errorf("the datafile holds a copy of the staged image, or holds it unshared")
		}
		if !panics(func() { first[home].Put(99, []byte{99}) }) {
			return fmt.Errorf("Put on an installed image did not panic")
		}

		// A second load into the same blocks: old and new rows, and the
		// first set still what it was.
		second, err := stageRows(in, map[int64][]byte{2: {22}, 3: {3}})
		if err != nil {
			return err
		}
		if err := in.InstallImages(p, "t", second); err != nil {
			return err
		}
		got := map[int64]byte{}
		if err := in.Scan(p, "t", func(k int64, v []byte) bool { got[k] = v[0]; return true }); err != nil {
			return err
		}
		if len(got) != 3 || got[1] != 1 || got[2] != 22 || got[3] != 3 {
			return fmt.Errorf("after the second load the table holds %v, want 1:1 2:22 3:3", got)
		}
		if len(first[home].Rows) != 1 || first[home].Rows[2][0] != 2 || ref.File.PeekBlock(ref.No) == first[home] {
			return fmt.Errorf("the merge wrote through the first set's image")
		}

		if err := in.InstallImages(p, "t", second[:len(second)-1]); err == nil {
			return fmt.Errorf("a set one block short was installed")
		}
		return nil
	})
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestControlFileLossCrashesOnCheckpoint(t *testing.T) {
	k, fs, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		if err := fs.Delete("control.ctl"); err != nil {
			return err
		}
		if err := in.Checkpoint(p); err == nil {
			return fmt.Errorf("checkpoint with lost control file succeeded")
		}
		if in.State() != StateDown {
			return fmt.Errorf("instance still %v after control file loss", in.State())
		}
		return nil
	})
}

// A SHUTDOWN IMMEDIATE that cannot roll a transaction back (its datafile is
// offline) fails and leaves the instance open, accepting work again, with
// the rollback handed to PMON.
func TestFailedShutdownLeavesTheInstanceOpen(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		tx, _ := in.Begin()
		if err := in.Insert(p, tx, "t", 1, []byte("v")); err != nil {
			return err
		}
		ts, err := in.DB().Tablespace("USERS")
		if err != nil {
			return err
		}
		if err := in.OfflineDatafile(p, ts.Files[0].Name); err != nil {
			return err
		}
		if err := in.ShutdownImmediate(p); !errors.Is(err, storage.ErrFileOffline) {
			return fmt.Errorf("SHUTDOWN IMMEDIATE with a rollback on an offline file: %v, want %v", err, storage.ErrFileOffline)
		}
		if in.State() != StateOpen || in.Crashed() || in.Txns().ZombieCount() != 1 {
			return fmt.Errorf("after the failed shutdown: %v, crashed=%v, %d zombies; want open and the failed rollback PMON's",
				in.State(), in.Crashed(), in.Txns().ZombieCount())
		}
		tx2, err := in.Begin()
		if err != nil {
			return err
		}
		return in.Commit(p, tx2)
	})
}

// A crash while SHUTDOWN IMMEDIATE's checkpoint drains the cache fails the
// shutdown and leaves the control file as the crash left it: neither the
// checkpoint position nor the stop SCN moves, so the next Open demands
// recovery.
func TestCrashDuringShutdownCheckpointNeedsRecovery(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		for i := int64(0); i < 8; i++ {
			tx, _ := in.Begin()
			if err := in.Insert(p, tx, "t", i, []byte("v")); err != nil {
				return err
			}
			if err := in.Commit(p, tx); err != nil {
				return err
			}
		}
		ckpt := in.DB().Control.CheckpointSCN
		// Abort while the drain writes its last dirty buffer: the drain
		// then ends without an error of its own.
		k.Go("abort", func(q *sim.Proc) {
			for !in.CheckpointInProgress() || in.Cache().DirtyCount() > 1 {
				q.Sleep(100 * time.Microsecond)
			}
			in.Crash()
		})
		if err := in.ShutdownImmediate(p); !errors.Is(err, ErrInstanceDown) {
			return fmt.Errorf("SHUTDOWN IMMEDIATE crashed in its checkpoint: %v, want %v", err, ErrInstanceDown)
		}
		if got := in.DB().Control.CheckpointSCN; got != ckpt {
			return fmt.Errorf("checkpoint SCN moved from %d to %d across the crash", ckpt, got)
		}
		if err := in.Open(p); !errors.Is(err, ErrCrashRecoveryNeeded) {
			return fmt.Errorf("Open after the crash: %v, want %v", err, ErrCrashRecoveryNeeded)
		}
		return nil
	})
}

func TestCrashStopsBackgroundProcesses(t *testing.T) {
	k, _, in := newInstance(t, func(c *Config) {
		c.Redo.ArchiveMode = true
		c.CheckpointTimeout = 30 * time.Second
	})
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		in.Crash()
		p.Sleep(time.Minute)
		if in.Log().Running() {
			return fmt.Errorf("LGWR still running after crash")
		}
		if in.Archiver().Running() {
			return fmt.Errorf("ARCH still running after crash")
		}
		return nil
	})
	// The kernel should quiesce (no leaked busy processes).
	k.RunAll()
	if k.Procs() != 0 {
		t.Fatalf("leaked processes: %d", k.Procs())
	}
}
