package backup

import (
	"errors"
	"testing"
	"time"

	"dbench/internal/catalog"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
)

type rig struct {
	k   *sim.Kernel
	fs  *simdisk.FS
	db  *storage.DB
	cat *catalog.Catalog
	m   *Manager
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel(5)
	fs := simdisk.NewFS(simdisk.DefaultSpec("data"), simdisk.DefaultSpec("arch"))
	db, err := storage.NewDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	ts, err := db.CreateTablespace("USERS", []string{"data"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTableClustered("t", "u", ts, 4, 1); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, fs: fs, db: db, cat: cat, m: NewManager(k, fs, "arch")}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var got error
	r.k.Go("t", func(p *sim.Proc) { got = fn(p) })
	r.k.Run(sim.Time(time.Hour))
	if got != nil {
		t.Fatal(got)
	}
}

func TestLatestOnEmptyManager(t *testing.T) {
	r := newRig(t)
	if _, err := r.m.Latest(); !errors.Is(err, ErrNoBackup) {
		t.Fatalf("err = %v, want ErrNoBackup", err)
	}
}

func TestTakeFullAndRestoreDatafile(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		f := r.db.Datafiles()[0]
		img := storage.NewBlock()
		img.Rows[1] = []byte("v1")
		img.SCN = 9
		if err := f.WriteBlock(p, 0, img); err != nil {
			return err
		}
		b, err := r.m.TakeFull(p, r.db, r.cat, 9)
		if err != nil {
			return err
		}
		if !b.HasFile(f.Name) || b.SCN != 9 {
			return errorsNew(t, "backup missing file or wrong SCN")
		}
		// Mutate then lose the file. The backup holds img too by now: the
		// change goes into the image EditBlock hands out.
		img = f.EditBlock(0)
		img.Put(1, []byte("v2"))
		img.SCN = 12
		if err := f.WriteBlock(p, 0, img); err != nil {
			return err
		}
		if err := r.fs.Delete(f.File().Name()); err != nil {
			return err
		}
		if err := b.RestoreDatafile(p, r.fs, f.Name); err != nil {
			return err
		}
		got := f.PeekBlock(0)
		if string(got.Rows[1]) != "v1" || got.SCN != 9 {
			t.Errorf("restored rows=%q scn=%d, want backup state", got.Rows[1], got.SCN)
		}
		if f.Online() || !f.NeedsRecovery {
			t.Errorf("restored file online=%v needsRecovery=%v", f.Online(), f.NeedsRecovery)
		}
		// The restore charged I/O on both disks.
		_, _, rb, _ := r.fs.Disk("arch").Stats()
		if rb == 0 {
			t.Error("no archive-disk reads charged for restore")
		}
		return nil
	})
}

func TestRestoreUnknownFileFails(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		b, err := r.m.TakeFull(p, r.db, r.cat, 1)
		if err != nil {
			return err
		}
		if err := b.RestoreDatafile(p, r.fs, "nope.dbf"); !errors.Is(err, ErrNoBackup) {
			t.Errorf("err = %v, want ErrNoBackup", err)
		}
		return nil
	})
}

func TestBackupOfLostFileFails(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		f := r.db.Datafiles()[0]
		if err := r.fs.Delete(f.File().Name()); err != nil {
			return err
		}
		if _, err := r.m.TakeFull(p, r.db, r.cat, 1); err == nil {
			t.Error("backup of lost datafile succeeded")
		}
		return nil
	})
}

func TestRestoreAllRevivesDictionary(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		b, err := r.m.TakeFull(p, r.db, r.cat, 1)
		if err != nil {
			return err
		}
		// Post-backup dictionary mutation.
		if err := r.cat.DropTable("t"); err != nil {
			return err
		}
		if err := b.RestoreAllWorkers(p, r.fs, r.db, r.cat, 1); err != nil {
			return err
		}
		if _, err := r.cat.Table("t"); err != nil {
			t.Errorf("table not restored: %v", err)
		}
		return nil
	})
}

func errorsNew(t *testing.T, msg string) error {
	t.Helper()
	t.Error(msg)
	return nil
}
