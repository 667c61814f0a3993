package backup

import (
	"errors"
	"fmt"
	"strings"
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

// TestBackupOfLostFileFails: a backup that meets a lost datafile fails
// before it copies anything — even when the lost file comes last — so it
// charges no I/O and leaves no piece under the ID the next backup reuses,
// and that next backup succeeds once the file is back.
func TestBackupOfLostFileFails(t *testing.T) {
	r := newRig(t)
	if _, err := r.db.CreateTablespace("ZETA", []string{"data"}, 8); err != nil {
		t.Fatal(err)
	}
	pieces := func() (names []string) {
		for _, name := range r.fs.Files() {
			if strings.HasPrefix(name, "backup_") {
				names = append(names, name)
			}
		}
		return names
	}
	r.run(t, func(p *sim.Proc) error {
		lost := r.db.Datafiles()[1]
		if err := r.fs.Delete(lost.File().Name()); err != nil {
			return err
		}
		if _, err := r.m.TakeFull(p, r.db, r.cat, 1); err == nil || !strings.Contains(err.Error(), lost.Name) {
			t.Errorf("backup with %s lost: err = %v, want it named", lost.Name, err)
		}
		if got := pieces(); len(got) != 0 {
			t.Errorf("the failed backup left pieces behind: %q", got)
		}
		if _, w, _, _ := r.fs.Disk("arch").Stats(); w != 0 {
			t.Errorf("the failed backup charged %d writes to the arch disk", w)
		}
		if _, err := r.fs.Restore(lost.File().Name(), lost.SizeBytes()); err != nil {
			return err
		}
		b, err := r.m.TakeFull(p, r.db, r.cat, 2)
		if err != nil {
			return fmt.Errorf("backup after the file came back: %w", err)
		}
		want := []string{"backup_01_" + r.db.Datafiles()[0].Name, "backup_01_" + lost.Name}
		if got := pieces(); b.ID != 1 || strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("backup %d with pieces %q, want backup 1 with %q", b.ID, got, want)
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
