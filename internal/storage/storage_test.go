package storage

import (
	"errors"
	"testing"
	"testing/quick"

	"dbench/internal/sim"
	"dbench/internal/simdisk"
)

func newTestDB(t *testing.T) (*sim.Kernel, *simdisk.FS, *DB) {
	t.Helper()
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("data1"), simdisk.DefaultSpec("data2"))
	db, err := NewDB(fs, "data1")
	if err != nil {
		t.Fatal(err)
	}
	return k, fs, db
}

func run(k *sim.Kernel, fn func(p *sim.Proc)) {
	k.Go("t", fn)
	k.RunAll()
}

func TestCreateTablespaceAllocatesFiles(t *testing.T) {
	k, fs, db := newTestDB(t)
	_ = k
	ts, err := db.CreateTablespace("USERS", []string{"data1", "data2"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Files) != 2 {
		t.Fatalf("files = %d", len(ts.Files))
	}
	for _, f := range ts.Files {
		if f.SizeBytes() != 10*BlockSize {
			t.Fatalf("%s size = %d", f.Name, f.SizeBytes())
		}
	}
	if _, err := fs.Open("USERS_01.dbf"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTablespace("USERS", []string{"data1"}, 1); err == nil {
		t.Fatal("duplicate tablespace accepted")
	}
}

func TestSystemTablespaceProtected(t *testing.T) {
	_, _, db := newTestDB(t)
	ts, err := db.CreateTablespace("SYSTEM", []string{"data1"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.System() {
		t.Fatal("SYSTEM not marked system")
	}
	if err := db.DropTablespace("SYSTEM"); err == nil {
		t.Fatal("dropped SYSTEM tablespace")
	}
}

func TestBlockReadWriteRoundTrip(t *testing.T) {
	k, _, db := newTestDB(t)
	ts, _ := db.CreateTablespace("USERS", []string{"data1"}, 4)
	f := ts.Files[0]
	run(k, func(p *sim.Proc) {
		b := NewBlock()
		b.Rows[42] = []byte("hello")
		b.SCN = 7
		if err := f.WriteBlock(p, 2, b); err != nil {
			t.Error(err)
			return
		}
		// WriteBlock took b over: it is the durable image now, not a copy.
		if f.PeekBlock(2) != b {
			t.Error("WriteBlock copied the image it was handed")
		}
		got, err := f.ReadBlock(p, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if string(got.Rows[42]) != "hello" || got.SCN != 7 {
			t.Errorf("got rows=%q scn=%d", got.Rows[42], got.SCN)
		}
		// Mutating the returned copy must not affect the image either.
		got.Rows[42] = []byte("x")
		again, _ := f.ReadBlock(p, 2)
		if string(again.Rows[42]) != "hello" {
			t.Errorf("image aliased: %q", again.Rows[42])
		}
	})
}

// A clone's rows share one backing array; each must still behave as its own
// slice: writing through or growing one leaves its neighbours and the
// original alone.
func TestCloneRowsIndependent(t *testing.T) {
	b := NewBlock()
	b.SCN, b.Rows[1], b.Rows[2], b.Rows[3] = 9, []byte("aaaa"), []byte("bbbb"), nil
	c := b.Clone()
	for k, v := range c.Rows {
		if len(v) != cap(v) {
			t.Errorf("row %d: cap %d beyond len %d reaches into a neighbour", k, cap(v), len(v))
		}
		c.Rows[k] = append(v, "zz"...)
		copy(v, "ZZZZ")
	}
	if string(c.Rows[1]) != "aaaazz" || string(c.Rows[2]) != "bbbbzz" || string(c.Rows[3]) != "zz" {
		t.Errorf("grown rows: %q %q %q", c.Rows[1], c.Rows[2], c.Rows[3])
	}
	if string(b.Rows[1]) != "aaaa" || string(b.Rows[2]) != "bbbb" || c.SCN != 9 || len(c.Rows) != 3 {
		t.Errorf("original touched or clone incomplete: %q %q scn %d rows %d", b.Rows[1], b.Rows[2], c.SCN, len(c.Rows))
	}
}

func TestBlockOutOfRange(t *testing.T) {
	k, _, db := newTestDB(t)
	ts, _ := db.CreateTablespace("USERS", []string{"data1"}, 2)
	f := ts.Files[0]
	run(k, func(p *sim.Proc) {
		if _, err := f.ReadBlock(p, 2); err == nil {
			t.Error("read out of range succeeded")
		}
		if err := f.WriteBlock(p, -1, NewBlock()); err == nil {
			t.Error("write out of range succeeded")
		}
	})
}

func TestDeletedDatafileFailsIO(t *testing.T) {
	k, fs, db := newTestDB(t)
	ts, _ := db.CreateTablespace("USERS", []string{"data1"}, 2)
	f := ts.Files[0]
	if err := fs.Delete(f.Name); err != nil {
		t.Fatal(err)
	}
	run(k, func(p *sim.Proc) {
		if _, err := f.ReadBlock(p, 0); !errors.Is(err, ErrFileLost) {
			t.Errorf("read err = %v, want ErrFileLost", err)
		}
		if err := f.WriteBlock(p, 0, NewBlock()); !errors.Is(err, ErrFileLost) {
			t.Errorf("write err = %v, want ErrFileLost", err)
		}
	})
	if !f.Lost() {
		t.Fatal("datafile not Lost after delete")
	}
}

func TestOfflineDatafileFailsIO(t *testing.T) {
	k, _, db := newTestDB(t)
	ts, _ := db.CreateTablespace("USERS", []string{"data1"}, 2)
	f := ts.Files[0]
	f.SetOnline(false)
	run(k, func(p *sim.Proc) {
		if _, err := f.ReadBlock(p, 0); !errors.Is(err, ErrFileOffline) {
			t.Errorf("read err = %v, want ErrFileOffline", err)
		}
	})
	f.SetOnline(true)
	run(sim.NewKernel(2), func(p *sim.Proc) {
		if _, err := f.ReadBlock(p, 0); err != nil {
			t.Errorf("read after online: %v", err)
		}
	})
}

func TestTablespaceOfflineTogglesFiles(t *testing.T) {
	_, _, db := newTestDB(t)
	ts, _ := db.CreateTablespace("USERS", []string{"data1", "data2"}, 2)
	ts.SetOnline(false)
	for _, f := range ts.Files {
		if f.Online() {
			t.Fatal("file online after tablespace offline")
		}
	}
	if ts.Online() {
		t.Fatal("tablespace still online")
	}
	ts.SetOnline(true)
	for _, f := range ts.Files {
		if !f.Online() {
			t.Fatal("file offline after tablespace online")
		}
	}
}

func TestCorruptedBlockDetectedOnRead(t *testing.T) {
	k, _, db := newTestDB(t)
	ts, _ := db.CreateTablespace("USERS", []string{"data1"}, 2)
	f := ts.Files[0]
	f.PeekBlock(1).Corrupt = true
	run(k, func(p *sim.Proc) {
		if _, err := f.ReadBlock(p, 1); !errors.Is(err, ErrBlockCorrupted) {
			t.Errorf("err = %v, want ErrBlockCorrupted", err)
		}
		if _, err := f.ReadBlock(p, 0); err != nil {
			t.Errorf("clean block err = %v", err)
		}
	})
}

func TestSnapshotAndInstallImages(t *testing.T) {
	k, _, db := newTestDB(t)
	ts, _ := db.CreateTablespace("USERS", []string{"data1"}, 3)
	f := ts.Files[0]
	run(k, func(p *sim.Proc) {
		b := NewBlock()
		b.Rows[1] = []byte("v1")
		b.SCN = 5
		_ = f.WriteBlock(p, 0, b)
	})
	snap := f.SnapshotImages()
	// Change the live image after the snapshot.
	f.PeekBlock(0).Rows[1] = []byte("v2")
	if string(snap[0].Rows[1]) != "v1" {
		t.Fatal("snapshot aliased to live image")
	}
	f.InstallImages(snap)
	if string(f.PeekBlock(0).Rows[1]) != "v1" {
		t.Fatal("install did not restore snapshot")
	}
	if f.NumBlocks() != 3 {
		t.Fatalf("blocks = %d", f.NumBlocks())
	}
}

func TestDropAndReattachTablespace(t *testing.T) {
	_, fs, db := newTestDB(t)
	ts, _ := db.CreateTablespace("USERS", []string{"data1"}, 2)
	if err := db.DropTablespace("USERS"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Tablespace("USERS"); err == nil {
		t.Fatal("dropped tablespace still visible")
	}
	if _, err := fs.Open("USERS_01.dbf"); err == nil {
		t.Fatal("datafile survived drop")
	}
	if err := db.ReattachTablespace(ts); err != nil {
		t.Fatal(err)
	}
	got, err := db.Tablespace("USERS")
	if err != nil {
		t.Fatal(err)
	}
	if got.Lost() || !got.Online() {
		t.Fatalf("reattached: lost=%v online=%v", got.Lost(), got.Online())
	}
}

func TestControlFileLoss(t *testing.T) {
	k, fs, db := newTestDB(t)
	run(k, func(p *sim.Proc) {
		if err := db.Control.Update(p); err != nil {
			t.Error(err)
		}
	})
	if err := fs.Delete("control.ctl"); err != nil {
		t.Fatal(err)
	}
	if !db.Control.Lost() {
		t.Fatal("control not lost")
	}
	run(sim.NewKernel(2), func(p *sim.Proc) {
		if err := db.Control.Update(p); !errors.Is(err, ErrControlLost) {
			t.Errorf("err = %v, want ErrControlLost", err)
		}
	})
}

func TestDatafileLookupAndTotals(t *testing.T) {
	_, _, db := newTestDB(t)
	_, _ = db.CreateTablespace("A", []string{"data1"}, 2)
	_, _ = db.CreateTablespace("B", []string{"data2"}, 3)
	if _, err := db.Datafile("A_01.dbf"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Datafile("nope.dbf"); err == nil {
		t.Fatal("unknown datafile found")
	}
	files := db.Datafiles()
	if len(files) != 2 || files[0].Name != "A_01.dbf" || files[1].Name != "B_01.dbf" {
		t.Fatalf("files = %v", []string{files[0].Name, files[1].Name})
	}
}

// Property: WriteBlock then ReadBlock returns exactly what was written, for
// arbitrary row sets.
func TestQuickBlockRoundTrip(t *testing.T) {
	f := func(keys []int64, vals [][]byte) bool {
		k := sim.NewKernel(1)
		fs := simdisk.NewFS(simdisk.DefaultSpec("d"))
		db, err := NewDB(fs, "d")
		if err != nil {
			return false
		}
		ts, err := db.CreateTablespace("T", []string{"d"}, 1)
		if err != nil {
			return false
		}
		b := NewBlock()
		for i, key := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			b.Rows[key] = v
		}
		want := b.Clone()
		ok := true
		k.Go("t", func(p *sim.Proc) {
			if err := ts.Files[0].WriteBlock(p, 0, b); err != nil {
				ok = false
				return
			}
			got, err := ts.Files[0].ReadBlock(p, 0)
			if err != nil {
				ok = false
				return
			}
			if len(got.Rows) != len(want.Rows) {
				ok = false
				return
			}
			for key, v := range want.Rows {
				gv, present := got.Rows[key]
				if !present || string(gv) != string(v) {
					ok = false
					return
				}
			}
		})
		k.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
