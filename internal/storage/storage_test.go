package storage

import (
	"errors"
	"runtime"
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
		// What ReadBlock returned is the image itself, shared: its holder
		// changes a clone, and that must not affect the image.
		if got != b || !got.Shared() {
			t.Error("ReadBlock copied the image or left it unmarked")
		}
		got.Clone().Put(42, []byte("x"))
		again, _ := f.ReadBlock(p, 2)
		if string(again.Rows[42]) != "hello" {
			t.Errorf("image aliased: %q", again.Rows[42])
		}
	})
}

// A clone shares its rows' bytes with the original — here rows of one load
// buffer, as the load's chunks lay them out — and copies only the index; each row
// must still behave as its own slice: replacing or growing one leaves its
// neighbours and the original alone. (Writing through one is what DESIGN.md
// §4b rules out; nothing guards against it but views_test.go.)
func TestCloneRowsIndependent(t *testing.T) {
	b, buf := NewBlock(), []byte("aaaabbbb")
	b.SCN, b.Rows[1], b.Rows[2], b.Rows[3] = 9, buf[0:4:4], buf[4:8:8], nil
	c := b.Share().Clone()
	if c.Shared() {
		t.Error("a clone starts out shared")
	}
	for k, v := range c.Rows {
		if len(v) != cap(v) {
			t.Errorf("row %d: cap %d beyond len %d reaches into a neighbour", k, cap(v), len(v))
		}
		c.Put(k, append(v, "zz"...))
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
	f.EditBlock(0).Put(1, []byte("v2"))
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
	// A set its caller built and keeps is shared the same way.
	own := []*Block{NewBlock()}
	own[0].Put(1, []byte("kept"))
	f.InstallImages(own)
	f.EditBlock(0).Put(1, []byte("v3"))
	if string(own[0].Rows[1]) != "kept" || string(f.PeekBlock(0).Rows[1]) != "v3" {
		t.Fatalf("installed set aliased to live image: %q, live %q", own[0].Rows[1], f.PeekBlock(0).Rows[1])
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

var (
	sinkBlock *Block
	sinkRows  map[int64][]byte
)

// Clone costs the Block and its presized row index, nothing per row and no
// row bytes: the copy points at the original's row images.
func TestCloneCopiesTheIndexNotTheRows(t *testing.T) {
	const rows, rowLen = 25, 310 // a loaded stock block
	b := NewBlock()
	for i := int64(0); i < rows; i++ {
		b.Rows[i] = make([]byte, rowLen)
	}
	index := testing.AllocsPerRun(100, func() { sinkRows = make(map[int64][]byte, rows) })
	if got := testing.AllocsPerRun(100, func() { sinkBlock = b.Clone() }); got != index+1 {
		t.Errorf("Clone of a %d-row block allocates %v objects, want the Block and a presized map's %v", rows, got, index)
	}
	const n = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		sinkBlock = b.Clone()
	}
	runtime.ReadMemStats(&m1)
	if perClone := (m1.TotalAlloc - m0.TotalAlloc) / n; perClone >= rows*rowLen/2 {
		t.Errorf("Clone allocates %d bytes for %d bytes of rows: it copies them", perClone, rows*rowLen)
	}
	for k, v := range sinkBlock.Rows {
		if &v[0] != &b.Rows[k][0] {
			t.Fatalf("row %d of the clone is a copy", k)
		}
	}
}

func TestChangeToSharedImagePanics(t *testing.T) {
	b := NewBlock()
	b.Put(1, []byte("mine"))
	b.Remove(1)
	b.Put(1, []byte("mine"))
	b.Share()
	for name, change := range map[string]func(){
		"Put":    func() { b.Put(1, []byte("theirs")) },
		"Remove": func() { b.Remove(1) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "storage: change to a shared block image" {
					t.Errorf("%s on a shared image: recovered %v", name, r)
				}
			}()
			change()
		}()
	}
	if string(b.Rows[1]) != "mine" {
		t.Errorf("shared image reads %q", b.Rows[1])
	}
	c := b.Clone()
	c.Put(1, []byte("theirs")) // the clone is its holder's own
	if string(b.Rows[1]) != "mine" {
		t.Errorf("shared image reads %q after a change to its clone", b.Rows[1])
	}
}
