package simdisk

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dbench/internal/sim"
)

func testFS() *FS {
	return NewFS(DefaultSpec("data"), DefaultSpec("redo"))
}

// runProc runs fn as the single process on a fresh kernel and returns the
// final virtual time.
func runProc(t *testing.T, fs *FS, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	k := sim.NewKernel(1)
	k.Go("t", fn)
	return k.RunAll()
}

func TestCreateOpenDelete(t *testing.T) {
	fs := testFS()
	if _, err := fs.Create("data", "f1", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("data", "f1", 100); !errors.Is(err, ErrExists) {
		t.Fatalf("dup create err = %v, want ErrExists", err)
	}
	if _, err := fs.Create("nodisk", "f2", 1); !errors.Is(err, ErrNoDisk) {
		t.Fatalf("bad disk err = %v, want ErrNoDisk", err)
	}
	f, err := fs.Open("f1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100 {
		t.Fatalf("size = %d, want 100", f.Size())
	}
	if err := fs.Delete("f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("f1"); !errors.Is(err, ErrDeleted) {
		t.Fatalf("open deleted err = %v, want ErrDeleted", err)
	}
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open missing err = %v, want ErrNotFound", err)
	}
	// Lookup still sees the deleted file.
	if _, err := fs.Lookup("f1"); err != nil {
		t.Fatalf("lookup deleted: %v", err)
	}
}

func TestReadChargesPositionPlusTransfer(t *testing.T) {
	fs := testFS()
	f, err := fs.Create("data", "f", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	spec := fs.Disk("data").Spec()
	end := runProc(t, fs, func(p *sim.Proc) {
		if err := f.Read(p, 0, 1<<20); err != nil {
			t.Error(err)
		}
	})
	wantTransfer := time.Duration(int64(1<<20) * int64(time.Second) / spec.TransferBytesPerSec)
	want := sim.Time(spec.Position + wantTransfer)
	if end != want {
		t.Fatalf("elapsed = %v, want %v", end, want)
	}
}

func TestSequentialAccessIsDiscounted(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("data", "f", 1<<20)
	spec := fs.Disk("data").Spec()
	const sz = 64 << 10
	end := runProc(t, fs, func(p *sim.Proc) {
		_ = f.Read(p, 0, sz)    // random position
		_ = f.Read(p, sz, sz)   // sequential continuation
		_ = f.Read(p, 3*sz, sz) // random again (gap)
	})
	transfer := time.Duration(int64(sz) * int64(time.Second) / spec.TransferBytesPerSec)
	want := sim.Time(2*spec.Position + spec.SeqPosition + 3*transfer)
	if end != want {
		t.Fatalf("elapsed = %v, want %v", end, want)
	}
}

func TestWritesExtendFile(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("data", "f", 0)
	runProc(t, fs, func(p *sim.Proc) {
		_ = f.Append(p, 10)
		_ = f.Append(p, 10)
		_ = f.Write(p, 100, 5)
	})
	if f.Size() != 105 {
		t.Fatalf("size = %d, want 105", f.Size())
	}
}

func TestDiskQueueingSerialises(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("data", "f", 1<<30)
	spec := fs.Disk("data").Spec()
	k := sim.NewKernel(1)
	var last sim.Time
	for i := 0; i < 3; i++ {
		off := int64(i) * (100 << 20) // far apart: random accesses
		k.Go("r", func(p *sim.Proc) {
			_ = f.Read(p, off, 0)
			last = p.Now()
		})
	}
	k.RunAll()
	// Three queued zero-byte random accesses: 3 * Position.
	if want := sim.Time(3 * spec.Position); last != want {
		t.Fatalf("last = %v, want %v", last, want)
	}
}

func TestSeparateDisksOverlap(t *testing.T) {
	fs := testFS()
	fd, _ := fs.Create("data", "fd", 1<<20)
	fr, _ := fs.Create("redo", "fr", 1<<20)
	spec := fs.Disk("data").Spec()
	k := sim.NewKernel(1)
	var endD, endR sim.Time
	k.Go("d", func(p *sim.Proc) { _ = fd.Read(p, 0, 0); endD = p.Now() })
	k.Go("r", func(p *sim.Proc) { _ = fr.Read(p, 0, 0); endR = p.Now() })
	k.RunAll()
	if endD != sim.Time(spec.Position) || endR != sim.Time(spec.Position) {
		t.Fatalf("ends = %v, %v; want both %v", endD, endR, spec.Position)
	}
}

func TestCorruptAndRestore(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("data", "f", 50)
	if err := fs.Corrupt("f"); err != nil {
		t.Fatal(err)
	}
	if !f.Corrupted() {
		t.Fatal("file not corrupted")
	}
	if _, err := fs.Restore("f", 80); err != nil {
		t.Fatal(err)
	}
	if f.Corrupted() || f.Deleted() || f.Size() != 80 {
		t.Fatalf("restore: corrupted=%v deleted=%v size=%d", f.Corrupted(), f.Deleted(), f.Size())
	}
	// Restore also revives deleted files.
	_ = fs.Delete("f")
	if _, err := fs.Restore("f", 10); err != nil {
		t.Fatal(err)
	}
	if f.Deleted() {
		t.Fatal("still deleted after restore")
	}
}

func TestReadDeletedFails(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("data", "f", 100)
	_ = fs.Delete("f")
	runProc(t, fs, func(p *sim.Proc) {
		if err := f.Read(p, 0, 10); !errors.Is(err, ErrDeleted) {
			t.Errorf("read deleted err = %v", err)
		}
		if err := f.Write(p, 0, 10); !errors.Is(err, ErrDeleted) {
			t.Errorf("write deleted err = %v", err)
		}
	})
}

func TestFilesListsSortedLive(t *testing.T) {
	fs := testFS()
	_, _ = fs.Create("data", "b", 1)
	_, _ = fs.Create("data", "a", 1)
	_, _ = fs.Create("data", "c", 1)
	_ = fs.Delete("b")
	got := fs.Files()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("files = %v", got)
	}
}

func TestDiskNamesSorted(t *testing.T) {
	fs := NewFS(DefaultSpec("z"), DefaultSpec("a"), DefaultSpec("m"))
	got := fs.DiskNames()
	if len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Fatalf("names = %v", got)
	}
}

// Property: total time to sequentially scan a file equals position +
// seq-positions + transfer time, i.e. scan cost is monotone in size.
func TestQuickScanMonotone(t *testing.T) {
	scanTime := func(size int64) sim.Time {
		fs := testFS()
		f, _ := fs.Create("data", "f", size)
		k := sim.NewKernel(1)
		k.Go("s", func(p *sim.Proc) { _ = f.ReadAll(p) })
		return k.RunAll()
	}
	f := func(aKB, bKB uint16) bool {
		a, b := int64(aKB)<<10, int64(bKB)<<10
		ta, tb := scanTime(a), scanTime(b)
		if a <= b {
			return ta <= tb
		}
		return tb <= ta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: byte counters equal the sum of requested accesses.
func TestQuickByteAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		fs := testFS()
		file, _ := fs.Create("data", "f", 1<<30)
		var want int64
		k := sim.NewKernel(1)
		k.Go("w", func(p *sim.Proc) {
			for _, s := range sizes {
				_ = file.Write(p, 0, int64(s))
			}
		})
		k.RunAll()
		for _, s := range sizes {
			want += int64(s)
		}
		_, _, _, wb := fs.Disk("data").Stats()
		return wb == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
