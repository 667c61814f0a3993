package bufcache

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
)

type fixture struct {
	k  *sim.Kernel
	fs *simdisk.FS
	db *storage.DB
	ts *storage.Tablespace
	c  *Cache
}

func newFixture(t *testing.T, capacity, blocks int) *fixture {
	t.Helper()
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("data"))
	db, err := storage.NewDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := db.CreateTablespace("USERS", []string{"data"}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{k: k, fs: fs, db: db, ts: ts, c: New(k, capacity)}
}

func (f *fixture) ref(no int) storage.BlockRef {
	return storage.BlockRef{File: f.ts.Files[0], No: no}
}

func (f *fixture) run(fn func(p *sim.Proc)) {
	f.k.Go("t", fn)
	f.k.RunAll()
}

func TestGetMissThenHit(t *testing.T) {
	f := newFixture(t, 4, 8)
	f.run(func(p *sim.Proc) {
		if _, err := f.c.Get(p, f.ref(0)); err != nil {
			t.Error(err)
		}
		if _, err := f.c.Get(p, f.ref(0)); err != nil {
			t.Error(err)
		}
	})
	st := f.c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1", st.Misses, st.Hits)
	}
	r, _, _, _ := f.fs.Disk("data").Stats()
	if r != 1 {
		t.Fatalf("disk reads = %d, want 1", r)
	}
}

func TestLRUEvictsColdest(t *testing.T) {
	f := newFixture(t, 2, 8)
	f.run(func(p *sim.Proc) {
		_, _ = f.c.Get(p, f.ref(0))
		_, _ = f.c.Get(p, f.ref(1))
		_, _ = f.c.Get(p, f.ref(0)) // promote 0
		_, _ = f.c.Get(p, f.ref(2)) // evicts 1
	})
	if _, ok := f.c.Peek(f.ref(1)); ok {
		t.Fatal("block 1 should have been evicted")
	}
	if _, ok := f.c.Peek(f.ref(0)); !ok {
		t.Fatal("block 0 (promoted) should be resident")
	}
	if f.c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", f.c.Stats().Evictions)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	f := newFixture(t, 1, 4)
	f.run(func(p *sim.Proc) {
		if _, err := f.c.Get(p, f.ref(0)); err != nil {
			t.Error(err)
			return
		}
		f.c.MarkDirty(f.ref(0), 10).Put(7, []byte("seven"))
		// Force eviction of the dirty block.
		if _, err := f.c.Get(p, f.ref(1)); err != nil {
			t.Error(err)
			return
		}
	})
	if f.c.Stats().DirtyEvictWrites != 1 {
		t.Fatalf("dirty evict writes = %d", f.c.Stats().DirtyEvictWrites)
	}
	// The durable image must now contain the change.
	img := f.ts.Files[0].PeekBlock(0)
	if string(img.Rows[7]) != "seven" || img.SCN != 10 {
		t.Fatalf("image rows=%q scn=%d", img.Rows[7], img.SCN)
	}
	if f.c.DirtyCount() != 0 {
		t.Fatalf("dirty = %d", f.c.DirtyCount())
	}
}

func TestCheckpointDrainsDirty(t *testing.T) {
	f := newFixture(t, 8, 8)
	f.run(func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			_, _ = f.c.Get(p, f.ref(i))
			f.c.MarkDirty(f.ref(i), redo.SCN(i+1)).Put(int64(i), []byte{byte(i)})
		}
		n, err := f.c.Checkpoint(p)
		if err != nil {
			t.Error(err)
		}
		if n != 4 {
			t.Errorf("checkpoint wrote %d, want 4", n)
		}
	})
	if f.c.DirtyCount() != 0 {
		t.Fatalf("dirty = %d after checkpoint", f.c.DirtyCount())
	}
	if f.c.MinDirtySCN() != -1 {
		t.Fatalf("MinDirtySCN = %d, want -1", f.c.MinDirtySCN())
	}
	for i := 0; i < 4; i++ {
		img := f.ts.Files[0].PeekBlock(i)
		if string(img.Rows[int64(i)]) != string([]byte{byte(i)}) {
			t.Fatalf("block %d image missing change", i)
		}
	}
}

// Two checkpoints that write the same dirty buffer at once both get past
// the dirty check before either write lands, and both clean the buffer
// after it: the second must not count it clean again.
func TestConcurrentCheckpointsCleanABufferOnce(t *testing.T) {
	f := newFixture(t, 8, 8)
	f.run(func(p *sim.Proc) {
		if _, err := f.c.Get(p, f.ref(0)); err != nil {
			t.Fatal(err)
		}
		f.c.MarkDirty(f.ref(0), 1).Put(1, []byte("one"))
		err := sim.FanOut(f.k, "ckpt", [][]int{{0}, {1}}, func(cp *sim.Proc, _ int, _ []int) error {
			if _, err := f.c.Checkpoint(cp); err != nil {
				return err
			}
			if n := f.c.DirtyCount(); n < 0 {
				return fmt.Errorf("%s: dirty count %d after its checkpoint", cp.Name(), n)
			}
			return nil
		}).Join(p)
		if err != nil {
			t.Error(err)
		}
	})
	if n := f.c.DirtyCount(); n != 0 {
		t.Fatalf("dirty count = %d after two checkpoints of one dirty buffer, want 0", n)
	}
}

func TestMinDirtySCNTracksEarliest(t *testing.T) {
	f := newFixture(t, 8, 8)
	f.run(func(p *sim.Proc) {
		_, _ = f.c.Get(p, f.ref(0))
		f.c.MarkDirty(f.ref(0), 5).Put(0, []byte("x"))
		_, _ = f.c.Get(p, f.ref(1))
		f.c.MarkDirty(f.ref(1), 3).Put(0, []byte("y"))
		// Re-dirtying block 0 keeps its first dirty SCN.
		f.c.MarkDirty(f.ref(0), 9)
	})
	if got := f.c.MinDirtySCN(); got != 3 {
		t.Fatalf("MinDirtySCN = %d, want 3", got)
	}
}

func TestCheckpointSkipsLostFile(t *testing.T) {
	f := newFixture(t, 8, 8)
	f.run(func(p *sim.Proc) {
		_, _ = f.c.Get(p, f.ref(0))
		f.c.MarkDirty(f.ref(0), 1).Put(0, []byte("x"))
		if err := f.fs.Delete(f.ts.Files[0].Name); err != nil {
			t.Error(err)
		}
		n, err := f.c.Checkpoint(p)
		if err != nil {
			t.Error(err)
		}
		if n != 0 {
			t.Errorf("checkpoint wrote %d to lost file", n)
		}
	})
	if f.c.Stats().SkippedWrites != 1 {
		t.Fatalf("skipped = %d", f.c.Stats().SkippedWrites)
	}
	if f.c.DirtyCount() != 1 {
		t.Fatalf("dirty = %d, want 1 (still dirty)", f.c.DirtyCount())
	}
}

func TestNoEvictableWhenAllDirtyUnwritable(t *testing.T) {
	f := newFixture(t, 1, 4)
	f.run(func(p *sim.Proc) {
		_, _ = f.c.Get(p, f.ref(0))
		f.c.MarkDirty(f.ref(0), 1).Put(0, []byte("x"))
		if err := f.fs.Delete(f.ts.Files[0].Name); err != nil {
			t.Error(err)
		}
		_, err := f.c.Get(p, f.ref(1))
		if !errors.Is(err, ErrNoEvictable) {
			// The miss read itself may fail first; either way the
			// Get must fail.
			if err == nil {
				t.Error("Get succeeded with unwritable full cache")
			}
		}
	})
}

func TestInvalidateAllLosesDirtyData(t *testing.T) {
	f := newFixture(t, 8, 8)
	f.run(func(p *sim.Proc) {
		_, _ = f.c.Get(p, f.ref(0))
		f.c.MarkDirty(f.ref(0), 1).Put(0, []byte("volatile"))
	})
	f.c.InvalidateAll()
	if f.c.Len() != 0 || f.c.DirtyCount() != 0 {
		t.Fatalf("len=%d dirty=%d after invalidate", f.c.Len(), f.c.DirtyCount())
	}
	// The durable image never saw the change.
	if _, ok := f.ts.Files[0].PeekBlock(0).Rows[0]; ok {
		t.Fatal("durable image has uncheckpointed change")
	}
}

func TestInvalidateFileDropsOnlyThatFile(t *testing.T) {
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("data"))
	db, _ := storage.NewDB(fs, "data")
	ts, _ := db.CreateTablespace("U", []string{"data"}, 4)
	ts2, _ := db.CreateTablespace("V", []string{"data"}, 4)
	c := New(k, 8)
	k.Go("t", func(p *sim.Proc) {
		_, _ = c.Get(p, storage.BlockRef{File: ts.Files[0], No: 0})
		c.MarkDirty(storage.BlockRef{File: ts.Files[0], No: 0}, 1).Put(0, []byte("a"))
		_, _ = c.Get(p, storage.BlockRef{File: ts2.Files[0], No: 0})
	})
	k.RunAll()
	c.InvalidateFile(ts.Files[0])
	if _, ok := c.Peek(storage.BlockRef{File: ts.Files[0], No: 0}); ok {
		t.Fatal("file U block still resident")
	}
	if _, ok := c.Peek(storage.BlockRef{File: ts2.Files[0], No: 0}); !ok {
		t.Fatal("file V block wrongly dropped")
	}
	if c.DirtyCount() != 0 {
		t.Fatalf("dirty = %d", c.DirtyCount())
	}
}

func TestMarkDirtyNonResidentPanics(t *testing.T) {
	f := newFixture(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.c.MarkDirty(f.ref(0), 1)
}

// Property: after any sequence of writes and a checkpoint, every durable
// image matches the cache content.
func TestQuickCheckpointCoherence(t *testing.T) {
	prop := func(ops []uint8) bool {
		k := sim.NewKernel(1)
		fs := simdisk.NewFS(simdisk.DefaultSpec("data"))
		db, err := storage.NewDB(fs, "data")
		if err != nil {
			return false
		}
		ts, err := db.CreateTablespace("U", []string{"data"}, 8)
		if err != nil {
			return false
		}
		c := New(k, 4)
		want := make(map[int]byte)
		ok := true
		k.Go("t", func(p *sim.Proc) {
			scn := redo.SCN(1)
			for _, op := range ops {
				no := int(op % 8)
				ref := storage.BlockRef{File: ts.Files[0], No: no}
				if _, err := c.Get(p, ref); err != nil {
					ok = false
					return
				}
				c.MarkDirty(ref, scn).Put(0, []byte{op})
				scn++
				want[no] = op
			}
			if _, err := c.Checkpoint(p); err != nil {
				ok = false
			}
		})
		k.RunAll()
		if !ok {
			return false
		}
		for no, v := range want {
			img := ts.Files[0].PeekBlock(no)
			if len(img.Rows[0]) != 1 || img.Rows[0][0] != v {
				return false
			}
		}
		return c.DirtyCount() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A buffer modified while its write is in flight must not leak the newer
// change into the durable image, and must stay dirty from the change after
// the image. The flush wait and the disk write both yield, so a concurrent
// transaction can modify the buffer mid-write; persisting the live pointer
// would put a change on disk whose redo may never be flushed (a
// write-ahead violation), leaving an unrecoverable half-transaction after
// a crash. Found by the chaos harness (crash mid-checkpoint, C1 skew) in
// Checkpoint; the eviction pass and the two forced sweeps write through
// the same step (writeBack) and are held to the same scenario.
func TestCheckpointDoesNotPersistChangesMadeDuringWrite(t *testing.T) {
	writers := []struct {
		name  string
		write func(f *fixture, p *sim.Proc) error
	}{
		{"Checkpoint", func(f *fixture, p *sim.Proc) error {
			_, err := f.c.Checkpoint(p)
			return err
		}},
		{"tryEvict", func(f *fixture, p *sim.Proc) error {
			key := bufKey{file: f.ref(0).File, no: 0}
			yielded, evicted, err := f.c.tryEvict(p, f.c.shardFor(key))
			if !yielded || evicted {
				t.Errorf("tryEvict: yielded=%v evicted=%v, want a yielding pass that evicts nothing", yielded, evicted)
			}
			return err
		}},
		{"FlushFileForce", func(f *fixture, p *sim.Proc) error {
			return f.c.FlushFileForce(p, f.ts.Files[0])
		}},
		{"FlushBlocksForce", func(f *fixture, p *sim.Proc) error {
			return f.c.FlushBlocksForce(p, []storage.BlockRef{f.ref(0)})
		}},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			f := newFixture(t, 4, 8)
			flushed := redo.SCN(10) // everything at or below 10 is durable redo
			f.c.FlushLog = func(p *sim.Proc, scn redo.SCN) error {
				if scn > flushed {
					t.Errorf("flush forced to SCN %d: unflushed change reached the write path", scn)
				}
				p.Sleep(1) // yield, like a real group-commit wait
				return nil
			}
			f.run(func(p *sim.Proc) {
				if _, err := f.c.Get(p, f.ref(0)); err != nil {
					t.Fatal(err)
				}
				f.c.MarkDirty(f.ref(0), 10).Put(1, []byte("flushed-change"))

				done := false
				f.k.Go("writer", func(wp *sim.Proc) {
					if err := w.write(f, wp); err != nil {
						t.Error(err)
					}
					done = true
				})
				// Let the writer reach its flush wait, then modify the same
				// buffer with a newer, unflushed change.
				p.Yield()
				if _, err := f.c.Get(p, f.ref(0)); err != nil {
					t.Fatal(err)
				}
				f.c.MarkDirty(f.ref(0), 11).Put(2, []byte("unflushed-change"))
				for !done {
					p.Sleep(time.Millisecond)
				}

				img := f.ts.Files[0].PeekBlock(0)
				if string(img.Rows[1]) != "flushed-change" {
					t.Errorf("flushed change missing from durable image: %q", img.Rows[1])
				}
				if _, leaked := img.Rows[2]; leaked || img.SCN != flushed {
					t.Errorf("unflushed change leaked to disk: scn=%d rows[2]=%q", img.SCN, img.Rows[2])
				}
				if f.c.DirtyCount() != 1 {
					t.Errorf("dirty count = %d, want 1 (newer change still pending)", f.c.DirtyCount())
				}
				if got := f.c.MinDirtySCN(); got != img.SCN+1 {
					t.Errorf("first dirty SCN = %d, want %d (the change after the image)", got, img.SCN+1)
				}
			})
		})
	}
}

// A buffer whose newest change lies beyond the flushable redo horizon must
// be skipped by Checkpoint, not waited on: the log writer may be stalled
// on a group switch that only this checkpoint's completion can release
// (the deadlock the chaos harness hit at crash-point 14).
func TestCheckpointSkipsBufferWithUnflushableRedo(t *testing.T) {
	f := newFixture(t, 4, 8)
	f.c.FlushLog = func(p *sim.Proc, scn redo.SCN) error {
		if scn > 10 {
			t.Errorf("checkpoint forced unflushable SCN %d", scn)
		}
		return nil
	}
	f.c.FlushableSCN = func() redo.SCN { return 10 }
	f.run(func(p *sim.Proc) {
		if _, err := f.c.Get(p, f.ref(0)); err != nil {
			t.Fatal(err)
		}
		f.c.MarkDirty(f.ref(0), 5).Put(1, []byte("old"))
		if _, err := f.c.Get(p, f.ref(1)); err != nil {
			t.Fatal(err)
		}
		f.c.MarkDirty(f.ref(1), 20).Put(1, []byte("new"))

		written, err := f.c.Checkpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		if written != 1 {
			t.Fatalf("wrote %d blocks, want 1 (the flushable one)", written)
		}
	})
	if f.c.Stats().UnflushedSkips != 1 {
		t.Fatalf("UnflushedSkips = %d, want 1", f.c.Stats().UnflushedSkips)
	}
	if f.c.DirtyCount() != 1 {
		t.Fatalf("dirty = %d, want the skipped buffer to stay dirty", f.c.DirtyCount())
	}
	// The skipped buffer bounds the next recovery scan.
	if got := f.c.MinDirtySCN(); got != 20 {
		t.Fatalf("MinDirtySCN = %d, want 20", got)
	}
	if img := f.ts.Files[0].PeekBlock(1); len(img.Rows) != 0 {
		t.Fatal("skipped buffer must not reach disk")
	}
}
