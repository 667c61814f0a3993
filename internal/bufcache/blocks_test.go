package bufcache

import (
	"testing"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// TestFlushBlocksForceConfinesSweepToGivenBlocks pins the flashback
// cache discipline: flushing then invalidating a frozen table's segment
// must leave a dirty neighbour block in the same datafile untouched.
// The whole-file sweep this replaced silently discarded such a
// neighbour's committed change under live traffic — the dirty buffer
// was dropped after the file-wide flush had already passed it.
func TestFlushBlocksForceConfinesSweepToGivenBlocks(t *testing.T) {
	f := newFixture(t, 8, 8)
	f.run(func(p *sim.Proc) {
		for i, no := range []int{0, 1, 2} {
			if _, err := f.c.Get(p, f.ref(no)); err != nil {
				t.Fatal(err)
			}
			f.c.MarkDirty(f.ref(no), redo.SCN(10+i)).Put(int64(no), []byte("dirty"))
		}
		segment := []storage.BlockRef{f.ref(0), f.ref(1)}
		if err := f.c.FlushBlocksForce(p, segment); err != nil {
			t.Fatal(err)
		}
		// The segment's durable images carry the changes; the
		// neighbour's does not — it was not swept.
		for _, no := range []int{0, 1} {
			if img := f.ts.Files[0].PeekBlock(no); len(img.Rows) == 0 {
				t.Fatalf("block %d not flushed", no)
			}
		}
		if img := f.ts.Files[0].PeekBlock(2); len(img.Rows) != 0 {
			t.Fatal("neighbour block flushed by a segment-confined sweep")
		}

		f.c.InvalidateBlocks(segment)
		for _, no := range []int{0, 1} {
			if _, ok := f.c.Peek(f.ref(no)); ok {
				t.Fatalf("block %d still resident after invalidate", no)
			}
		}
		// The neighbour stays resident AND dirty: its committed change
		// must still reach disk on the next flush.
		if _, ok := f.c.Peek(f.ref(2)); !ok {
			t.Fatal("neighbour evicted by a segment-confined invalidate")
		}
		if f.c.DirtyCount() != 1 {
			t.Fatalf("dirty = %d, want the neighbour to stay dirty", f.c.DirtyCount())
		}
		if err := f.c.FlushBlocksForce(p, []storage.BlockRef{f.ref(2)}); err != nil {
			t.Fatal(err)
		}
		if img := f.ts.Files[0].PeekBlock(2); len(img.Rows) == 0 {
			t.Fatal("neighbour's change lost")
		}
	})
}

// TestInvalidateBlocksDropsDirtyWithoutWrite: the invalidate half of the
// flashback sweep deliberately discards listed dirty buffers unwritten —
// the rewind has already edited the durable images directly, and a
// write-back would clobber them.
func TestInvalidateBlocksDropsDirtyWithoutWrite(t *testing.T) {
	f := newFixture(t, 4, 4)
	f.run(func(p *sim.Proc) {
		if _, err := f.c.Get(p, f.ref(1)); err != nil {
			t.Fatal(err)
		}
		f.c.MarkDirty(f.ref(1), 3).Put(5, []byte("stale"))
		f.c.InvalidateBlocks([]storage.BlockRef{f.ref(1), f.ref(3)})
		if _, ok := f.c.Peek(f.ref(1)); ok {
			t.Fatal("still resident")
		}
		if img := f.ts.Files[0].PeekBlock(1); len(img.Rows) != 0 {
			t.Fatal("dirty buffer reached disk on invalidate")
		}
		if f.c.DirtyCount() != 0 {
			t.Fatalf("dirty = %d after invalidate", f.c.DirtyCount())
		}
		// Absent refs (block 3 was never cached) are a no-op; a fresh
		// Get re-reads the durable image.
		if _, err := f.c.Get(p, f.ref(1)); err != nil {
			t.Fatal(err)
		}
	})
}
