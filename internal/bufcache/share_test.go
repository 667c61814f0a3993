package bufcache

import (
	"testing"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

var sinkBlock *storage.Block

// A miss and an eviction write copy no block image — the buffer takes the
// durable image itself, the datafile takes the buffer's — and neither a
// miss nor an eviction pass allocates for the LRU order.
func TestMissAndWriteBackShareTheImage(t *testing.T) {
	const capacity = 64 // one shard
	f := newFixture(t, capacity, 2*capacity)
	file := f.ts.Files[0]
	f.run(func(p *sim.Proc) {
		next := 0
		get := func() (int, *storage.Block) {
			no := next % (2 * capacity)
			next++
			blk, err := f.c.Get(p, f.ref(no))
			if err != nil {
				t.Fatal(err)
			}
			return no, blk
		}
		for i := 0; i < capacity; i++ {
			get()
		}

		// Every Get from here on misses a full cache: an eviction pass,
		// a disk read, a new buffer.
		miss := testing.AllocsPerRun(100, func() {
			if no, blk := get(); blk != file.PeekBlock(no) {
				t.Fatalf("Get(%d) on a miss returned a copy of the durable image", no)
			}
		})
		if miss != 1 {
			t.Errorf("a clean miss allocates %v objects, want 1: the buffer", miss)
		}

		// The same with a change to every block read: MarkDirty takes the
		// one copy of the cycle, and the eviction that writes it out — 64
		// misses later — takes none. Once around unmeasured first, so that
		// every image has the row and its index does not grow.
		row := []byte("row")
		changed := make(map[int]*storage.Block)
		change := func() {
			no, _ := get()
			blk := f.c.MarkDirty(f.ref(no), redo.SCN(next))
			blk.Put(0, row)
			changed[no] = blk
		}
		for i := 0; i < 2*capacity; i++ {
			change()
		}
		clone := testing.AllocsPerRun(100, func() { sinkBlock = changed[0].Clone() })
		cycle := testing.AllocsPerRun(100, change)
		if cycle != miss+clone {
			t.Errorf("miss, change, eviction write: %v objects, want a miss's %v and one Clone's %v", cycle, miss, clone)
		}
		if f.c.Stats().DirtyEvictWrites == 0 {
			t.Fatal("no eviction wrote a dirty buffer back")
		}
		written := 0
		for no, blk := range changed {
			if _, resident := f.c.Peek(f.ref(no)); resident {
				continue
			}
			written++
			if file.PeekBlock(no) != blk {
				t.Fatalf("block %d: the eviction write installed a copy of the buffer's image", no)
			}
		}
		if written == 0 {
			t.Fatal("no changed block was evicted")
		}

		// A pass of its own, in steady state, allocates nothing.
		s := f.c.shards[0]
		pass := testing.AllocsPerRun(capacity/2, func() {
			if _, evicted, err := f.c.tryEvict(p, s); err != nil || !evicted {
				t.Fatalf("tryEvict: evicted=%v err=%v", evicted, err)
			}
			get() // refill, so the next pass has as many candidates
		})
		if pass != miss {
			t.Errorf("an eviction pass and a refill allocate %v objects, want the refill's %v", pass, miss)
		}
	})
}
