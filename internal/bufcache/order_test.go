package bufcache

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
)

var update = flag.Bool("update", false, "rewrite golden files")

// evictionLog writes one line each time a process observes the cache: what
// it did, which blocks left the cache since the previous line, and the
// eviction counters.
type evictionLog struct {
	c        *Cache
	resident map[bufKey]bool
	b        strings.Builder
}

func (l *evictionLog) note(p *sim.Proc, what string) {
	var gone []string
	for key := range l.resident {
		if _, ok := l.c.Peek(storage.BlockRef{File: key.file, No: key.no}); !ok {
			gone = append(gone, fmt.Sprintf("%s:%d", key.file.Name, key.no))
			delete(l.resident, key)
		}
	}
	for _, s := range l.c.shards {
		for key := range s.buffers {
			l.resident[key] = true
		}
	}
	slices.Sort(gone)
	st := l.c.Stats()
	fmt.Fprintf(&l.b, "%-12v %-2s %-22s gone=%v evictions=%d dirty_evict_writes=%d\n",
		p.Now(), p.Name(), what, gone, st.Evictions, st.DirtyEvictWrites)
}

// The order an eviction pass visits buffers in is the shard's LRU order as
// of the pass's start, also after a write yields: one shard driven by
// several processes — misses, hits, changes, eviction writes that wait on
// a sleeping log force, hits and changes landing during those waits, and
// invalidations — evicts the blocks the golden file names, in that order.
// The scripted first part is the case that tells a start-of-pass order
// from a live walk: the pass waits on its dirty least recently used
// buffer, another process hits the next candidate and changes the buffer
// being written, and the pass then evicts the buffer that was hit (a live
// walk would skip it for the one after). Regenerate intentionally with:
// go test ./internal/bufcache -run TestEvictionOrderPinned -update
func TestEvictionOrderPinned(t *testing.T) {
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("data"))
	db, err := storage.NewDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	var files []*storage.Datafile
	for _, name := range []string{"U", "V"} {
		ts, err := db.CreateTablespace(name, []string{"data"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, ts.Files[0])
	}
	c := New(k, 6) // one shard
	log := &evictionLog{c: c, resident: make(map[bufKey]bool)}
	c.FlushLog = func(p *sim.Proc, scn redo.SCN) error {
		log.note(p, fmt.Sprintf("force scn=%d", scn))
		p.Sleep(time.Millisecond + time.Duration(scn%3)*500*time.Microsecond)
		return nil
	}
	scn := redo.SCN(0)
	get := func(p *sim.Proc, ref storage.BlockRef, change bool) {
		what := fmt.Sprintf("get %s:%d", ref.File.Name, ref.No)
		if _, err := c.Get(p, ref); err != nil {
			log.note(p, what+" "+err.Error())
			return
		}
		if change {
			scn++
			c.MarkDirty(ref, scn).Put(0, []byte{byte(scn)})
			what += " dirty"
		}
		log.note(p, what)
	}
	u := func(no int) storage.BlockRef { return storage.BlockRef{File: files[0], No: no} }

	k.Go("a", func(p *sim.Proc) {
		for no := 0; no < 6; no++ {
			get(p, u(no), no == 0)
		}
		k.Go("b", func(q *sim.Proc) {
			q.Sleep(500 * time.Microsecond) // a is waiting on the force for U:0
			get(q, u(1), false)
			get(q, u(0), true)
		})
		get(p, u(6), false)
	})
	k.RunAll()

	for i, name := range []string{"p", "q", "r"} {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		k.Go(name, func(p *sim.Proc) {
			for op := 0; op < 60; op++ {
				switch n := rng.Intn(100); {
				case n < 75:
					get(p, storage.BlockRef{File: files[rng.Intn(2)], No: rng.Intn(10)}, rng.Intn(10) < 4)
				case n < 88:
					p.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				case n < 96:
					refs := []storage.BlockRef{{File: files[rng.Intn(2)], No: rng.Intn(10)}, {File: files[rng.Intn(2)], No: rng.Intn(10)}}
					c.InvalidateBlocks(refs)
					log.note(p, fmt.Sprintf("drop %s:%d %s:%d", refs[0].File.Name, refs[0].No, refs[1].File.Name, refs[1].No))
				default:
					c.InvalidateFile(files[1])
					log.note(p, "drop V")
				}
			}
		})
	}
	k.RunAll()

	got := log.b.String()
	path := filepath.Join("testdata", "eviction_order.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("eviction order changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

// resident lists the blocks of f's first file that s holds, in LRU order.
func (f *fixture) resident(s *shard) []int {
	var nos []int
	for _, b := range s.order[s.head:] {
		if b != nil {
			nos = append(nos, b.ref.No)
		}
	}
	return nos
}

// noPassHoldsABuffer fails the test if a closed pass of s still points at
// a buffer.
func noPassHoldsABuffer(t *testing.T, s *shard) {
	t.Helper()
	for i, ps := range s.passes {
		if ps.open {
			t.Errorf("pass %d is still open", i)
		}
		for _, m := range ps.moved[:cap(ps.moved)] {
			if m.b != nil {
				t.Errorf("closed pass %d still records block %d", i, m.b.ref.No)
			}
		}
		for _, b := range ps.rest[:cap(ps.rest)] {
			if b != nil {
				t.Errorf("closed pass %d still holds block %d", i, b.ref.No)
			}
		}
	}
}

// Two passes over one shard at once, both waiting on the write of the
// same dirty buffer while the buffers behind it are hit, each evict the
// first clean buffer of the order the shard had when they began — in
// place, and with the shard compacted under them — and keep no buffer
// reachable once they end.
func TestConcurrentEvictionPassesFollowTheirOwnStartOrder(t *testing.T) {
	for _, compacting := range []bool{false, true} {
		t.Run(fmt.Sprintf("compacting=%v", compacting), func(t *testing.T) {
			f := newFixture(t, 4, 8)
			f.c.FlushLog = func(p *sim.Proc, scn redo.SCN) error { p.Sleep(time.Millisecond); return nil }
			s := f.c.shards[0]
			left := map[string][]int{}
			evict := func(name string) {
				f.k.Go(name, func(q *sim.Proc) {
					if _, evicted, err := f.c.tryEvict(q, s); err != nil || !evicted {
						t.Errorf("%s: evicted=%v err=%v", name, evicted, err)
					}
					left[name] = f.resident(s)
				})
			}
			hit := func(p *sim.Proc, no int) {
				if _, err := f.c.Get(p, f.ref(no)); err != nil {
					t.Fatal(err)
				}
			}
			f.run(func(p *sim.Proc) {
				for no := 0; no < 4; no++ {
					hit(p, no)
				}
				f.c.MarkDirty(f.ref(0), 1).Put(0, []byte("dirty"))
				evict("A") // order 0 1 2 3: writes 0, evicts 1
				p.Yield()
				hit(p, 1)
				evict("B") // order 0 2 3 1: writes 0, evicts 2
				p.Yield()
				hit(p, 2)
				if compacting {
					for i := 0; i < 8; i++ {
						hit(p, 3*(i%2)) // 3 and 0, so each hit moves a buffer
					}
					for i, ps := range s.passes {
						if !ps.detached {
							t.Errorf("pass %d still walks the order after 8 moves on a shard of 4", i)
						}
					}
				}
				f.c.MarkDirty(f.ref(0), 2) // changed while written: neither pass may evict it
				p.Sleep(time.Second)
			})
			slices.Sort(left["A"])
			slices.Sort(left["B"])
			if got := left["A"]; !slices.Equal(got, []int{0, 2, 3}) {
				t.Errorf("after A: resident %v, want [0 2 3] (A evicts 1)", got)
			}
			if got := left["B"]; !slices.Equal(got, []int{0, 3}) {
				t.Errorf("after B: resident %v, want [0 3] (B evicts 2)", got)
			}
			noPassHoldsABuffer(t, s)
		})
	}
}

// Passes held open across ten times the shard's capacity in hits never let
// the order outgrow twice the capacity, nor a pass hold more than the
// buffers its shard had, and each still evicts by its start order.
func TestOpenPassesKeepTheOrderBounded(t *testing.T) {
	const capacity = 64
	f := newFixture(t, capacity, 2*capacity)
	f.c.FlushLog = func(p *sim.Proc, scn redo.SCN) error { p.Sleep(time.Second); return nil }
	s := f.c.shards[0]
	rng := rand.New(rand.NewSource(7))
	hit := func(p *sim.Proc, no int) {
		if _, err := f.c.Get(p, f.ref(no)); err != nil {
			t.Fatal(err)
		}
	}
	f.run(func(p *sim.Proc) {
		for no := 0; no < capacity; no++ {
			hit(p, no)
		}
		f.c.MarkDirty(f.ref(0), 1).Put(0, []byte("dirty"))
		evicted := map[int]bool{}
		for i := 0; i < 3; i++ {
			f.k.Go("evictor", func(q *sim.Proc) {
				start := f.resident(s)
				if _, ok, err := f.c.tryEvict(q, s); err != nil || !ok {
					t.Errorf("pass %d: evicted=%v err=%v", i, ok, err)
					return
				}
				// The first pass writes 0 and evicts it; the others find
				// it gone and evict the first block of their start order
				// that no earlier pass evicted.
				want := -1
				for _, no := range start {
					if !evicted[no] && (no != 0 || i == 0) {
						want = no
						break
					}
				}
				if _, ok := f.c.Peek(f.ref(want)); ok {
					t.Errorf("pass %d: block %d, first of its start order %v, still resident", i, want, start[:4])
				}
				evicted[want] = true
			})
			p.Yield()
			for j := 0; j < 10*capacity; j++ {
				hit(p, 1+rng.Intn(capacity-1)) // 0 stays first, being written
				if len(s.order) > 2*capacity || cap(s.order) > 2*capacity {
					t.Fatalf("order holds %d slots (%d allocated) on a shard of %d", len(s.order), cap(s.order), capacity)
				}
				for _, ps := range s.passes {
					if n := len(ps.moved) + len(ps.rest); n > capacity {
						t.Fatalf("an open pass holds %d buffers on a shard of %d", n, capacity)
					}
				}
			}
		}
		p.Sleep(10 * time.Second)
		if len(evicted) != 3 || len(s.buffers) != capacity-3 {
			t.Errorf("%d distinct evictions, %d buffers left, want 3 and %d", len(evicted), len(s.buffers), capacity-3)
		}
	})
	noPassHoldsABuffer(t, s)
}
