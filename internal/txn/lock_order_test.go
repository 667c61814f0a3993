package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"dbench/internal/bufcache"
	"dbench/internal/catalog"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
)

// lockOrderPins are the hashes TestLockOrderPinned computes, taken when the
// lock table was still split into eight stripes routed by warehouse
// partition. One key's state only ever lived in one stripe, so a single map
// must grant, queue, time out and release in exactly the same virtual order.
var lockOrderPins = []struct {
	seed int64
	hash uint64
}{
	{1, 0x36601831f3351f28},
	{2, 0x0a7d1fa736944a1b},
	{3, 0xe629af8502247604},
}

// TestLockOrderPinned runs seeded terminals against a two-partition table
// behind a two-block cache: every transaction locks two or three random rows
// across both partitions in random order, so lock waits, deadlocks broken by
// the timeout and re-grants to the next waiter all happen, and two instance
// crashes (AbandonAll) abandon transactions that are parked in a lock queue.
// Every lock call's (virtual time, transaction, key, outcome) and every
// transaction end's is folded into one FNV hash per seed.
func TestLockOrderPinned(t *testing.T) {
	for _, pin := range lockOrderPins {
		t.Run(fmt.Sprintf("seed%d", pin.seed), func(t *testing.T) {
			got, timeouts, abandoned := runLockOrder(t, pin.seed)
			if timeouts == 0 {
				t.Errorf("no lock timed out: the load does not reach the deadlock breaker")
			}
			if abandoned == 0 {
				t.Errorf("no waiter was abandoned mid-wait")
			}
			if got != pin.hash {
				t.Errorf("lock order hash %#x, want %#x (timeouts %d, abandoned waiters %d)", got, pin.hash, timeouts, abandoned)
			}
		})
	}
}

func runLockOrder(t *testing.T, seed int64) (sum uint64, timeouts, abandoned int) {
	const (
		partDiv   = 100 // keys are w*partDiv + slot
		slots     = 6
		terminals = 6
		rounds    = 12
	)
	key := func(w, slot int) int64 { return int64(w*partDiv + slot) }
	k := sim.NewKernel(seed)
	fs := simdisk.NewFS(simdisk.DefaultSpec("data"), simdisk.DefaultSpec("redo"))
	db, err := storage.NewDB(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := db.CreateTablespace("WH", []string{"data"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if _, err := cat.CreateTablePartitioned("wh", "bank", []*storage.Tablespace{ts, ts}, 8, 2, partDiv); err != nil {
		t.Fatal(err)
	}
	log, err := redo.NewManager(k, fs, redo.Config{GroupSizeBytes: 4 << 20, Groups: 3, Disk: "redo"})
	if err != nil {
		t.Fatal(err)
	}
	log.OnSwitch = func(p *sim.Proc, old *redo.Group) { log.CheckpointCompleted(old.LastSCN()) }
	log.Start()
	cache := bufcache.New(k, 2)
	cache.FlushLog = func(p *sim.Proc, scn redo.SCN) error { return log.WaitFlushed(p, scn) }
	m := NewManager(k, log, cache, cat, nil, Config{LockTimeout: 400 * time.Millisecond})

	h := fnv.New64a()
	note := func(now sim.Time, tx *Txn, key int64, err error) {
		outcome := int64(0)
		switch {
		case err == nil:
		case errors.Is(err, ErrLockTimeout):
			outcome = 1
			timeouts++
		case errors.Is(err, ErrTxnDone):
			outcome = 2
		default:
			outcome = 3
		}
		var buf [32]byte
		binary.BigEndian.PutUint64(buf[0:], uint64(now))
		binary.BigEndian.PutUint64(buf[8:], uint64(tx.ID))
		binary.BigEndian.PutUint64(buf[16:], uint64(key))
		binary.BigEndian.PutUint64(buf[24:], uint64(outcome))
		h.Write(buf[:])
	}

	k.Go("setup", func(p *sim.Proc) {
		tx := m.Begin()
		for w := 1; w <= 2; w++ {
			for s := 1; s <= slots; s++ {
				if err := m.Insert(p, tx, "wh", key(w, s), []byte{0}); err != nil {
					t.Error(err)
				}
			}
		}
		if err := m.Commit(p, tx); err != nil {
			t.Error(err)
		}
		rng := k.Rand()
		for term := 0; term < terminals; term++ {
			k.Go(fmt.Sprintf("term-%d", term), func(p *sim.Proc) {
				for range rounds {
					p.Sleep(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
					tx := m.Begin()
					var err error
					for n := 2 + rng.Intn(2); n > 0 && err == nil; n-- {
						kk := key(1+rng.Intn(2), 1+rng.Intn(slots))
						var v []byte
						asked := p.Now()
						v, err = m.ReadForUpdate(p, tx, "wh", kk)
						if errors.Is(err, ErrTxnDone) && p.Now() > asked {
							abandoned++ // parked in the queue when the crash came
						}
						note(p.Now(), tx, kk, err)
						if err == nil {
							p.Sleep(time.Duration(rng.Int63n(int64(150 * time.Millisecond))))
							err = m.Update(p, tx, "wh", kk, []byte{v[0] + 1})
						}
					}
					if err == nil {
						err = m.Commit(p, tx)
					} else {
						_ = m.Rollback(p, tx)
					}
					note(p.Now(), tx, -1, err)
				}
			})
		}
		// Two crashes, the first halfway through, with terminals parked in
		// lock queues.
		for range 2 {
			p.Sleep(700 * time.Millisecond)
			m.AbandonAll()
		}
	})
	k.Run(sim.Time(time.Hour))
	log.Stop()
	k.RunAll()
	return h.Sum64(), timeouts, abandoned
}
