package txn

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"dbench/internal/bufcache"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// TestStressStripedLocksTwoWarehouses drives concurrent terminals against
// two warehouses through a warehouse-partitioned table. Each terminal
// increments a private per-warehouse counter and a hot per-warehouse row;
// every third round is a cross-warehouse transaction touching both hot rows
// in ascending warehouse order (the same ordered-acquisition discipline the
// TPC-C transactions use). The test pins two properties of the lock table:
//
//   - deadlock freedom: zero lock timeouts despite real contention
//     (asserted non-vacuous via the wait counter);
//   - no lost updates: every counter lands on its exact expected value,
//     so a grant or release lost on the way would show up.
func TestStressStripedLocksTwoWarehouses(t *testing.T) {
	const (
		warehouses = 2
		terminals  = 4
		rounds     = 30
		partDiv    = 100 // keys are w*partDiv + slot
		hotSlot    = 50
	)
	enc := func(v int64) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(v))
		return b
	}
	dec := func(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }
	key := func(w, slot int) int64 { return int64(w*partDiv + slot) }
	f, err := makeFixture()
	if err != nil {
		t.Fatal(err)
	}
	defer f.shutdown()
	ts, err := f.db.CreateTablespace("WH", []string{"data"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := f.cat.CreateTablePartitioned("wh", "bank", []*storage.Tablespace{ts, ts}, 16, 4, partDiv)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Partitions(); got != warehouses {
		t.Fatalf("partitions = %d, want %d", got, warehouses)
	}
	// Tiny cache: every read can miss and yield, interleaving the
	// terminals mid-transaction so contention is real.
	f.c = bufcache.New(f.k, 2)
	f.c.FlushLog = func(p *sim.Proc, scn redo.SCN) error { return f.log.WaitFlushed(p, scn) }
	f.m = NewManager(f.k, f.log, f.c, f.cat, nil, Config{LockTimeout: 2 * time.Second})

	f.k.Go("setup", func(p *sim.Proc) {
		tx := f.m.Begin()
		for w := 1; w <= warehouses; w++ {
			for term := 1; term <= terminals; term++ {
				if err := f.m.Insert(p, tx, "wh", key(w, term), enc(0)); err != nil {
					t.Error(err)
				}
			}
			if err := f.m.Insert(p, tx, "wh", key(w, hotSlot), enc(0)); err != nil {
				t.Error(err)
			}
		}
		if err := f.m.Commit(p, tx); err != nil {
			t.Error(err)
		}
		for w := 1; w <= warehouses; w++ {
			for term := 1; term <= terminals; term++ {
				w, term := w, term
				f.k.Go(fmt.Sprintf("term-%d-%d", w, term), func(p *sim.Proc) {
					bump := func(p *sim.Proc, tx *Txn, k int64) error {
						v, err := f.m.ReadForUpdate(p, tx, "wh", k)
						if err != nil {
							return err
						}
						return f.m.Update(p, tx, "wh", k, enc(dec(v)+1))
					}
					for i := 0; i < rounds; i++ {
						tx := f.m.Begin()
						err := bump(p, tx, key(w, term))
						if err == nil {
							if i%3 == 0 {
								// Cross-warehouse: both hot rows,
								// ascending warehouse order.
								for hw := 1; hw <= warehouses; hw++ {
									if err = bump(p, tx, key(hw, hotSlot)); err != nil {
										break
									}
								}
							} else {
								err = bump(p, tx, key(w, hotSlot))
							}
						}
						if err != nil {
							t.Errorf("term %d/%d round %d: %v", w, term, i, err)
							_ = f.m.Rollback(p, tx)
							return
						}
						if err := f.m.Commit(p, tx); err != nil {
							t.Errorf("term %d/%d commit: %v", w, term, err)
							return
						}
					}
				})
			}
		}
	})
	f.k.Run(sim.Time(50 * time.Hour))

	// Every third round hits both hot rows, the rest only the home
	// one: hot(w) = home rounds + cross rounds from ALL terminals.
	crossPerTerm := 0
	for i := 0; i < rounds; i++ {
		if i%3 == 0 {
			crossPerTerm++
		}
	}
	wantHot := int64(terminals*rounds + (warehouses-1)*terminals*crossPerTerm)
	f.k.Go("check", func(p *sim.Proc) {
		tx := f.m.Begin()
		for w := 1; w <= warehouses; w++ {
			for term := 1; term <= terminals; term++ {
				v, err := f.m.Read(p, tx, "wh", key(w, term))
				if err != nil {
					t.Error(err)
					continue
				}
				if got := dec(v); got != rounds {
					t.Errorf("counter %d/%d = %d, want %d (lost updates)", w, term, got, rounds)
				}
			}
			v, err := f.m.Read(p, tx, "wh", key(w, hotSlot))
			if err != nil {
				t.Error(err)
				continue
			}
			if got := dec(v); got != wantHot {
				t.Errorf("hot row %d = %d, want %d (lost updates)", w, got, wantHot)
			}
		}
		_ = f.m.Commit(p, tx)
	})
	f.k.Run(sim.Time(100 * time.Hour))

	st := f.m.Stats()
	if st.LockTimeouts != 0 {
		t.Fatalf("%d lock timeouts: the lock table is not deadlock-free under this load", st.LockTimeouts)
	}
	if st.LockWaits == 0 {
		t.Fatal("no lock waits at all; the load did not produce contention")
	}
	t.Logf("waits=%d timeouts=%d", st.LockWaits, st.LockTimeouts)
}
