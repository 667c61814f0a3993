package tpcc

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
)

// mallocs counts the objects fn allocates. The simulation runs one process at
// a time and the test runs nothing beside it, so the runtime's own counter is
// exact enough for a gate with room in it.
func mallocs(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// TestSetupAllocs gates what an experiment pays before its measured run, at
// the benchmark's small scale (W = 1, the shared layout) and at the default
// one (W = 2, partitioned):
//
//   - a load allocates well under one object per row — rows are cut from
//     chunks and put straight into their block's image; what is left is a
//     chunk per 8 KiB of rows or text and the growth of the blocks' row indexes
//     (2.5 per row when every row was a string, a buffer and a map entry);
//   - installing a set that exists allocates nothing per row or per block, so a
//     stand-by costs its schema and no more;
//   - the consistency check allocates per table scanned, not per row: a
//     decoded row's text is a view of the row (it was one string per row and
//     one pointer per order).
func TestSetupAllocs(t *testing.T) {
	for _, cfg := range []Config{TinyConfig(), DefaultConfig()} {
		r := newRig(t, cfg, nil)
		disks := []string{engine.DiskData1, engine.DiskData2}
		r.run(t, func(p *sim.Proc) error {
			if err := r.in.Open(p); err != nil {
				return err
			}
			if err := r.app.CreateSchema(p, disks); err != nil {
				return err
			}
			load, err := mallocs(func() error { return r.app.Load(p, rand.New(rand.NewSource(3))) })
			if err != nil {
				return err
			}
			rows, orders := 0, 0
			for _, table := range Tables {
				if err := r.in.Scan(p, table, func(int64, []byte) bool {
					rows++
					if table == TableOrder {
						orders++
					}
					return true
				}); err != nil {
					return err
				}
			}
			if perRow := float64(load) / float64(rows); rows < 9000 || perRow >= 0.6 {
				t.Errorf("W=%d: Load allocates %d objects for %d rows, %.2f per row, want < 0.6", cfg.Warehouses, load, rows, perRow)
			}

			check, err := mallocs(func() error {
				v, err := r.app.CheckConsistency(p)
				if len(v) != 0 {
					err = errors.Join(err, errors.New(v[0].String()))
				}
				return err
			})
			if err != nil {
				return err
			}
			if check*4 >= uint64(orders) {
				t.Errorf("W=%d: CheckConsistency allocates %d objects for %d orders, want fewer than one per four", cfg.Warehouses, check, orders)
			}

			// A second server on the same kernel: the schema, then the set.
			fs := simdisk.NewFS(simdisk.DefaultSpec(engine.DiskData1), simdisk.DefaultSpec(engine.DiskData2),
				simdisk.DefaultSpec(engine.DiskRedo), simdisk.DefaultSpec(engine.DiskArch))
			sb, err := engine.New(r.k, fs, engine.DefaultConfig())
			if err != nil {
				return err
			}
			app := NewApp(sb, cfg)
			if err := app.CreateSchema(p, disks); err != nil {
				return err
			}
			g, err := app.Generate(rand.New(rand.NewSource(3)))
			if err != nil {
				return err
			}
			install, err := mallocs(func() error { return app.Install(p, g.Set) })
			if err != nil {
				return err
			}
			if install >= 100 {
				t.Errorf("W=%d: Install allocates %d objects for %d rows, want < 100 whatever the scale", cfg.Warehouses, install, rows)
			}
			t.Logf("W=%d: %d rows, %d orders: Load %d objects (%.2f per row), Install %d, CheckConsistency %d",
				cfg.Warehouses, rows, orders, load, float64(load)/float64(rows), install, check)
			return nil
		})
	}
}

// BenchmarkGenerate is the set-up probe: one database generated at the
// default scale (W = 2, partitioned) into a schema that exists, with fresh
// driver-side indexes each time. Generate is what a process pays once per
// seed, scale and layout (the rig keeps the last database drawn); the set's
// install costs virtual time only.
func BenchmarkGenerate(b *testing.B) {
	r := newRig(b, DefaultConfig(), nil)
	r.run(b, func(p *sim.Proc) error {
		if err := r.in.Open(p); err != nil {
			return err
		}
		return r.app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2})
	})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := r.app.Generate(rand.New(rand.NewSource(3))); err != nil {
			b.Fatal(err)
		}
	}
}
