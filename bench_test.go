// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§5). Each benchmark runs the corresponding campaign at
// QuickScale (shapes preserved, wall time bounded) and prints the
// paper-style table; `cmd/dbench -scale full` runs the paper-faithful
// 20-minute versions.
//
//	go test -bench=. -benchmem
package dbench_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/core"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/tpcc"
	"dbench/internal/trace"
)

func benchScale() core.Scale { return core.QuickScale() }

// measure runs a declared experiment at benchScale, prints its report on
// the first iteration and returns its first table's rows.
func measure(b *testing.B, i int, x core.Experiment) []core.Row {
	b.Helper()
	rows, err := x.Run(benchScale(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if i == 0 {
		fmt.Println(x.Text(rows))
	}
	return rows[0]
}

func BenchmarkTable3Checkpoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measure(b, i, core.Table3(benchScale()))
		b.ReportMetric(float64(rows[len(rows)-1][0].Checkpoints), "ckpts-F1G2T1")
		b.ReportMetric(rows[0][0].TpmC, "tpmC-F400G3T20")
	}
}

func BenchmarkFigure4PerfRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measure(b, i, core.Figure4(benchScale()))
		b.ReportMetric(rows[0][1].RecoveryTime.Seconds(), "rec-s-largest-cfg")
		b.ReportMetric(rows[len(rows)-1][1].RecoveryTime.Seconds(), "rec-s-smallest-cfg")
	}
}

func BenchmarkFigure5ArchiveOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measure(b, i, core.Figure5(benchScale()))
		var avg float64
		for _, r := range rows {
			if r[0].TpmC != 0 {
				avg += 100 * (1 - r[1].TpmC/r[0].TpmC)
			}
		}
		b.ReportMetric(avg/float64(len(rows)), "avg-overhead-%")
	}
}

func BenchmarkTable4IncompleteRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measure(b, i, core.Table4(benchScale()))
		b.ReportMetric(rows[0][2].RecoveryTime.Seconds(), "rec-s-late-inject")
	}
}

func BenchmarkTable5CompleteRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measure(b, i, core.Table5(benchScale()))
		b.ReportMetric(rows[0][0].RecoveryTime.Seconds(), "abort-rec-s")
	}
}

func BenchmarkFigure6Standby(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measure(b, i, core.Figure6(benchScale()))
		var fo, mr float64
		for _, r := range rows {
			fo += r[2].RecoveryTime.Seconds()
			mr += r[3].RecoveryTime.Seconds()
		}
		b.ReportMetric(fo/float64(len(rows)), "avg-failover-s")
		b.ReportMetric(mr/float64(len(rows)), "avg-media-rec-s")
	}
}

func BenchmarkFigure7LostTransactions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measure(b, i, core.Figure7(benchScale()))
		b.ReportMetric(float64(rows[0][0].LostTransactions), "lost-smallest-log")
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last[len(last)-1].LostTransactions), "lost-largest-log")
	}
}

// benchmarkNewOrder measures the per-transaction cost of the New-Order
// path at a given warehouse count: schema creation and load happen
// outside the timer, then b.N New-Orders execute round-robin over the
// warehouses. The buffer cache keeps its per-warehouse share so the
// number measures the transaction path (partition routing, sharded
// cache, row locks), not cache starvation. W=1 is the CI regression
// gate (see BENCH_NEWORDER.json); W=4/16 track the cost of scale.
func benchmarkNewOrder(b *testing.B, warehouses int) {
	k := sim.NewKernel(42)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 8 << 20
	ecfg.CacheBlocks = 512 * warehouses
	ecfg.CheckpointTimeout = 60 * time.Second
	in, err := engine.New(k, fs, ecfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = warehouses
	cfg.CustomersPerDistrict = 60
	cfg.Items = 2000
	app := tpcc.NewApp(in, cfg)
	var benchErr error
	k.Go("bench", func(p *sim.Proc) {
		benchErr = func() error {
			if err := in.Open(p); err != nil {
				return err
			}
			if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
				return err
			}
			if err := app.Load(p, rand.New(rand.NewSource(1))); err != nil {
				return err
			}
			if err := in.Checkpoint(p); err != nil {
				return err
			}
			rnd := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := 1 + i%warehouses
				if _, err := app.NewOrder(p, rnd, w); err != nil && !errors.Is(err, tpcc.ErrUserAbort) {
					return err
				}
			}
			return nil
		}()
	})
	k.Run(sim.Time(1000 * time.Hour))
	b.StopTimer()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

func BenchmarkNewOrder(b *testing.B) {
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) { benchmarkNewOrder(b, w) })
	}
}

// benchmarkInstanceRecovery measures one crash recovery of a TPC-C
// database at the given apply-worker count. Schema creation, load, the
// workload and the crash all happen outside the timer (and are identical
// across worker counts — same kernel seed); the timed region is exactly
// the recovery. ns/op is the host cost of the recovery path — the CI
// regression gate for workers=1 (see BENCH_RECOVERY.json) — and the
// rec-s metric is the recovery's virtual time, where the parallel
// pipeline's speedup shows.
func benchmarkInstanceRecovery(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := sim.NewKernel(42)
		fs := simdisk.NewFS(
			simdisk.DefaultSpec(engine.DiskData1),
			simdisk.DefaultSpec(engine.DiskData2),
			simdisk.DefaultSpec(engine.DiskRedo),
			simdisk.DefaultSpec(engine.DiskArch),
		)
		ecfg := engine.DefaultConfig()
		ecfg.Redo.GroupSizeBytes = 8 << 20
		ecfg.CacheBlocks = 512
		ecfg.CheckpointTimeout = 0 // checkpoint explicitly, before the workload
		ecfg.CPUs = 4
		ecfg.RecoveryParallelism = workers
		in, err := engine.New(k, fs, ecfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg := tpcc.DefaultConfig()
		cfg.Warehouses = 1
		cfg.CustomersPerDistrict = 60
		cfg.Items = 1000
		app := tpcc.NewApp(in, cfg)
		var setupErr error
		k.Go("setup", func(p *sim.Proc) {
			setupErr = func() error {
				if err := in.Open(p); err != nil {
					return err
				}
				if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
					return err
				}
				if err := app.Load(p, rand.New(rand.NewSource(1))); err != nil {
					return err
				}
				if err := in.Checkpoint(p); err != nil {
					return err
				}
				rnd := rand.New(rand.NewSource(2))
				for j := 0; j < 1500; j++ {
					if _, err := app.NewOrder(p, rnd, 1); err != nil && !errors.Is(err, tpcc.ErrUserAbort) {
						return err
					}
				}
				in.Crash()
				return nil
			}()
		})
		k.Run(sim.Time(1000 * time.Hour))
		if setupErr != nil {
			b.Fatal(setupErr)
		}
		rm := recovery.NewManager(in, nil)
		var rep *recovery.Report
		var recErr error
		b.StartTimer()
		k.Go("recover", func(p *sim.Proc) {
			rep, recErr = rm.InstanceRecovery(p)
			k.Stop() // end the timed region the instant recovery returns
		})
		k.Run(sim.Time(2000 * time.Hour))
		b.StopTimer()
		k.KillAll()
		if recErr != nil {
			b.Fatal(recErr)
		}
		if rep.RecordsApplied == 0 {
			b.Fatal("recovery applied no records; the benchmark measures nothing")
		}
		b.ReportMetric(rep.Duration().Seconds(), "rec-s")
	}
}

func BenchmarkInstanceRecovery(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchmarkInstanceRecovery(b, w) })
	}
}

// benchmarkLogicalRemedy measures one repair of a truncated stock table
// with the chosen remedy. Schema creation, load, the workload and the
// truncate all happen outside the timer (identical across remedies — same
// kernel seed); the timed region is exactly the repair. ns/op is the host
// cost of the remedy path — the CI regression gate for flashback (see
// BENCH_FLASHBACK.json) — and the rec-s metric is the repair's virtual
// time, where the flashback-vs-physical gap the logical campaign reports
// comes from.
func benchmarkLogicalRemedy(b *testing.B, physical bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := sim.NewKernel(42)
		fs := simdisk.NewFS(
			simdisk.DefaultSpec(engine.DiskData1),
			simdisk.DefaultSpec(engine.DiskData2),
			simdisk.DefaultSpec(engine.DiskRedo),
			simdisk.DefaultSpec(engine.DiskArch),
		)
		ecfg := engine.DefaultConfig()
		ecfg.Redo.GroupSizeBytes = 8 << 20
		ecfg.Redo.ArchiveMode = true
		ecfg.CacheBlocks = 512
		ecfg.CheckpointTimeout = 0
		ecfg.CPUs = 4
		in, err := engine.New(k, fs, ecfg)
		if err != nil {
			b.Fatal(err)
		}
		bk := backup.NewManager(k, fs, engine.DiskArch)
		rm := recovery.NewManager(in, bk)
		cfg := tpcc.DefaultConfig()
		cfg.Warehouses = 1
		cfg.CustomersPerDistrict = 60
		cfg.Items = 1000
		app := tpcc.NewApp(in, cfg)
		var preSCN redo.SCN
		var setupErr error
		k.Go("setup", func(p *sim.Proc) {
			setupErr = func() error {
				if err := in.Open(p); err != nil {
					return err
				}
				if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
					return err
				}
				if err := app.Load(p, rand.New(rand.NewSource(1))); err != nil {
					return err
				}
				if err := in.Checkpoint(p); err != nil {
					return err
				}
				if _, err := bk.TakeFull(p, in.DB(), in.Catalog(), in.DB().Control.CheckpointSCN); err != nil {
					return err
				}
				if err := in.ForceLogSwitch(p); err != nil {
					return err
				}
				rnd := rand.New(rand.NewSource(2))
				for j := 0; j < 1500; j++ {
					if _, err := app.NewOrder(p, rnd, 1); err != nil && !errors.Is(err, tpcc.ErrUserAbort) {
						return err
					}
				}
				preSCN = in.Log().NextSCN() - 1
				return in.TruncateTable(p, tpcc.TableStock)
			}()
		})
		k.Run(sim.Time(1000 * time.Hour))
		if setupErr != nil {
			b.Fatal(setupErr)
		}
		var rep *recovery.Report
		var recErr error
		b.StartTimer()
		k.Go("remedy", func(p *sim.Proc) {
			if physical {
				rep, recErr = rm.PointInTime(p, preSCN)
			} else {
				rep, recErr = rm.FlashbackTable(p, tpcc.TableStock, preSCN)
			}
			k.Stop() // end the timed region the instant the repair returns
		})
		k.Run(sim.Time(2000 * time.Hour))
		b.StopTimer()
		k.KillAll()
		if recErr != nil {
			b.Fatal(recErr)
		}
		if rep.RecordsApplied == 0 {
			b.Fatal("repair applied no records; the benchmark measures nothing")
		}
		b.ReportMetric(rep.Duration().Seconds(), "rec-s")
	}
}

// BenchmarkFlashbackTable is the logical remedy: one table rewound from
// the redo stream, instance open. CI-gated via BENCH_FLASHBACK.json.
func BenchmarkFlashbackTable(b *testing.B) { benchmarkLogicalRemedy(b, false) }

// BenchmarkPointInTime is the paper's physical remedy for the same fault:
// whole-database restore and roll-forward. Tracked for the rec-s gap, not
// gated.
func BenchmarkPointInTime(b *testing.B) { benchmarkLogicalRemedy(b, true) }

// benchmarkCampaign runs the Table 3 configuration sweep (16 independent
// runs) with the given worker count — the unit of comparison for the
// campaign pool's speedup.
func benchmarkCampaign(b *testing.B, parallel int) {
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Parallel = parallel
		rows, err := core.Table3(sc).Run(sc, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(core.Workers(parallel, len(rows[0]))), "workers")
	}
}

// BenchmarkCampaignSequential is the single-worker baseline
// (dbench -parallel 1, the pre-pool behavior).
func BenchmarkCampaignSequential(b *testing.B) { benchmarkCampaign(b, 1) }

// BenchmarkCampaignParallel runs the same campaign with one worker per
// CPU (dbench -parallel 0). Runs are independent simulations, so on an
// N-core machine wall clock shrinks close to N× (≥ 2× on 4 cores);
// compare against BenchmarkCampaignSequential.
func BenchmarkCampaignParallel(b *testing.B) { benchmarkCampaign(b, 0) }

// BenchmarkTraceDisabledEmit measures the instrumentation points' cost
// when tracing is off (no -trace/-timeline): a nil *trace.Tracer must
// be a branch, not an allocation — 0 allocs/op, or every Insert/Commit
// in an untraced campaign pays for observability it never asked for.
func BenchmarkTraceDisabledEmit(b *testing.B) {
	var tr *trace.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i)
		tr.Instant(now, trace.CatEngine, "bench", "tick", trace.I("i", int64(i)))
		id := tr.Begin(now, trace.CatTxn, "bench", "txn", trace.S("type", "new order"))
		tr.End(now, id, trace.S("status", "commit"))
	}
}

// BenchmarkSingleExperiment measures the cost of one complete benchmark
// run (load + 20 simulated minutes of TPC-C), the unit everything above
// is built from.
func BenchmarkSingleExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := core.DefaultSpec()
		spec.TPCC.Warehouses = 1
		res, err := core.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TpmC, "tpmC")
	}
}
