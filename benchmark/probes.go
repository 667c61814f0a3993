package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dbench/internal/backup"
	"dbench/internal/bufcache"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/standby"
	"dbench/internal/storage"
	"dbench/internal/tpcc"
)

// The isolated probes: each is a loop over one layer's public entry points
// on a stack the harness wires itself (as the root bench_test.go does), so
// a change in an end-to-end host metric can be located without a profiler.
// A probe reports its fastest batch in ns per operation and, separately,
// its leanest batch in allocations per operation.

type prober struct {
	out  map[string]float64
	tiny bool
}

// timeBatch times one batch of n operations: ns and allocations per
// operation.
func timeBatch(n int, batch func(n int) error) (ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = batch(n)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), err
}

// keepBest records a batch's result if it is the probe's fastest so far
// (and, separately, its leanest).
func (pb *prober) keepBest(name string, ns, allocs float64) {
	if best, ok := pb.out[name+".ns"]; !ok || ns < best {
		pb.out[name+".ns"] = ns
	}
	if best, ok := pb.out[name+".allocs"]; !ok || allocs < best {
		pb.out[name+".allocs"] = allocs
	}
}

// measure times `batches` batches of n operations each. The smoke test's
// tiny scale makes one batch of a twentieth the size.
func (pb *prober) measure(name string, batches, n int, batch func(n int) error) error {
	if pb.tiny {
		batches, n = 1, max(1, n/20)
	}
	for b := 0; b < batches; b++ {
		ns, allocs, err := timeBatch(n, batch)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		pb.keepBest(name, ns, allocs)
	}
	return nil
}

// inSim runs fn as the one foreground process of a fresh kernel.
func inSim(fn func(k *sim.Kernel, p *sim.Proc) error) error {
	k := sim.NewKernel(42)
	var err error
	k.Go("probe", func(p *sim.Proc) {
		err = fn(k, p)
		k.Stop()
	})
	k.Run(sim.Time(1000 * time.Hour))
	k.KillAll()
	return err
}

func runProbes(tiny bool) (map[string]float64, error) {
	pb := &prober{out: make(map[string]float64), tiny: tiny}
	for _, group := range []func() error{
		pb.simProbes, pb.codecProbes, pb.redoProbe, pb.engineProbes, pb.recoveryProbes,
	} {
		if err := group(); err != nil {
			return nil, err
		}
	}
	return pb.out, nil
}

// ---- sim kernel and simdisk -------------------------------------------

func (pb *prober) simProbes() error {
	// One Sleep is one event plus one goroutine round trip.
	err := inSim(func(k *sim.Kernel, p *sim.Proc) error {
		return pb.measure("sim.sleep", 5, 20000, func(n int) error {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}

	// One ping-pong is a Signal/Wait each way between two processes: the
	// shape of a commit waking LGWR and LGWR waking the committer.
	err = inSim(func(k *sim.Kernel, p *sim.Proc) error {
		var ping, pong sim.Cond
		stop := false
		k.Go("echo", func(q *sim.Proc) {
			for {
				ping.Wait(q)
				if stop {
					return
				}
				pong.Signal(k)
			}
		})
		p.Yield() // let the echo process reach its Wait
		err := pb.measure("sim.cond_pingpong", 5, 10000, func(n int) error {
			for i := 0; i < n; i++ {
				ping.Signal(k)
				pong.Wait(p)
			}
			return nil
		})
		stop = true
		ping.Signal(k)
		return err
	})
	if err != nil {
		return err
	}

	// Schedule + dispatch of a plain event: the heap and the closure
	// call, no goroutine handoff.
	k := sim.NewKernel(42)
	fired := 0
	err = pb.measure("sim.schedule", 5, 50000, func(n int) error {
		for i := 0; i < n; i++ {
			k.After(time.Duration(i%97), func() { fired++ })
		}
		k.RunAll()
		return nil
	})
	if err != nil {
		return err
	}
	if fired == 0 {
		return errors.New("probe sim.schedule: no event fired")
	}

	// One random 8 KiB read: service-time model, the disk's Resource
	// queue and the Sleep under it.
	return inSim(func(k *sim.Kernel, p *sim.Proc) error {
		fs := simdisk.NewFS(simdisk.DefaultSpec("d"))
		f, err := fs.Create("d", "probe.dbf", 1<<30)
		if err != nil {
			return err
		}
		r := rand.New(rand.NewSource(1))
		return pb.measure("simdisk.read", 5, 10000, func(n int) error {
			for i := 0; i < n; i++ {
				if err := f.Read(p, int64(r.Intn(1<<17))*storage.BlockSize, storage.BlockSize); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// ---- codecs -----------------------------------------------------------

// sampleRecords is redo shaped like the New-Order path's: row updates and
// inserts with before- and after-images, a commit closing each group.
func sampleRecords(n int) []redo.Record {
	r := rand.New(rand.NewSource(7))
	img := func(size int) []byte {
		b := make([]byte, size)
		r.Read(b)
		return b
	}
	recs := make([]redo.Record, n)
	for i := range recs {
		rec := redo.Record{SCN: redo.SCN(i + 1), Txn: redo.TxnID(1 + i/8), Table: tpcc.TableStock, Key: tpcc.SKey(1, 1+i)}
		switch {
		case i%8 == 7:
			rec.Op, rec.Table, rec.Key = redo.OpCommit, "", 0
		case i%2 == 0:
			rec.Op, rec.Before, rec.After = redo.OpUpdate, img(300), img(300)
		default:
			rec.Op, rec.Table, rec.After = redo.OpInsert, tpcc.TableOrderLine, img(70)
		}
		recs[i] = rec
	}
	return recs
}

var sinkBytes int // keeps the codecs' results alive

func (pb *prober) codecProbes() error {
	recs := sampleRecords(64)
	err := pb.measure("redo.record_codec", 5, 20000, func(n int) error {
		for i := 0; i < n; i++ {
			b := recs[i%len(recs)].Encode()
			rec, used, err := redo.Decode(b)
			if err != nil {
				return err
			}
			sinkBytes += used + len(rec.After)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Per record of a 64-record frame (the default FrameRecords), so the
	// number compares with redo.record_codec.
	frame := redo.StreamFrame{Seq: 1, PrimarySCN: 64, Records: recs}
	err = pb.measure("redo.stream_frame_codec", 5, 20000, func(n int) error {
		for i := 0; i < n; i += len(recs) {
			b := frame.Encode()
			f, used, err := redo.DecodeStreamFrame(b)
			if err != nil {
				return err
			}
			sinkBytes += used + len(f.Records)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// A deep copy of one loaded 8 KiB block: what every cache miss and
	// every datafile write pays.
	blk := storage.NewBlock()
	for i := int64(0); i < 25; i++ { // a stock block holds about 25 rows
		blk.Rows[i] = make([]byte, 310)
	}
	return pb.measure("storage.block_clone", 5, 20000, func(n int) error {
		for i := 0; i < n; i++ {
			sinkBytes += len(blk.Clone().Rows)
		}
		return nil
	})
}

// ---- redo append + flush ----------------------------------------------

// redoProbe is one committer against a bare log manager: reserve, append,
// wait for LGWR's write — two process handoffs and one disk write.
func (pb *prober) redoProbe() error {
	return inSim(func(k *sim.Kernel, p *sim.Proc) error {
		fs := simdisk.NewFS(simdisk.DefaultSpec(engine.DiskRedo))
		// 400 MB groups: the probe never switches logs.
		log, err := redo.NewManager(k, fs, redo.Config{GroupSizeBytes: 400 << 20, Groups: 3, Disk: engine.DiskRedo})
		if err != nil {
			return err
		}
		log.Start()
		defer log.Stop()
		recs := sampleRecords(64)
		return pb.measure("redo.append_flush", 5, 5000, func(n int) error {
			for i := 0; i < n; i++ {
				rec := recs[i%len(recs)]
				if err := log.Reserve(p, rec.Size()); err != nil {
					return err
				}
				if err := log.WaitFlushed(p, log.Append(rec)); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// ---- a loaded one-warehouse engine -------------------------------------

// stack is a small loaded TPC-C instance, the root bench_test.go's shape:
// W=1, 60 customers per district, 2 000 items.
type stack struct {
	k    *sim.Kernel
	fs   *simdisk.FS
	in   *engine.Instance
	app  *tpcc.App
	tcfg tpcc.Config
}

var probeDisks = []string{engine.DiskData1, engine.DiskData2}

// newStack creates and loads the database. A primary is opened first and
// checkpointed after; a stand-by's instance stays unopened, loaded with the
// same content. The log groups are large enough that no probe switches
// logs, and there is no checkpoint timer: probes checkpoint when they mean
// to.
func newStack(k *sim.Kernel, p *sim.Proc, name string, primary bool, edit func(*engine.Config)) (*stack, error) {
	s := &stack{k: k, tcfg: tpcc.DefaultConfig()}
	s.fs = simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1), simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo), simdisk.DefaultSpec(engine.DiskArch))
	cfg := engine.DefaultConfig()
	cfg.Name = name
	cfg.Redo.GroupSizeBytes = 64 << 20
	cfg.CacheBlocks = 512
	cfg.CheckpointTimeout = 0
	cfg.CPUs = 4
	if edit != nil {
		edit(&cfg)
	}
	s.tcfg.Warehouses = 1
	s.tcfg.CustomersPerDistrict = 60
	s.tcfg.Items = 2000
	var err error
	if s.in, err = engine.New(k, s.fs, cfg); err != nil {
		return nil, err
	}
	s.app = tpcc.NewApp(s.in, s.tcfg)
	if primary {
		if err := s.in.Open(p); err != nil {
			return nil, err
		}
	}
	if err := s.app.CreateSchema(p, probeDisks); err != nil {
		return nil, err
	}
	if err := s.app.Load(p, rand.New(rand.NewSource(1))); err != nil {
		return nil, err
	}
	if primary {
		if err := s.in.Checkpoint(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// loadedRow returns a row's durable image, as the load left it.
func (s *stack) loadedRow(table string, key int64) ([]byte, error) {
	t, err := s.in.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	ref := t.BlockFor(key)
	row := ref.File.PeekBlock(ref.No).Rows[key]
	if row == nil {
		return nil, fmt.Errorf("probe: %s row %d not in its home block", table, key)
	}
	return row, nil
}

func (s *stack) newOrders(p *sim.Proc, r *rand.Rand, n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.app.NewOrder(p, r, 1); err != nil && !errors.Is(err, tpcc.ErrUserAbort) {
			return err
		}
	}
	return nil
}

func (pb *prober) engineProbes() error {
	return inSim(func(k *sim.Kernel, p *sim.Proc) error {
		s, err := newStack(k, p, "primary", true, nil)
		if err != nil {
			return err
		}
		in := s.in
		startSCN := in.DB().Control.CheckpointSCN
		r := rand.New(rand.NewSource(2))

		err = pb.measure("tpcc.new_order", 5, 300, func(n int) error { return s.newOrders(p, r, n) })
		if err != nil {
			return err
		}

		// One single-row transaction: begin, locked update (redo + undo +
		// buffer change), commit (log force).
		stock, err := in.Catalog().Table(tpcc.TableStock)
		if err != nil {
			return err
		}
		ref := stock.BlockFor(tpcc.SKey(1, 1))
		row, err := s.loadedRow(tpcc.TableStock, tpcc.SKey(1, 1))
		if err != nil {
			return err
		}
		err = pb.measure("txn.update_commit", 5, 2000, func(n int) error {
			for i := 0; i < n; i++ {
				t, err := in.Begin()
				if err != nil {
					return err
				}
				if err := in.Update(p, t, tpcc.TableStock, tpcc.SKey(1, 1+i%s.tcfg.Items), row); err != nil {
					return err
				}
				if err := in.Commit(p, t); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		// Decode + encode of the three row types New-Order touches most.
		st, err := tpcc.DecodeStock(row)
		if err != nil {
			return err
		}
		row, err = s.loadedRow(tpcc.TableCustomer, tpcc.CKey(1, 1, 1))
		if err != nil {
			return err
		}
		cust, err := tpcc.DecodeCustomer(row)
		if err != nil {
			return err
		}
		row, err = s.loadedRow(tpcc.TableOrderLine, tpcc.OLKey(1, 1, 1, 1))
		if err != nil {
			return err
		}
		line, err := tpcc.DecodeOrderLine(row)
		if err != nil {
			return err
		}
		err = pb.measure("tpcc.row_codec", 5, 20000, func(n int) error {
			for i := 0; i < n; i++ {
				s2, err := tpcc.DecodeStock(st.Encode())
				if err != nil {
					return err
				}
				c2, err := tpcc.DecodeCustomer(cust.Encode())
				if err != nil {
					return err
				}
				l2, err := tpcc.DecodeOrderLine(line.Encode())
				if err != nil {
					return err
				}
				sinkBytes += s2.Quantity + c2.ID + l2.Number
			}
			return nil
		})
		if err != nil {
			return err
		}

		// Cache hit: map lookup and LRU promotion, no I/O.
		if _, err := in.Cache().Get(p, ref); err != nil {
			return err
		}
		err = pb.measure("bufcache.get_hit", 5, 50000, func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := in.Cache().Get(p, ref); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		// Cache miss: a 32-buffer cache swept over the whole stock
		// segment, so every Get evicts a clean buffer, reads the block
		// from the simulated disk and clones its image.
		if err := in.Checkpoint(p); err != nil {
			return err
		}
		small := bufcache.New(k, 32)
		blocks := stock.Blocks()
		err = pb.measure("bufcache.get_miss", 5, 5000, func(n int) error {
			before := small.Stats().Misses
			for i := 0; i < n; i++ {
				if _, err := small.Get(p, blocks[i%len(blocks)]); err != nil {
					return err
				}
			}
			if got := small.Stats().Misses - before; got != int64(n) {
				return fmt.Errorf("%d of %d gets missed; the probe measures something else", got, n)
			}
			return nil
		})
		if err != nil {
			return err
		}

		return pb.standbyProbe(s, p, startSCN)
	})
}

// standbyProbe replays everything the primary stack logged since startSCN
// into a freshly instantiated stand-by, frame by frame: encode, Receive
// (sequence check, stream hash, queueing) and the stream apply loop.
func (pb *prober) standbyProbe(primary *stack, p *sim.Proc, startSCN redo.SCN) error {
	recs, ok := primary.in.Log().OnlineRecords(startSCN + 1)
	if !ok || len(recs) == 0 {
		return errors.New("probe standby.receive_apply: the primary's redo is no longer online")
	}
	frameRecords := standby.DefaultConfig().FrameRecords
	batches := 3
	if pb.tiny {
		batches = 1
	}
	// Each batch needs a stand-by that has applied nothing yet.
	var sbs []*standby.Standby
	for i := 0; i < batches; i++ {
		s, err := newStack(primary.k, p, fmt.Sprintf("standby%d", i+1), false, nil)
		if err != nil {
			return err
		}
		sb := standby.New(s.in, standby.DefaultConfig(), startSCN)
		if err := sb.Start(p); err != nil {
			return err
		}
		sbs = append(sbs, sb)
	}
	next := 0
	return pb.measure("standby.receive_apply", batches, len(recs), func(n int) error {
		sb := sbs[next]
		next++
		stream := recs[:n]
		last := stream[n-1].SCN
		seq := uint64(1)
		for i := 0; i < n; i += frameRecords {
			f := redo.StreamFrame{Seq: seq, PrimarySCN: last, Records: stream[i:min(i+frameRecords, n)]}
			sb.Receive(p, &f, f.Encode())
			seq++
		}
		for sb.AppliedSCN() < last {
			if err := sb.Err(); err != nil {
				return err
			}
			p.Sleep(10 * time.Millisecond)
		}
		return nil
	})
}

// ---- recovery ---------------------------------------------------------

// recoveryProbes time the recovery procedures alone; the redo they replay
// (600 New-Orders since the last checkpoint or backup) is produced outside
// the timed region. One operation is one whole recovery.
func (pb *prober) recoveryProbes() error {
	const txns = 600
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("recovery.instance_w%d", workers)
		err := inSim(func(k *sim.Kernel, p *sim.Proc) error {
			s, err := newStack(k, p, "primary", true, func(c *engine.Config) { c.RecoveryParallelism = workers })
			if err != nil {
				return err
			}
			rm := recovery.NewManager(s.in, nil)
			r := rand.New(rand.NewSource(2))
			return pb.recoveries(name, func() error {
				if err := s.in.Checkpoint(p); err != nil {
					return err
				}
				if err := s.newOrders(p, r, txns); err != nil {
					return err
				}
				s.in.Crash()
				return nil
			}, func() (*recovery.Report, error) { return rm.InstanceRecovery(p) })
		})
		if err != nil {
			return err
		}
	}

	// Media recovery of one deleted datafile: restore from the backup,
	// replay archived and online redo, bring it back online.
	return inSim(func(k *sim.Kernel, p *sim.Proc) error {
		s, err := newStack(k, p, "primary", true, func(c *engine.Config) { c.Redo.ArchiveMode = true })
		if err != nil {
			return err
		}
		bk := backup.NewManager(k, s.fs, engine.DiskArch)
		rm := recovery.NewManager(s.in, bk)
		stock, err := s.in.Catalog().Table(tpcc.TableStock)
		if err != nil {
			return err
		}
		victim := stock.Blocks()[0].File.Name
		r := rand.New(rand.NewSource(2))
		return pb.recoveries("recovery.media_datafile", func() error {
			if err := s.in.Checkpoint(p); err != nil {
				return err
			}
			if _, err := bk.TakeFull(p, s.in.DB(), s.in.Catalog(), s.in.DB().Control.CheckpointSCN); err != nil {
				return err
			}
			if err := s.in.ForceLogSwitch(p); err != nil {
				return err
			}
			if err := s.newOrders(p, r, txns); err != nil {
				return err
			}
			return s.fs.Delete(victim)
		}, func() (*recovery.Report, error) { return rm.RestoreAndRecoverDatafile(p, victim) })
	})
}

// recoveries runs prepare (untimed) then recover (timed), three times.
func (pb *prober) recoveries(name string, prepare func() error, recover func() (*recovery.Report, error)) error {
	cycles := 3
	if pb.tiny {
		cycles = 1
	}
	for c := 0; c < cycles; c++ {
		if err := prepare(); err != nil {
			return fmt.Errorf("probe %s: prepare: %w", name, err)
		}
		ns, allocs, err := timeBatch(1, func(int) error {
			rep, err := recover()
			if err == nil && rep.RecordsApplied == 0 {
				err = errors.New("recovery applied no records; the probe measures nothing")
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		pb.keepBest(name, ns, allocs)
	}
	return nil
}
