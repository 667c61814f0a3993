package recovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
	"dbench/internal/tpcc"
)

// Differential serial-vs-parallel harness: every recovery kind, run over
// the same crashed TPC-C database (fresh same-seed simulation per run,
// so the pre-fault history is bit-identical), must produce the same
// recovered state for every worker count — byte-identical datafile
// images, identical lost/undone transaction counts, identical report
// totals. Only recovery *time* may differ.

// repCounts is the worker-count-invariant slice of a Report: everything
// except the virtual-time fields.
type repCounts struct {
	Kind              Kind
	Complete          bool
	RecordsApplied    int
	BytesApplied      int64
	RecordsScanned    int
	ArchivesProcessed int
	LosersRolledBack  int
	LostCommits       int
	// Offered/Served are the driver's terminal-side counts: identical
	// pre-fault histories must have offered and served identically at
	// every worker count, and online recovery must never retroactively
	// turn served traffic into refused traffic.
	Offered int
	Served  int
}

func countsOf(rep *Report) repCounts {
	return repCounts{
		Kind:              rep.Kind,
		Complete:          rep.Complete,
		RecordsApplied:    rep.RecordsApplied,
		BytesApplied:      rep.BytesApplied,
		RecordsScanned:    rep.RecordsScanned,
		ArchivesProcessed: rep.ArchivesProcessed,
		LosersRolledBack:  rep.LosersRolledBack,
		LostCommits:       rep.LostCommits,
	}
}

// snapshotAllImages deep-copies every datafile's durable block images,
// keyed by file name: the bit-for-bit recovered state.
func snapshotAllImages(db *storage.DB) map[string][]*storage.Block {
	images := make(map[string][]*storage.Block)
	for _, ts := range db.Tablespaces() {
		for _, f := range ts.Files {
			images[f.Name] = f.SnapshotImages()
		}
	}
	return images
}

// diffImages returns "" when the two image sets are identical, else a
// description of the first difference.
func diffImages(base, got map[string][]*storage.Block) string {
	if len(base) != len(got) {
		return fmt.Sprintf("file count %d vs %d", len(base), len(got))
	}
	for name, bb := range base {
		gb, ok := got[name]
		if !ok {
			return fmt.Sprintf("file %s missing", name)
		}
		if len(bb) != len(gb) {
			return fmt.Sprintf("file %s: %d vs %d blocks", name, len(bb), len(gb))
		}
		for i := range bb {
			if !reflect.DeepEqual(bb[i], gb[i]) {
				return fmt.Sprintf("file %s block %d: SCN %d/%d rows %d/%d",
					name, i, bb[i].SCN, gb[i].SCN, len(bb[i].Rows), len(gb[i].Rows))
			}
		}
	}
	return ""
}

// diffRun is what one differential simulation produced: the recovered
// state snapshotted at the virtual instant recovery returned, the report,
// and the names of the recovery worker processes (recovery-apply-*,
// recovery-io-*) seen alive while it ran.
type diffRun struct {
	counts repCounts
	images map[string][]*storage.Block
	rep    *Report
	crew   map[string]bool
}

// diffRuns keeps each (kind, warehouses, workers) simulation, so the
// differential and the virtual-time pins (virtual_time_test.go) share the
// same 24 runs instead of simulating them twice.
var diffRuns = map[string]*diffRun{}

func runDifferential(t *testing.T, kind string, warehouses, workers int) (repCounts, map[string][]*storage.Block, *Report) {
	t.Helper()
	r := differentialRun(t, kind, warehouses, workers)
	return r.counts, r.images, r.rep
}

// differentialRun builds a fresh simulation (fixed kernel seed, so the
// entire pre-fault history is identical across calls), loads a TPC-C
// database at the given warehouse count, runs the workload, injects the
// fault for `kind` and recovers with the given worker count.
func differentialRun(t *testing.T, kind string, warehouses, workers int) *diffRun {
	t.Helper()
	key := fmt.Sprintf("%s/W%d/workers=%d", kind, warehouses, workers)
	if r, ok := diffRuns[key]; ok {
		return r
	}
	k := sim.NewKernel(1234)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 1 << 20
	ecfg.Redo.Groups = 3
	ecfg.Redo.ArchiveMode = true
	ecfg.CacheBlocks = 256
	ecfg.CheckpointTimeout = 60 * time.Second
	ecfg.CPUs = 4
	ecfg.RecoveryParallelism = workers
	in, err := engine.New(k, fs, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := tpcc.DefaultConfig()
	tcfg.Warehouses = warehouses
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 300
	tcfg.TerminalsPerWarehouse = 4
	app := tpcc.NewApp(in, tcfg)
	drv := tpcc.NewDriver(app, tpcc.DriverConfig{})
	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := NewManager(in, bk)

	var rep *Report
	var images map[string][]*storage.Block
	crew := map[string]bool{}
	var runErr error
	k.Go("diff", func(p *sim.Proc) {
		runErr = func() error {
			if err := in.Open(p); err != nil {
				return err
			}
			if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
				return err
			}
			if err := app.Load(p, rand.New(rand.NewSource(99))); err != nil {
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
			drv.Start()
			p.Sleep(30 * time.Second)
			drv.Quiesce(p)

			// Sample the live processes every virtual millisecond until
			// recovery returns: a crew or IO worker lives for a whole phase,
			// so any that is ever started is seen.
			recovering := true
			defer func() { recovering = false }()
			k.Go("crew-watch", func(wp *sim.Proc) {
				for recovering {
					for _, lp := range k.Live() {
						if strings.HasPrefix(lp.Name(), "recovery-") {
							crew[lp.Name()] = true
						}
					}
					wp.Sleep(time.Millisecond)
				}
			})

			// commitRow commits one synthetic history row (history keys
			// are a global sequence; huge keys cannot collide with it).
			commitRow := func(key int64) error {
				tx, err := in.Begin()
				if err != nil {
					return err
				}
				if err := in.Insert(p, tx, tpcc.TableHistory, key, []byte("diff")); err != nil {
					return err
				}
				return in.Commit(p, tx)
			}

			switch kind {
			case "instance":
				// Leave an in-flight transaction, then a commit so group
				// commit flushes its records: recovery must undo it.
				tx, err := in.Begin()
				if err != nil {
					return err
				}
				if err := in.Insert(p, tx, tpcc.TableHistory, 1<<60, []byte("inflight")); err != nil {
					return err
				}
				if err := commitRow(1<<60 + 1); err != nil {
					return err
				}
				in.Crash()
				rep, err = rm.InstanceRecovery(p)
				if err != nil {
					return err
				}
			case "media":
				// Operator fault: delete a datafile, restore from backup
				// and roll it forward.
				victim := "TPCC_01.dbf"
				if err := fs.Delete(victim); err != nil {
					return err
				}
				rep, err = rm.RestoreAndRecoverDatafile(p, victim)
				if err != nil {
					return err
				}
			case "pit":
				// Commits beyond the target: incomplete recovery must
				// discard exactly these, at every worker count.
				target := in.Log().NextSCN() - 1
				for i := int64(0); i < 5; i++ {
					if err := commitRow(1<<60 + i); err != nil {
						return err
					}
				}
				rep, err = rm.PointInTime(p, target)
				if err != nil {
					return err
				}
			case "tablespace":
				// Online tablespace recovery: delete one warehouse's
				// datafile, offline just its tablespace, restore and roll
				// it forward with the instance open throughout.
				victim, tsName := "TPCC_01.dbf", "TPCC"
				if warehouses > 1 {
					victim, tsName = "TPCC_W01_01.dbf", "TPCC_W01"
				}
				if err := fs.Delete(victim); err != nil {
					return err
				}
				if err := in.OfflineTablespaceForRecovery(p, tsName); err != nil {
					return err
				}
				rep, err = rm.OnlineTablespaceRecovery(p, tsName)
				if err != nil {
					return err
				}
				// Served-traffic invariant: online recovery repairs
				// storage under a live instance, so no commit the driver
				// acknowledged may be refused retroactively.
				lost, err := drv.VerifyDurability(p)
				if err != nil {
					return err
				}
				if len(lost) > 0 {
					return fmt.Errorf("online tablespace recovery lost %d acked commits", len(lost))
				}
			default:
				return fmt.Errorf("unknown differential kind %q", kind)
			}
			// Snapshot at the instant recovery returned, before any other
			// process can run: this is the state recovery produced.
			images = snapshotAllImages(in.DB())
			return nil
		}()
	})
	k.Run(sim.Time(100 * time.Hour))
	if runErr != nil {
		t.Fatalf("%s: %v", key, runErr)
	}
	counts := countsOf(rep)
	g := drv.Availability(0, sim.Time(100*time.Hour)).Global()
	counts.Offered, counts.Served = g.Offered, g.Served
	diffRuns[key] = &diffRun{counts: counts, images: images, rep: rep, crew: crew}
	return diffRuns[key]
}

// TestDifferentialSerialVsParallel is the headline differential: for each
// recovery kind and warehouse count, the parallel pipeline at 2 and 4
// workers must recover the database to exactly the serial result.
func TestDifferentialSerialVsParallel(t *testing.T) {
	for _, kind := range []string{"instance", "media", "pit", "tablespace"} {
		for _, w := range []int{1, 4} {
			kind, w := kind, w
			t.Run(fmt.Sprintf("%s/W%d", kind, w), func(t *testing.T) {
				base, baseImages, baseRep := runDifferential(t, kind, w, 1)
				checkPhases(t, baseRep)
				// The scenario must be non-trivial, or the differential
				// proves nothing.
				if base.RecordsApplied == 0 {
					t.Fatalf("serial baseline applied no records: %+v", base)
				}
				switch kind {
				case "instance":
					if base.LosersRolledBack == 0 {
						t.Fatalf("instance baseline rolled back no losers: %+v", base)
					}
				case "pit":
					if base.LostCommits != 5 {
						t.Fatalf("pit baseline lost %d commits, want 5", base.LostCommits)
					}
					if base.ArchivesProcessed == 0 {
						t.Fatalf("pit baseline read no archives: %+v", base)
					}
				}
				for _, workers := range []int{2, 4} {
					counts, images, rep := runDifferential(t, kind, w, workers)
					checkPhases(t, rep)
					if counts != base {
						t.Errorf("workers=%d: counts diverge from serial:\n  serial:   %+v\n  parallel: %+v",
							workers, base, counts)
					}
					if d := diffImages(baseImages, images); d != "" {
						t.Errorf("workers=%d: datafile images diverge from serial: %s", workers, d)
					}
					// The replay phase must record the fan-out it ran at.
					fanout := 0
					for _, ph := range rep.Phases {
						if ph.Name == PhaseRedoReplay && ph.Workers > fanout {
							fanout = ph.Workers
						}
					}
					if fanout != workers {
						t.Errorf("workers=%d: redo replay phase reports fan-out %d", workers, fanout)
					}
				}
			})
		}
	}
}
