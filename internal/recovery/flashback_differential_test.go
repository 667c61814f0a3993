package recovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/tpcc"
)

// Logical-vs-physical differential harness: every single-table operator
// fault, injected into the same seeded TPC-C history, is repaired twice —
// once by FLASHBACK TABLE (logical recovery from the redo stream, instance
// open) and once by the paper's whole-database point-in-time restore. Both
// remedies must converge to bit-identical logical table contents and
// identical TPC-C consistency results; only the repair *time* may differ,
// and it must differ in flashback's favour by at least an order of
// magnitude.

// logicalFaults names the three fault shapes the harness drives. All three
// damage exactly one table (stock: the largest, most update-heavy TPC-C
// segment), which is what makes a one-table logical rewind a candidate
// remedy at all.
var logicalFaults = []string{"drop", "truncate", "misroute"}

// logicalOutcome is one remedy's result: the recovered database reduced to
// a per-table logical fingerprint, plus the consistency verdict and the
// repair time.
type logicalOutcome struct {
	hashes       map[string]uint64
	violations   []tpcc.Violation
	rep          *Report
	recoveryTime time.Duration
}

// tableHashes fingerprints the logical contents (key → value pairs) of
// every table in the dictionary, order-independently.
func tableHashes(p *sim.Proc, in *engine.Instance) (map[string]uint64, error) {
	hashes := make(map[string]uint64)
	for _, tbl := range in.Catalog().Tables() {
		var sum uint64
		err := in.Scan(p, tbl.Name, func(key int64, value []byte) bool {
			h := uint64(1469598103934665603) // FNV-1a offset basis
			for i := 0; i < 8; i++ {
				h = (h ^ uint64(byte(uint64(key)>>(8*i)))) * 1099511628211
			}
			for _, b := range value {
				h = (h ^ uint64(b)) * 1099511628211
			}
			sum += h
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("scan %s: %w", tbl.Name, err)
		}
		hashes[tbl.Name] = sum
	}
	return hashes, nil
}

// injectLogicalFault performs the named operator fault against the stock
// table using the same administrative means the fault injector uses.
func injectLogicalFault(p *sim.Proc, in *engine.Instance, fault string) error {
	switch fault {
	case "drop":
		return in.DropTable(p, tpcc.TableStock)
	case "truncate":
		return in.TruncateTable(p, tpcc.TableStock)
	case "misroute":
		// The mis-routed batch job: a WHERE clause hitting the wrong
		// rows — lowest 50 keys overwritten in one committed transaction.
		var keys []int64
		if err := in.Scan(p, tpcc.TableStock, func(key int64, _ []byte) bool {
			keys = append(keys, key)
			return true
		}); err != nil {
			return err
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		if len(keys) > 50 {
			keys = keys[:50]
		}
		tx, err := in.Begin()
		if err != nil {
			return err
		}
		for _, key := range keys {
			if err := in.Update(p, tx, tpcc.TableStock, key, []byte("misrouted batch value")); err != nil {
				return err
			}
		}
		return in.Commit(p, tx)
	default:
		return fmt.Errorf("unknown logical fault %q", fault)
	}
}

// runLogicalDifferential builds a fresh simulation (fixed kernel seed, so
// the pre-fault history is bit-identical across calls), runs the seeded
// TPC-C workload, quiesces, injects the fault, and repairs it with the
// selected remedy.
func runLogicalDifferential(t *testing.T, fault string, warehouses int, physical bool) logicalOutcome {
	t.Helper()
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

	var out logicalOutcome
	var runErr error
	k.Go("logical-diff", func(p *sim.Proc) {
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

			// Workload quiesced: the last committed SCN is the pre-fault
			// point both remedies must return to.
			preSCN := in.Log().NextSCN() - 1
			if err := injectLogicalFault(p, in, fault); err != nil {
				return err
			}

			if physical {
				out.rep, err = rm.PointInTime(p, preSCN)
			} else {
				out.rep, err = rm.FlashbackTable(p, tpcc.TableStock, preSCN)
			}
			if err != nil {
				return err
			}
			out.recoveryTime = out.rep.Duration()
			out.hashes, err = tableHashes(p, in)
			if err != nil {
				return err
			}
			out.violations, err = app.CheckConsistency(p)
			return err
		}()
	})
	k.Run(sim.Time(100 * time.Hour))
	if runErr != nil {
		remedy := "flashback"
		if physical {
			remedy = "physical"
		}
		t.Fatalf("%s/W%d/%s: %v", fault, warehouses, remedy, runErr)
	}
	return out
}

// TestDifferentialLogicalVsPhysical is the headline equivalence proof: for
// each single-table operator fault and warehouse count, FLASHBACK TABLE
// and the physical point-in-time baseline must recover identical logical
// table contents and identical consistency results, with flashback at
// least 10x faster.
func TestDifferentialLogicalVsPhysical(t *testing.T) {
	for _, fault := range logicalFaults {
		for _, w := range []int{1, 4} {
			fault, w := fault, w
			t.Run(fmt.Sprintf("%s/W%d", fault, w), func(t *testing.T) {
				flash := runLogicalDifferential(t, fault, w, false)
				phys := runLogicalDifferential(t, fault, w, true)
				checkPhases(t, flash.rep)
				checkPhases(t, phys.rep)
				if flash.rep.Kind != KindFlashback {
					t.Errorf("flashback arm ran %v", flash.rep.Kind)
				}
				if phys.rep.Kind != KindPointInTime {
					t.Errorf("physical arm ran %v", phys.rep.Kind)
				}
				// Non-triviality: the fault must have damaged something for
				// the remedies to repair. DROP TABLE leaves the data blocks
				// in place (the rewind is pure metadata resurrection), so
				// its record counts are legitimately zero; the other two
				// rewind real row images.
				if fault != "drop" && flash.rep.RecordsApplied == 0 {
					t.Fatalf("flashback applied no records: %+v", flash.rep)
				}
				if h, ok := flash.hashes[tpcc.TableStock]; !ok || h == 0 {
					t.Fatalf("flashback arm has no recovered stock table (hashes: %v)", flash.hashes)
				}
				// Equivalence: identical logical contents, table by table.
				if !reflect.DeepEqual(flash.hashes, phys.hashes) {
					for name, fh := range flash.hashes {
						if ph, ok := phys.hashes[name]; !ok || ph != fh {
							t.Errorf("table %s: flashback hash %x, physical hash %x", name, fh, ph)
						}
					}
					for name := range phys.hashes {
						if _, ok := flash.hashes[name]; !ok {
							t.Errorf("table %s: only in physical arm", name)
						}
					}
				}
				// Identical consistency verdicts — and both clean: neither
				// remedy may leave a C1-C9 violation behind.
				if !reflect.DeepEqual(flash.violations, phys.violations) {
					t.Errorf("consistency verdicts diverge:\n  flashback: %v\n  physical:  %v",
						flash.violations, phys.violations)
				}
				if len(flash.violations) > 0 {
					t.Errorf("consistency violations after recovery: %v", flash.violations)
				}
				// Strict ordering: a one-table logical rewind must beat a
				// whole-database restore-and-roll-forward by >= 10x.
				if flash.recoveryTime <= 0 || phys.recoveryTime < 10*flash.recoveryTime {
					t.Errorf("recovery times: flashback %v, physical %v (want physical >= 10x flashback)",
						flash.recoveryTime, phys.recoveryTime)
				}
			})
		}
	}
}

// TestFlashbackAvailabilityUnderLiveTraffic pins the availability half of
// the flashback claim: repairing one table with the instance open must
// keep serving the transaction types that never touch the damaged table.
// Stock is read or written only by New-Order and Stock-Level; Payment,
// Order-Status and Delivery must see >= 95% served while the stock table
// is truncated and flashed back under full terminal load.
func TestFlashbackAvailabilityUnderLiveTraffic(t *testing.T) {
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
	in, err := engine.New(k, fs, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := tpcc.DefaultConfig()
	tcfg.Warehouses = 4
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 300
	tcfg.TerminalsPerWarehouse = 4
	app := tpcc.NewApp(in, tcfg)
	drv := tpcc.NewDriver(app, tpcc.DriverConfig{})
	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := NewManager(in, bk)

	var faultAt, repairedAt sim.Time
	var rep *Report
	var runErr error
	k.Go("avail", func(p *sim.Proc) {
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

			// The fault and its repair run under live traffic: terminals
			// keep submitting throughout.
			preSCN := in.Log().NextSCN() - 1
			faultAt = p.Now()
			if err := in.TruncateTable(p, tpcc.TableStock); err != nil {
				return err
			}
			var ferr error
			rep, ferr = rm.FlashbackTable(p, tpcc.TableStock, preSCN)
			if ferr != nil {
				return ferr
			}
			repairedAt = p.Now()
			p.Sleep(15 * time.Second)
			drv.Quiesce(p)
			return nil
		}()
	})
	k.Run(sim.Time(100 * time.Hour))
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Kind != KindFlashback {
		t.Fatalf("repair ran %v, want flashback", rep.Kind)
	}
	if repairedAt <= faultAt {
		t.Fatalf("repair window empty: [%v, %v]", faultAt, repairedAt)
	}

	// Tally per-transaction-type served/offered over the repair window.
	touchesStock := map[tpcc.TxnType]bool{tpcc.TxnNewOrder: true, tpcc.TxnStockLevel: true}
	served := make(map[tpcc.TxnType]int)
	offered := make(map[tpcc.TxnType]int)
	for _, c := range drv.Commits() {
		if c.At >= faultAt && c.At < repairedAt {
			served[c.Type]++
			offered[c.Type]++
		}
	}
	for _, f := range drv.Failures() {
		if f.At >= faultAt && f.At < repairedAt {
			offered[f.Type]++
		}
	}
	var outsideServed, outsideOffered int
	for typ, n := range offered {
		if !touchesStock[typ] {
			outsideServed += served[typ]
			outsideOffered += n
		}
	}
	if outsideOffered == 0 {
		t.Fatal("no traffic outside the damaged table during the repair window")
	}
	frac := float64(outsideServed) / float64(outsideOffered)
	if frac < 0.95 {
		t.Errorf("availability outside the damaged table = %d/%d = %.1f%%, want >= 95%%",
			outsideServed, outsideOffered, 100*frac)
	}
	// The damaged table itself is expected to refuse traffic while frozen;
	// the point of flashback is that the refusals stay confined to it. A
	// whole-database restore would have refused everything.
	t.Logf("repair window %v: outside-table availability %d/%d = %.1f%%",
		time.Duration(repairedAt-faultAt), outsideServed, outsideOffered, 100*frac)
}
