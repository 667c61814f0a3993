package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/tpcc"
)

// Crash-during-flashback: the logical rewind is itself a recovery
// procedure, so it gets the same treatment as crash recovery — kill the
// instance in the middle of FLASHBACK TABLE, run crash recovery, re-issue
// the flashback, and require convergence: the re-run must land on exactly
// the row set the uninterrupted flashback produces (which is the
// pre-fault row set), with all four standing invariants intact
// (durability, consistency, redo idempotence, determinism). The golden
// fingerprints pin the determinism contract per seed; if a deliberate
// engine change moves them, re-measure and update (the test logs the
// observed values).

// flashPoint is one crash-during-flashback scenario's outcome.
type flashPoint struct {
	// Interrupted reports the crash landed inside the flashback (the
	// first FLASHBACK TABLE returned an error).
	Interrupted bool
	// StockHash is the stock table's row-set hash after the re-issued
	// flashback; PreHash is the same hash taken before the fault.
	StockHash, PreHash uint64
	// RerunHash is the row-set hash after flashing back a second time on
	// the already-recovered table (idempotence).
	RerunHash uint64
	// ReappliedRecords and StateMoved are invariant (c): re-applying the
	// crash-captured redo after recovery must change nothing.
	ReappliedRecords int
	StateMoved       bool
	// MissingCommits / Violations are invariants (a) and (b).
	MissingCommits int
	Violations     int
	// Fingerprint condenses the final durable state and every measure
	// for the determinism comparison and the golden pin.
	Fingerprint uint64
}

// rowSetHash is an order-independent fingerprint of one table's logical
// row set.
func rowSetHash(p *sim.Proc, in *engine.Instance, table string) (uint64, error) {
	var sum uint64
	err := in.Scan(p, table, func(key int64, value []byte) bool {
		h := fnv.New64a()
		var kb [8]byte
		for i := range kb {
			kb[i] = byte(uint64(key) >> (8 * i))
		}
		h.Write(kb[:])
		h.Write(value)
		sum += h.Sum64()
		return true
	})
	return sum, err
}

// runFlashbackCrashPoint executes one seeded scenario end to end:
// workload, quiesce, truncate stock, crash `crashAfter` into the repairing
// flashback, crash-recover, re-issue the flashback twice, check.
func runFlashbackCrashPoint(seed int64, crashAfter time.Duration) (*flashPoint, error) {
	k := sim.NewKernel(seed)
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
	ecfg.CheckpointTimeout = 15 * time.Second
	in, err := engine.New(k, fs, ecfg)
	if err != nil {
		return nil, err
	}
	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := recovery.NewManager(in, bk)
	tcfg := tpcc.DefaultConfig()
	tcfg.Warehouses = 1
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 300
	tcfg.TerminalsPerWarehouse = 4
	app := tpcc.NewApp(in, tcfg)
	drv := tpcc.NewDriver(app, tpcc.DriverConfig{})

	res := &flashPoint{}
	var runErr error
	k.Go("flash-chaos", func(p *sim.Proc) {
		runErr = func() error {
			if err := in.Open(p); err != nil {
				return err
			}
			if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
				return err
			}
			if err := app.Load(p, rand.New(rand.NewSource(seed))); err != nil {
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
			p.Sleep(10 * time.Second)
			drv.Quiesce(p)
			ledger := append([]tpcc.CommitRecord(nil), drv.Commits()...)

			res.PreHash, err = rowSetHash(p, in, tpcc.TableStock)
			if err != nil {
				return err
			}
			preSCN := in.Log().NextSCN() - 1
			if err := in.TruncateTable(p, tpcc.TableStock); err != nil {
				return err
			}

			// The crash, aimed into the running flashback.
			killer := k.Go("killer", func(sp *sim.Proc) {
				sp.Sleep(crashAfter)
				in.Crash()
			})
			_, ferr := rm.FlashbackTable(p, tpcc.TableStock, preSCN)
			res.Interrupted = ferr != nil
			killer.Kill()

			// Crash recovery, with the redo captured for invariant (c).
			replay := captureRedo(in)
			if _, err := rm.InstanceRecovery(p); err != nil {
				return fmt.Errorf("crash recovery: %w", err)
			}
			before := StateHash(in)
			res.ReappliedRecords = rm.ReapplyDataRecords(replay)
			res.StateMoved = StateHash(in) != before

			// Convergence: the re-issued flashback must complete and land
			// on the pre-fault row set; a second re-issue must not move it.
			if _, err := rm.FlashbackTable(p, tpcc.TableStock, preSCN); err != nil {
				return fmt.Errorf("flashback re-run: %w", err)
			}
			res.StockHash, err = rowSetHash(p, in, tpcc.TableStock)
			if err != nil {
				return err
			}
			if _, err := rm.FlashbackTable(p, tpcc.TableStock, preSCN); err != nil {
				return fmt.Errorf("flashback second re-run: %w", err)
			}
			res.RerunHash, err = rowSetHash(p, in, tpcc.TableStock)
			if err != nil {
				return err
			}

			// Invariants (a) and (b) on the converged database.
			res.MissingCommits, _, err = missingFromLedger(p, app, ledger, -1)
			if err != nil {
				return err
			}
			viols, err := app.CheckConsistency(p)
			if err != nil {
				return err
			}
			res.Violations = len(viols)
			k.Stop()
			return nil
		}()
	})
	k.Run(sim.Time(200 * time.Hour))
	k.KillAll()
	if runErr != nil {
		return nil, runErr
	}
	h := fnv.New64a()
	for _, v := range []uint64{StateHash(in), res.StockHash, res.PreHash, res.RerunHash,
		uint64(res.ReappliedRecords), uint64(res.MissingCommits), uint64(res.Violations)} {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	res.Fingerprint = h.Sum64()
	return res, nil
}

// TestCrashDuringFlashbackConverges is the chaos extension for the logical
// recovery path: a crash in the middle of FLASHBACK TABLE must leave the
// database recoverable, and re-issuing the flashback must converge to the
// pre-fault row set. Golden fingerprints pin per-seed determinism.
func TestCrashDuringFlashbackConverges(t *testing.T) {
	golden := map[int64]uint64{
		1: 0xa591ef8cc78f22f3,
		2: 0x5a99608536f7af60,
	}
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const crashAfter = 100 * time.Millisecond
			res, err := runFlashbackCrashPoint(seed, crashAfter)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Interrupted {
				t.Errorf("crash at +%v did not interrupt the flashback; move the crash point", crashAfter)
			}
			// Flashback convergence and idempotence.
			if res.StockHash != res.PreHash {
				t.Errorf("re-issued flashback hash %#x != pre-fault hash %#x", res.StockHash, res.PreHash)
			}
			if res.RerunHash != res.StockHash {
				t.Errorf("second flashback re-run moved the row set: %#x -> %#x", res.StockHash, res.RerunHash)
			}
			// The four standing invariants.
			if res.MissingCommits != 0 {
				t.Errorf("durability: %d acked commits missing", res.MissingCommits)
			}
			if res.Violations != 0 {
				t.Errorf("consistency: %d violations", res.Violations)
			}
			if res.ReappliedRecords != 0 || res.StateMoved {
				t.Errorf("idempotence: %d records re-applied, state moved=%v", res.ReappliedRecords, res.StateMoved)
			}
			res2, err := runFlashbackCrashPoint(seed, crashAfter)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Fingerprint != res.Fingerprint {
				t.Errorf("determinism: reruns disagree: %#x vs %#x", res.Fingerprint, res2.Fingerprint)
			}
			t.Logf("seed %d fp %#x", seed, res.Fingerprint)
			if want := golden[seed]; res.Fingerprint != want {
				t.Errorf("fingerprint %#x, golden %#x (re-pin if the change is deliberate)", res.Fingerprint, want)
			}
		})
	}
}
