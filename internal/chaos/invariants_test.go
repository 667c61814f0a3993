package chaos

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/tpcc"
)

// Regression tests pinning each invariant checker: construct a violation
// by hand and assert the checker flags it. A checker that cannot see a
// planted violation would silently turn the whole exploration green.

type rig struct {
	k   *sim.Kernel
	in  *engine.Instance
	rm  *recovery.Manager
	app *tpcc.App
	err error
}

// newRig builds a one-warehouse rig; edits change the engine configuration
// before the instance is made.
func newRig(t *testing.T, edits ...func(*engine.Config)) *rig {
	t.Helper()
	k := sim.NewKernel(4321)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 4 << 20
	ecfg.CacheBlocks = 512
	ecfg.CheckpointTimeout = 60 * time.Second
	for _, edit := range edits {
		edit(&ecfg)
	}
	in, err := engine.New(k, fs, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := recovery.NewManager(in, bk)
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 30
	cfg.Items = 300
	app := tpcc.NewApp(in, cfg)
	return &rig{k: k, in: in, rm: rm, app: app}
}

// boot opens the instance, loads the schema and checkpoints, so every
// dirty block is on disk and the datafile images are current.
func (r *rig) boot(p *sim.Proc) error {
	if err := r.in.Open(p); err != nil {
		return err
	}
	if err := r.app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
		return err
	}
	if err := r.app.Load(p, rand.New(rand.NewSource(7))); err != nil {
		return err
	}
	return r.in.Checkpoint(p)
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	r.k.Go("test", func(p *sim.Proc) {
		if err := fn(p); err != nil {
			r.err = err
		}
	})
	r.k.Run(sim.Time(100 * time.Hour))
	if r.err != nil {
		t.Fatal(r.err)
	}
}

// Invariant (a): a ledger entry whose order row does not exist must be
// counted missing; entries that do exist, or that carry no order, must
// not be.
func TestDurabilityCheckerFlagsMissingCommit(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		ledger := []tpcc.CommitRecord{
			{Type: tpcc.TxnNewOrder, W: 1, D: 1, OID: 1},     // loaded by tpcc.Load: present
			{Type: tpcc.TxnNewOrder, W: 1, D: 1, OID: 99999}, // never created: missing
			{Type: tpcc.TxnPayment},                          // no order: skipped
			{Type: tpcc.TxnNewOrder, OID: 0},                 // user-aborted New-Order: skipped
		}
		missing, _, err := r.app.Missing(p, ledger, -1)
		if err != nil {
			return err
		}
		if missing != 1 {
			t.Errorf("Missing = %d, want 1 (only the fabricated OID)", missing)
		}
		return nil
	})
}

// Invariant (b): a planted TPC-C inconsistency (district counter ahead of
// the orders actually present) must fail the consistency verdict exactly
// as runPoint computes it.
func TestConsistencyCheckerFlagsPlantedViolation(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		tx, _ := r.in.Begin()
		db, err := r.in.ReadForUpdate(p, tx, tpcc.TableDistrict, tpcc.DKey(1, 1))
		if err != nil {
			return err
		}
		d, err := tpcc.DecodeDistrict(db)
		if err != nil {
			return err
		}
		d.NextOID += 7
		if err := r.in.Update(p, tx, tpcc.TableDistrict, tpcc.DKey(1, 1), d.Encode()); err != nil {
			return err
		}
		if err := r.in.Commit(p, tx); err != nil {
			return err
		}
		viols, err := r.app.CheckConsistency(p)
		if err != nil {
			return err
		}
		res := &PointResult{Violations: len(viols), Consistent: len(viols) == 0,
			Durable: true, Idempotent: true, Deterministic: true}
		if res.OK() {
			t.Error("planted district-counter skew not flagged by the consistency verdict")
		}
		return nil
	})
}

// Invariant (c): after a checkpoint, re-applying the online redo must be
// a no-op — and a record whose SCN is above every block image's SCN must
// be applied (count 1) and must change the state hash. A checker blind to
// either direction is broken.
func TestIdempotenceCheckerFlagsReappliedRecord(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		// Load is direct-path (no redo), so generate some: a few committed
		// updates, then a checkpoint so the block images are current.
		for i := 0; i < 5; i++ {
			tx, _ := r.in.Begin()
			wb, err := r.in.ReadForUpdate(p, tx, tpcc.TableWarehouse, tpcc.WKey(1))
			if err != nil {
				return err
			}
			w, err := tpcc.DecodeWarehouse(wb)
			if err != nil {
				return err
			}
			w.YTD += 10
			if err := r.in.Update(p, tx, tpcc.TableWarehouse, tpcc.WKey(1), w.Encode()); err != nil {
				return err
			}
			if err := r.in.Commit(p, tx); err != nil {
				return err
			}
		}
		if err := r.in.Checkpoint(p); err != nil {
			return err
		}
		recs, _ := r.in.Log().OnlineRecords(1)
		var data []redo.Record
		for _, rec := range recs {
			if rec.IsDataChange() {
				data = append(data, rec)
			}
		}
		if len(data) == 0 {
			t.Fatal("no data-change records in the online log after load")
		}
		before := StateHash(r.in)
		if n := r.rm.ReapplyDataRecords([][]redo.Record{data}); n != 0 {
			t.Errorf("ReapplyDataRecords(already applied) = %d, want 0", n)
		}
		if StateHash(r.in) != before {
			t.Error("StateHash changed after a no-op replay")
		}

		// Forge a future version of a real record: same table/key, SCN
		// beyond anything any block image carries.
		forged := data[len(data)-1]
		forged.SCN = r.in.Log().NextSCN() + 1000
		if n := r.rm.ReapplyDataRecords([][]redo.Record{{forged}}); n != 1 {
			t.Errorf("ReapplyDataRecords(forged future record) = %d, want 1", n)
		}
		if StateHash(r.in) == before {
			t.Error("StateHash did not change after the forged record applied")
		}
		return nil
	})
}

// The idempotence replay reads the archives where the online log has
// wrapped. Flattened, captureRedo's pieces are record for record what a
// flat walk of the archives and a copy of the online log give, and the
// failover trim keeps exactly the records at or below its cut.
func TestCaptureRedoReadsWhatAFlatWalkCopies(t *testing.T) {
	r := newRig(t, func(c *engine.Config) {
		c.Redo.GroupSizeBytes = 64 << 10
		c.Redo.Groups = 3
		c.Redo.ArchiveMode = true
	})
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		for i := 0; i < 1500; i++ {
			tx, _ := r.in.Begin()
			if err := r.in.Update(p, tx, tpcc.TableItem, tpcc.IKey(1+i%300), []byte(fmt.Sprintf("item %d", i))); err != nil {
				return err
			}
			if err := r.in.Commit(p, tx); err != nil {
				return err
			}
		}
		log := r.in.Log()
		archives := r.in.Archiver().Inventory().Logs()
		if len(archives) < 3 || log.LowestOnlineSCN() <= 1 {
			return fmt.Errorf("%d archives, lowest online SCN %d: the online log did not wrap", len(archives), log.LowestOnlineSCN())
		}
		// Read from the first SCN on, as from a control file restored from
		// before the load.
		ctl := r.in.DB().Control
		ctl.CheckpointSCN, ctl.UndoSCN = 0, 0

		var want []redo.Record
		next := redo.SCN(1)
		for _, al := range archives {
			for _, pc := range al.Pieces() {
				for _, rec := range pc {
					if rec.SCN >= next {
						want = append(want, rec)
						next = rec.SCN + 1
					}
				}
			}
		}
		online, _ := log.OnlineRecords(next)
		want = append(want, online...)

		pieces := captureRedo(r.in)
		if got := slices.Concat(pieces...); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("captureRedo reads %d records, the flat walk %d", len(got), len(want))
		}
		if len(online) == len(want) {
			return fmt.Errorf("the replay read no archive")
		}
		first, last := want[0].SCN, want[len(want)-1].SCN
		cuts := []redo.SCN{first - 1, first, pieces[0][len(pieces[0])-1].SCN, pieces[1][1].SCN, (first + last) / 2, last - 1, last, last + 1}
		for _, cut := range cuts {
			var kept []redo.Record
			for _, rec := range want {
				if rec.SCN <= cut {
					kept = append(kept, rec)
				}
			}
			if got := slices.Concat(cutAt(slices.Clone(pieces), cut)...); !reflect.DeepEqual(got, kept) {
				return fmt.Errorf("cut at SCN %d keeps %d records, want the %d at or below it", cut, len(got), len(kept))
			}
		}
		return nil
	})
}

// Invariant (d): the determinism verdict compares fingerprints alone, so
// the fingerprint must change when the state hash or any measure it folds
// in does — on a replicated point, where every measure is folded.
func TestFingerprintDetectsDivergence(t *testing.T) {
	base := PointResult{
		CrashAt: 1, CrashSCN: 2, AckedCommits: 3,
		RecoveryKind: recovery.KindInstance, RecoveryTime: 4,
		RecordsApplied: 5, BytesReplayed: 6,
		MissingCommits: 0, Violations: 0, ReappliedRecords: 0,
		Offered: 7, Served: 8, TraceHash: 9, TraceEvents: 10,
		MetricsHash: 11, MetricSamples: 12,
		EstimatedRedoReplay: 13, MeasuredRedoReplay: 14,
		ReplActive: true, StreamHash: 15, ReplFrames: 16, ReplBytes: 17, ReplRecords: 18,
	}
	const state = 42
	want := fingerprint(state, &base)
	if same := base; fingerprint(state, &same) != want {
		t.Fatal("equal points fingerprint differently")
	}
	if fingerprint(state+1, &base) == want {
		t.Error("fingerprint blind to a state hash divergence")
	}
	mutations := map[string]func(*PointResult){
		"CrashAt":             func(r *PointResult) { r.CrashAt++ },
		"CrashSCN":            func(r *PointResult) { r.CrashSCN++ },
		"AckedCommits":        func(r *PointResult) { r.AckedCommits++ },
		"RecoveryKind":        func(r *PointResult) { r.RecoveryKind = recovery.KindFailover },
		"RecoveryTime":        func(r *PointResult) { r.RecoveryTime++ },
		"RecordsApplied":      func(r *PointResult) { r.RecordsApplied++ },
		"BytesReplayed":       func(r *PointResult) { r.BytesReplayed++ },
		"MissingCommits":      func(r *PointResult) { r.MissingCommits++ },
		"Violations":          func(r *PointResult) { r.Violations++ },
		"ReappliedRecords":    func(r *PointResult) { r.ReappliedRecords++ },
		"Offered":             func(r *PointResult) { r.Offered++ },
		"Served":              func(r *PointResult) { r.Served++ },
		"DarkCommits":         func(r *PointResult) { r.DarkCommits++ },
		"TraceHash":           func(r *PointResult) { r.TraceHash++ },
		"TraceEvents":         func(r *PointResult) { r.TraceEvents++ },
		"MetricsHash":         func(r *PointResult) { r.MetricsHash++ },
		"MetricSamples":       func(r *PointResult) { r.MetricSamples++ },
		"EstimatedRedoReplay": func(r *PointResult) { r.EstimatedRedoReplay++ },
		"MeasuredRedoReplay":  func(r *PointResult) { r.MeasuredRedoReplay++ },
		"FailedOver":          func(r *PointResult) { r.FailedOver = true },
		"RPOLost":             func(r *PointResult) { r.RPOLost++ },
		"DarkAcks":            func(r *PointResult) { r.DarkAcks++ },
		"StreamHash":          func(r *PointResult) { r.StreamHash++ },
		"ReplFrames":          func(r *PointResult) { r.ReplFrames++ },
		"ReplBytes":           func(r *PointResult) { r.ReplBytes++ },
		"ReplRecords":         func(r *PointResult) { r.ReplRecords++ },
		"ReplSyncWaits":       func(r *PointResult) { r.ReplSyncWaits++ },
		"ReplSyncLost":        func(r *PointResult) { r.ReplSyncLost++ },
		"ReplResyncs":         func(r *PointResult) { r.ReplResyncs++ },
	}
	for field, mutate := range mutations {
		diverged := base
		mutate(&diverged)
		if fingerprint(state, &diverged) == want {
			t.Errorf("fingerprint blind to %s divergence", field)
		}
	}
}

// Two executions of the same crash point must agree on every observable;
// a different point must not produce the same fingerprint.
func TestRunPointDeterministicAcrossRuns(t *testing.T) {
	cfg := quickConfig()
	r1, err := runPoint(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runPoint(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Errorf("same seed diverged:\n  run1: %+v\n  run2: %+v", r1, r2)
	}
	r3, err := runPoint(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Fingerprint == r1.Fingerprint {
		t.Error("different points produced identical fingerprints")
	}
}

func TestExploreEndToEnd(t *testing.T) {
	cfg := quickConfig()
	cfg.Points = 4
	var lines []string
	rep, err := Explore(cfg, func(line string) { lines = append(lines, line) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != cfg.Points {
		t.Fatalf("got %d points, want %d", len(rep.Points), cfg.Points)
	}
	if len(lines) != cfg.Points {
		t.Errorf("got %d progress lines, want %d", len(lines), cfg.Points)
	}
	if !rep.AllGreen() {
		t.Errorf("%d/%d points violated an invariant:\n%s", rep.Failed(), cfg.Points, FormatReport(rep))
	}
	// The rendered report must be byte-identical across campaigns (the
	// determinism the CLI contract promises).
	rep2, err := Explore(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if FormatReport(rep) != FormatReport(rep2) {
		t.Errorf("report not byte-identical across reruns:\n--- first\n%s--- second\n%s",
			FormatReport(rep), FormatReport(rep2))
	}
}

func TestExploreRejectsBadConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.Points = 0
	if _, err := Explore(cfg, nil); err == nil {
		t.Error("Points=0 accepted")
	}
	cfg = quickConfig()
	cfg.CrashMax = cfg.CrashMin
	if _, err := Explore(cfg, nil); err == nil {
		t.Error("CrashMax == CrashMin accepted")
	}
}
