package standby

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dbench/internal/archivelog"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/tpcc"
)

// Failover differential harness: crash a replicated primary at seeded
// points under TPC-C load, promote, and hold the outcome to three
// promises — sync mode loses no acknowledged commit (RPO 0 against the
// external ledger), async mode loses exactly the unacked stream tail
// (the acked commits between the best received watermark at the crash
// and the primary's flushed position) and archive mode exactly the
// unarchived tail (the acked commits past the last archived log ARCH
// handed off, in flight or not), and the promoted stand-by's datafile
// images are bit-identical to a serial recovery of the same redo prefix
// on a scratch clone. Mirrors the serial-vs-parallel differential in
// internal/recovery.

// diffLink is deliberately slow (20 ms one way) so frames are reliably
// in flight at the crash and the async tail is non-trivial.
var diffLink = sim.LinkSpec{Name: "diff", Latency: 20 * time.Millisecond, BytesPerSec: 20 << 20}

type failoverOutcome struct {
	mode        Mode
	promotedSCN redo.SCN
	// bestRecv is the redo the stand-bys hold a claim on at the crash: the
	// highest received watermark, or in archive mode the end of the last
	// archived log handed off (its transfer may still be in flight).
	bestRecv    redo.SCN
	flushed     redo.SCN // primary flushed SCN at the crash
	acked       int      // ledger size at the crash
	rpo         int      // acked commits beyond the promotion SCN
	tailCommits int      // acked commits in (bestRecv, flushed]
	promotedLag int64
	streamed    int // captured redo records offered to the streamers
	inFlight    int // archive transfers outstanding at the crash
	imageDiff   string
}

// snapshotImages deep-copies every datafile's durable blocks, keyed by
// file name.
func snapshotImages(db *storage.DB) map[string][]*storage.Block {
	images := make(map[string][]*storage.Block)
	for _, ts := range db.Tablespaces() {
		for _, f := range ts.Files {
			images[f.Name] = f.SnapshotImages()
		}
	}
	return images
}

// diffImages returns "" when identical, else the first difference.
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

// buildClone creates an engine holding the same physical database the
// primary checkpointed after loading: schema and rows recreated from the
// same seed on its own simulated machine, left unopened.
func buildClone(p *sim.Proc, k *sim.Kernel, ecfg engine.Config, tcfg tpcc.Config, seed int64, name string, workers int) (*engine.Instance, error) {
	cfg := ecfg
	cfg.Name = name
	cfg.RecoveryParallelism = workers
	in, err := engine.New(k, machineFS(), cfg)
	if err != nil {
		return nil, err
	}
	app := tpcc.NewApp(in, tcfg)
	if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
		return nil, err
	}
	if err := app.Load(p, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	return in, nil
}

// runFailoverDifferential runs one seeded crash-promote scenario and the
// serial reference recovery, all on one kernel.
func runFailoverDifferential(t *testing.T, seed int64, mode Mode, standbys, cascade int, crashAfter time.Duration) *failoverOutcome {
	t.Helper()
	k := sim.NewKernel(seed)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 1 << 20
	scfg := DefaultConfig()
	if mode == ModeArchive {
		// Logs small enough that several are archived before the crash,
		// over a shipping link slow enough that one is usually mid-transfer.
		ecfg.Redo.GroupSizeBytes = 128 << 10
		scfg.ShipBytesPerSec = 1 << 20
	}
	ecfg.Redo.Groups = 3
	ecfg.Redo.ArchiveMode = true
	ecfg.CacheBlocks = 256
	ecfg.CheckpointTimeout = 60 * time.Second
	ecfg.CPUs = 4
	tcfg := tpcc.DefaultConfig()
	tcfg.Warehouses = 1
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 300
	tcfg.TerminalsPerWarehouse = 4

	pri, err := engine.New(k, machineFS(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	app := tpcc.NewApp(pri, tcfg)
	drv := tpcc.NewDriver(app, tpcc.DriverConfig{})

	out := &failoverOutcome{mode: mode}
	var runErr error
	k.Go("diff", func(p *sim.Proc) {
		runErr = func() error {
			if err := pri.Open(p); err != nil {
				return err
			}
			if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
				return err
			}
			if err := app.Load(p, rand.New(rand.NewSource(seed))); err != nil {
				return err
			}
			if err := pri.Checkpoint(p); err != nil {
				return err
			}
			backupSCN := pri.DB().Control.CheckpointSCN
			if err := pri.ForceLogSwitch(p); err != nil {
				return err
			}

			sbs := make([]*Standby, standbys)
			for i := range sbs {
				in, err := buildClone(p, k, ecfg, tcfg, seed, fmt.Sprintf("sb%d", i+1), ecfg.RecoveryParallelism)
				if err != nil {
					return err
				}
				sbs[i] = New(in, scfg, backupSCN)
			}
			// The serial reference: same physical starting copy, redo
			// applied later by a single-worker recovery pipeline.
			refIn, err := buildClone(p, k, ecfg, tcfg, seed, "reference", 1)
			if err != nil {
				return err
			}

			cluster, err := NewCluster(pri, sbs, ClusterConfig{Mode: mode, Link: diffLink, Cascade: cascade})
			if err != nil {
				return err
			}
			if err := cluster.Start(p); err != nil {
				return err
			}
			// Tap the durable redo ahead of the streamers: captured is
			// exactly the stream the cluster was offered, the reference's
			// input. An archive cluster is offered whole archived logs
			// instead; handedOff is where the last of them ends.
			var captured []redo.Record
			handedOff := backupSCN
			pri.Log().OnDurable = func(dp *sim.Proc, recs []redo.Record) {
				captured = append(captured, recs...)
				if mode != ModeArchive {
					cluster.OnDurable(dp, recs)
				}
			}
			if mode == ModeArchive {
				pri.Archiver().OnArchived = func(ap *sim.Proc, al *archivelog.ArchivedLog) {
					handedOff = max(handedOff, al.LastSCN)
					cluster.OnArchived(ap, al)
				}
			}
			pri.Txns().CommitGate = cluster.CommitGate
			pri.OnStateChange = cluster.OnPrimaryState

			drv.Start()
			p.Sleep(crashAfter)
			pri.Crash()

			out.flushed = pri.Log().FlushedSCN()
			for _, s := range cluster.Standbys() {
				if r := s.ReceivedSCN(); r > out.bestRecv {
					out.bestRecv = r
				}
				out.inFlight += len(s.shipQueue)
			}
			if mode == ModeArchive {
				out.bestRecv = handedOff
			}
			ledger := append([]tpcc.CommitRecord(nil), drv.Commits()...)
			out.acked = len(ledger)
			out.streamed = len(captured)
			drv.Stop()

			if _, err := cluster.Promote(p); err != nil {
				return err
			}
			out.promotedSCN = cluster.PromotedSCN()
			out.promotedLag = cluster.PromotedLag()
			for _, c := range ledger {
				if c.SCN > out.promotedSCN {
					out.rpo++
				}
				if c.SCN > out.bestRecv {
					out.tailCommits++
				}
			}
			promoted := snapshotImages(cluster.Promoted().Instance().DB())

			// Serial reference: roll the same redo prefix forward on the
			// scratch clone — Failover discovers the losers itself from
			// the prefix, exactly as the promotion did from its loser
			// table plus unapplied tail.
			prefix := make([]redo.Record, 0, len(captured))
			for _, rec := range captured {
				if rec.SCN <= out.promotedSCN {
					prefix = append(prefix, rec)
				}
			}
			if err := refIn.Mount(p); err != nil {
				return err
			}
			if _, err := recovery.NewManager(refIn, nil).Failover(p, [][]redo.Record{prefix}, recovery.NewLosers(refIn), out.promotedSCN); err != nil {
				return err
			}
			out.imageDiff = diffImages(snapshotImages(refIn.DB()), promoted)
			return nil
		}()
	})
	k.Run(sim.Time(100 * time.Hour))
	if runErr != nil {
		t.Fatalf("seed=%d mode=%s sb=%d: %v", seed, mode, standbys, runErr)
	}
	return out
}

// TestFailoverDifferential is the headline battery: seeded crash points
// × {sync, async, archive} × stand-by counts {1, 3} (three includes a
// cascade).
func TestFailoverDifferential(t *testing.T) {
	points := []struct {
		seed  int64
		crash time.Duration
	}{
		{seed: 21, crash: 8 * time.Second},
		{seed: 22, crash: 13 * time.Second},
	}
	for _, mode := range []Mode{ModeSync, ModeAsync, ModeArchive} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			lost, inFlight := 0, 0
			for _, n := range []int{1, 3} {
				cascade := 0
				if n == 3 {
					cascade = 1
				}
				for _, pt := range points {
					out := runFailoverDifferential(t, pt.seed, mode, n, cascade, pt.crash)
					name := fmt.Sprintf("sb=%d seed=%d", n, pt.seed)
					t.Logf("%s: acked=%d streamed=%d promoted=%d flushed=%d rpo=%d tail=%d lag=%d inflight=%d",
						name, out.acked, out.streamed, out.promotedSCN, out.flushed,
						out.rpo, out.tailCommits, out.promotedLag, out.inFlight)
					// The scenario must be non-trivial.
					if out.acked == 0 || out.streamed == 0 {
						t.Fatalf("%s: trivial scenario (acked=%d streamed=%d)", name, out.acked, out.streamed)
					}
					// Promotion must recover the entire received tail:
					// nothing the stand-by held may be discarded.
					if out.promotedSCN != out.bestRecv {
						t.Errorf("%s: promoted to SCN %d but best received watermark at crash was %d",
							name, out.promotedSCN, out.bestRecv)
					}
					// RPO against the external ledger.
					if mode == ModeSync && out.rpo != 0 {
						t.Errorf("%s: sync failover lost %d acknowledged commits, want 0", name, out.rpo)
					}
					if out.rpo != out.tailCommits {
						t.Errorf("%s: RPO %d != unacked stream tail %d", name, out.rpo, out.tailCommits)
					}
					if int64(out.rpo) > out.promotedLag {
						t.Errorf("%s: RPO %d exceeds the promoted lag bound %d records", name, out.rpo, out.promotedLag)
					}
					lost += out.rpo
					inFlight += out.inFlight
					// The promoted images must equal the serial reference.
					if out.imageDiff != "" {
						t.Errorf("%s: promoted images diverge from serial recovery of the same prefix: %s",
							name, out.imageDiff)
					}
				}
			}
			// The slow link must make the exposure real somewhere, or the
			// RPO equalities hold vacuously.
			if mode != ModeSync && lost == 0 {
				t.Errorf("%s matrix lost no acknowledged commits: the unshipped tail was never exposed", mode)
			}
			if mode == ModeArchive && inFlight == 0 {
				t.Error("no archive was mid-transfer at any crash: promotion never had to drain the receiver")
			}
		})
	}
}

// TestStreamSeqGapHalts pins the framing-level gap rule: a skipped frame
// sequence number means redo is missing from the middle of the stream,
// so the stand-by halts rather than apply around the hole, and refuses
// promotion.
func TestStreamSeqGapHalts(t *testing.T) {
	k := sim.NewKernel(7)
	cfg := engine.DefaultConfig()
	in, err := engine.New(k, machineFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb := New(in, DefaultConfig(), 0)
	var runErr error
	k.Go("gap", func(p *sim.Proc) {
		runErr = func() error {
			if err := schemaStandby(p, sb.Instance()); err != nil {
				return err
			}
			if err := sb.Start(p); err != nil {
				return err
			}
			rec := func(scn int64) redo.Record {
				return redo.Record{SCN: redo.SCN(scn), Txn: 1, Op: redo.OpInsert, Table: "acct", Key: scn, After: []byte("x")}
			}
			f1 := &redo.StreamFrame{Seq: 1, PrimarySCN: 1, Records: []redo.Record{rec(1)}}
			sb.Receive(p, f1, f1.Encode())
			if sb.Err() != nil {
				return fmt.Errorf("in-sequence frame reported a gap: %v", sb.Err())
			}
			f3 := &redo.StreamFrame{Seq: 3, PrimarySCN: 3, Records: []redo.Record{rec(3)}}
			sb.Receive(p, f3, f3.Encode())
			if sb.Err() == nil {
				return fmt.Errorf("skipped frame sequence not detected")
			}
			if got := sb.ReceivedSCN(); got != 1 {
				return fmt.Errorf("received watermark advanced across the gap: %d", got)
			}
			if _, err := sb.Promote(p); err == nil {
				return fmt.Errorf("promotion succeeded across a stream gap")
			}
			return nil
		}()
	})
	k.Run(sim.Time(time.Hour))
	if runErr != nil {
		t.Fatal(runErr)
	}
}
