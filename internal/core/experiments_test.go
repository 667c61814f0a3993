package core

import (
	"testing"
	"time"

	"dbench/internal/faults"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

// miniScale keeps shape tests fast.
func miniScale() Scale {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 60
	cfg.Items = 500
	cfg.TerminalsPerWarehouse = 5
	return Scale{
		TPCC:        cfg,
		CacheBlocks: 512,
		Duration:    4 * time.Minute,
		InjectTimes: [3]time.Duration{30 * time.Second, 60 * time.Second, 120 * time.Second},
		Tail:        30 * time.Second,
		Seed:        7,
	}
}

// TestShapeCheckpointRateVsConfig encodes the Table 3 / Figure 4 shape:
// tiny log files checkpoint orders of magnitude more often than huge ones,
// and that costs throughput (or at least never helps it much).
func TestShapeCheckpointRateVsConfig(t *testing.T) {
	sc := miniScale()
	big, err := Run(sc.spec("big", mustConfig("F400G3T20")))
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := Run(sc.spec("tiny", mustConfig("F1G3T1")))
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Checkpoints <= big.Checkpoints {
		t.Fatalf("checkpoints tiny=%d big=%d; small logs must checkpoint more", tiny.Checkpoints, big.Checkpoints)
	}
	if tiny.TpmC > big.TpmC*1.05 {
		t.Fatalf("tpmC tiny=%.0f big=%.0f; frequent checkpoints should not speed things up", tiny.TpmC, big.TpmC)
	}
	t.Logf("big: tpmC=%.0f ckpts=%d; tiny: tpmC=%.0f ckpts=%d", big.TpmC, big.Checkpoints, tiny.TpmC, tiny.Checkpoints)
}

// TestShapeRecoveryGrid runs a small recovery grid and checks the paper's
// qualitative results: offline tablespace recovers in ~a second; shutdown
// abort recovery shrinks with checkpoint frequency; no integrity
// violations anywhere; complete recoveries lose nothing.
func TestShapeRecoveryGrid(t *testing.T) {
	sc := miniScale()
	configs := []RecoveryConfig{mustConfig("F40G3T10"), mustConfig("F1G3T1")}
	rows, err := recoveryGrid(sc, "", "test", []faults.Kind{faults.ShutdownAbort, faults.SetTablespaceOffline}, configs).Run(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows[0] {
		kind, cfg := r[0].Spec.Fault.Kind, r[0].Spec.Recovery.Name
		byKey[kind.String()+"/"+cfg] = r
		for i, res := range r {
			if n := len(res.IntegrityViolations); n != 0 {
				t.Errorf("%v/%s inject %d: %d integrity violations", kind, cfg, i, n)
			}
			if rep := res.Outcome.Report; rep != nil && rep.LostCommits != 0 {
				t.Errorf("%v/%s inject %d: %d lost commits on complete recovery", kind, cfg, i, rep.LostCommits)
			}
		}
	}
	// Offline tablespace: always close to a second (paper Table 5).
	for _, cfg := range configs {
		for i, res := range byKey["Set tablespace offline/"+cfg.Name] {
			if res.RecoveryTime > 5*time.Second {
				t.Errorf("offline tablespace recovery %v at %s inject %d", res.RecoveryTime, cfg.Name, i)
			}
		}
	}
	// Shutdown abort: the frequent-checkpoint config recovers at least
	// as fast as the lazy one (paper Table 5's dominant trend).
	lazy := byKey["Shutdown abort/F40G3T10"]
	eager := byKey["Shutdown abort/F1G3T1"]
	if eager[2].RecoveryTime > lazy[2].RecoveryTime {
		t.Errorf("shutdown abort recovery: eager %v > lazy %v", eager[2].RecoveryTime, lazy[2].RecoveryTime)
	}
	t.Logf("abort recovery at the late instant lazy=%v eager=%v", lazy[2].RecoveryTime, eager[2].RecoveryTime)
}

// TestShapeLostTransactionsVsLogSize encodes Figure 7: bigger online logs
// lose more transactions at stand-by failover.
func TestShapeLostTransactionsVsLogSize(t *testing.T) {
	sc := miniScale()
	lost := func(sizeMB int) int {
		cfg := RecoveryConfig{
			Name: "t", FileSize: int64(sizeMB) << 20, Groups: 3, CheckpointTimeout: time.Minute,
		}
		// Sub-MB sizes for the mini workload: scale by KB instead.
		cfg.FileSize = int64(sizeMB) << 10 * 64 // 64 KB per "MB" step
		spec := sc.spec("f7", cfg)
		spec.Archive = true
		spec.Standbys, spec.ReplMode = 1, standby.ModeArchive
		spec.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
		spec.InjectAt = sc.InjectTimes[2]
		spec.TailAfterRecovery = sc.Tail
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.LostTransactions
	}
	small, large := lost(1), lost(16)
	if small >= large {
		t.Fatalf("lost small=%d >= large=%d; bigger unarchived logs must lose more", small, large)
	}
	t.Logf("lost: small=%d large=%d", small, large)
}

// TestFigure7LostTransactionCountPinned pins the exact Figure 7 loss for
// one archive-shipped stand-by failover cell. The count is the acked
// commits in the never-archived online tail — an archive fully handed
// off before the crash must never join it (the RFS transport owns the
// transfer), so a change here means the shipping/activation accounting
// changed: re-pin only if that is deliberate. The failover's virtual
// duration is pinned with it, to the nanosecond (the value the two-path
// stand-by of PR 15 produced): activation overhead, the roll of whatever
// managed recovery had not applied yet, the rollback set and the open.
func TestFigure7LostTransactionCountPinned(t *testing.T) {
	sc := miniScale()
	cfg := RecoveryConfig{
		Name: "f7pin", FileSize: 16 << 10 * 64, Groups: 3, CheckpointTimeout: time.Minute,
	}
	spec := sc.spec("f7pin", cfg)
	spec.Archive = true
	spec.Standbys, spec.ReplMode = 1, standby.ModeArchive
	spec.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
	spec.InjectAt = sc.InjectTimes[2]
	spec.TailAfterRecovery = sc.Tail
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	const pinned = 109
	if res.LostTransactions != pinned {
		t.Errorf("Figure 7 cell lost %d transactions, pinned %d (re-pin if the change is deliberate)", res.LostTransactions, pinned)
	}
	const pinnedFailover = 8019562500 * time.Nanosecond
	if res.RecoveryTime != pinnedFailover {
		t.Errorf("Figure 7 cell failed over in %d ns, pinned %d (re-pin if the change is deliberate)", res.RecoveryTime, pinnedFailover)
	}
}
