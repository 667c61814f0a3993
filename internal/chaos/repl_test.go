package chaos

import (
	"testing"

	"dbench/internal/standby"
)

// replConfig is quickConfig with a streaming cluster attached: two
// first-tier stand-bys, every point recovered by promotion, and the
// window rotation extended with the partition and lag-spike link faults.
func replConfig(mode standby.Mode) Config {
	cfg := quickConfig()
	cfg.Standbys = 2
	cfg.ReplMode = mode
	return cfg
}

// TestChaosReplicationLinkFaults runs one full window rotation per mode —
// including the partition and lag-spike link-fault windows — and holds
// every point to the extended invariant battery: durability up to the
// promotion SCN (with zero RPO in sync mode), consistency on the promoted
// stand-by, idempotence of the promoted redo prefix, determinism of the
// stream transport (hash + repl.* counters in the fingerprint), and the
// dark-ack rule (no sync commit acknowledged while the quorum was
// partitioned). The fingerprints are pinned per seed: a change means the
// replication machinery's observable behaviour changed — re-pin only if
// that is deliberate.
func TestChaosReplicationLinkFaults(t *testing.T) {
	golden := map[string][windowCountRepl]uint64{
		"sync": {
			0xebfd6934dd32f11b,
			0x99f03fd37635f590,
			0x2d6f117638e189b4,
			0xa1af0a5f3a6597aa,
			0x54400356c53df835,
			0x43744acef9f15143,
		},
		"async": {
			0x207943098d00a583,
			0x4dadbb8188c6ebce,
			0x23df289e59963616,
			0x1bfac06b34b6e019,
			0xc088a8b0203fbb6a,
			0xf6787be16f188e3d,
		},
	}
	for _, mode := range []standby.Mode{standby.ModeSync, standby.ModeAsync} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			cfg := replConfig(mode)
			cfg.Points = windowCountRepl
			rep, err := Explore(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			sawPartition, sawLagSpike := false, false
			asyncLost := 0
			for _, p := range rep.Points {
				asyncLost += p.RPOLost
				t.Logf("%s point %d window %-10s fp %#x frames=%d rpoLost=%d darkAcks=%d",
					mode, p.Index, p.Window, p.Fingerprint, p.ReplFrames, p.RPOLost, p.DarkAcks)
				if !p.OK() {
					t.Errorf("%s point %d (%s): invariant violated: durable=%v(miss %d) consist=%v(viol %d) idem=%v determ=%v safe=%v(dark %d+%d) estim=%v",
						mode, p.Index, p.Window, p.Durable, p.MissingCommits,
						p.Consistent, p.Violations, p.Idempotent, p.Deterministic,
						p.ServedSafe, p.DarkCommits, p.DarkAcks, p.EstimateOK)
				}
				if !p.FailedOver {
					t.Errorf("%s point %d (%s): remedy was not a promotion", mode, p.Index, p.Window)
				}
				if p.ReplFrames == 0 || p.ReplRecords == 0 || p.StreamHash == 0 {
					t.Errorf("%s point %d (%s): stream transport left no evidence (frames=%d records=%d hash=%#x)",
						mode, p.Index, p.Window, p.ReplFrames, p.ReplRecords, p.StreamHash)
				}
				if mode == standby.ModeSync && p.RPOLost != 0 {
					t.Errorf("%s point %d (%s): sync RPO = %d, want 0", mode, p.Index, p.Window, p.RPOLost)
				}
				switch p.Window {
				case WindowPartition:
					sawPartition = true
				case WindowLagSpike:
					sawLagSpike = true
				}
				if want := golden[mode.String()][p.Index]; p.Fingerprint != want {
					t.Errorf("%s point %d (%s): fingerprint %#x, golden %#x (re-pin if the change is deliberate)",
						mode, p.Index, p.Window, p.Fingerprint, want)
				}
			}
			if !sawPartition || !sawLagSpike {
				t.Errorf("window rotation missed the link faults: partition=%v lag-spike=%v", sawPartition, sawLagSpike)
			}
			// The lag-spike window must make the async exposure visible
			// somewhere in the rotation — otherwise the RPO measures
			// hold vacuously.
			if mode == standby.ModeAsync && asyncLost == 0 {
				t.Error("async rotation lost no acknowledged commits: the link faults never exposed the stream tail")
			}
		})
	}
}

// TestSyncCommitsStallDuringPartition pins the commit-gate side of the
// dark-ack invariant from the other direction: in the partition window a
// sync exploration must record sync waits on the gate (commits piled up
// against the dark quorum) — evidence the gate was actually in the path
// rather than the invariant holding vacuously.
func TestSyncCommitsStallDuringPartition(t *testing.T) {
	cfg := replConfig(standby.ModeSync)
	// Index of WindowPartition in the rotation: window = index%mod + 1.
	idx := int(WindowPartition) - 1
	r, err := runPoint(cfg, idx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Window != WindowPartition {
		t.Fatalf("point %d landed in window %s, want partition", idx, r.Window)
	}
	if r.ReplSyncWaits == 0 {
		t.Error("partition window recorded no sync commit waits: the gate was not exercised")
	}
	if r.DarkAcks != 0 {
		t.Errorf("partition window acked %d sync commits against a dark quorum", r.DarkAcks)
	}
	// Determinism is Explore's verdict (it needs the rerun); every
	// single-run invariant must hold here.
	if !r.Durable || !r.Consistent || !r.Idempotent || !r.ServedSafe || !r.EstimateOK {
		t.Errorf("partition point violated an invariant: %+v", r)
	}
	if r.RPOLost != 0 {
		t.Errorf("sync partition lost %d acknowledged commits, want 0", r.RPOLost)
	}
}
