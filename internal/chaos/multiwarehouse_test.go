package chaos

import "testing"

// Crash-point exploration at four warehouses: the partitioned schema and
// the sharded buffer cache must keep every recovery invariant that holds
// at W=1. The golden fingerprints below are the
// determinism contract: they were measured once and pinned, so any change
// to the engine's deterministic execution at W=4 fails here loudly
// instead of surfacing later as a flaky campaign. If a deliberate
// behaviour change moves them, re-measure and update the table (the test
// logs the observed values).
func TestExploreFourWarehousesAllInvariants(t *testing.T) {
	golden := map[int64][4]uint64{
		1: {0x7d0c602d5eb4bd94, 0x1f23972079d271e7, 0xcfeac3a567e2c921, 0x74a67efd75627972},
		2: {0x50285be59d3f5dbb, 0xcbbc0f9b1083ba19, 0xd57bdcc81c2975c0, 0x8f96ab213befd93e},
	}
	for _, seed := range []int64{1, 2} {
		cfg := quickConfig()
		cfg.Spec.TPCC.Warehouses = 4
		cfg.Points = 4 // one per window
		cfg.Spec.Seed = seed
		rep, err := Explore(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllGreen() {
			t.Fatalf("seed %d: %d/%d points violated an invariant at W=4:\n%s",
				seed, rep.Failed(), len(rep.Points), FormatReport(rep))
		}
		// All four crash windows must actually have been exercised.
		windows := make(map[Window]bool)
		for _, p := range rep.Points {
			windows[p.Window] = true
		}
		if len(windows) != windowCount {
			t.Errorf("seed %d: only %d/%d windows covered", seed, len(windows), windowCount)
		}
		for _, p := range rep.Points {
			t.Logf("seed %d point %d window %-10s fp %#x", seed, p.Index, p.Window, p.Fingerprint)
			if want := golden[seed][p.Index]; p.Fingerprint != want {
				t.Errorf("seed %d point %d (%s): fingerprint %#x, golden %#x",
					seed, p.Index, p.Window, p.Fingerprint, want)
			}
		}
	}
}
