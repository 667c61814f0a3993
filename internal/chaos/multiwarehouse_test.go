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
		1: {0x862538d3eaeafb65, 0xe48bc6959a88f174, 0x8031b4a19984740b, 0x676a0b57e4523dd7},
		2: {0xd52694cd6af3fc4d, 0x6661295519f8cc87, 0x8324eda837bf8658, 0x48f9c953c8aca52e},
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
