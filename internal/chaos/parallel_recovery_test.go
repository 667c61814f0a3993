package chaos

import "testing"

// Crash-point exploration with the parallel recovery pipeline: at four
// warehouses and four apply workers, every invariant that holds for
// serial recovery must keep holding, and the campaign must stay
// deterministic — the per-seed fingerprints below are pinned goldens,
// measured once, and must be identical at every campaign -parallel
// setting. Parallel recovery changes when recovery finishes, never what
// it recovers, so a fingerprint change here means the pipeline diverged
// from the serial semantics (or a deliberate engine change moved the
// goldens; re-measure from the test log in that case).
func TestExploreParallelRecoveryAllInvariants(t *testing.T) {
	golden := map[int64][4]uint64{
		1: {0x836cfaa42bcb884f, 0x7e0ab57e0e24dac2, 0xdc2fa6f666b47413, 0x472cf7822629b220},
		2: {0x822fbfa6c402f7ed, 0xc670a61e226a5f30, 0x9e48b08a8c9968dc, 0x55f6c14be02374a4},
	}
	for _, seed := range []int64{1, 2} {
		var fps [2][4]uint64
		for pi, par := range []int{1, 2} {
			cfg := quickConfig()
			cfg.Spec.TPCC.Warehouses = 4
			cfg.Spec.RecoveryWorkers = 4
			cfg.Points = 4 // one per window
			cfg.Spec.Seed = seed
			cfg.Parallel = par
			rep, err := Explore(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.AllGreen() {
				t.Fatalf("seed %d parallel %d: %d/%d points violated an invariant with 4 recovery workers:\n%s",
					seed, par, rep.Failed(), len(rep.Points), FormatReport(rep))
			}
			windows := make(map[Window]bool)
			for _, p := range rep.Points {
				windows[p.Window] = true
			}
			if len(windows) != windowCount {
				t.Errorf("seed %d: only %d/%d windows covered", seed, len(windows), windowCount)
			}
			for _, p := range rep.Points {
				fps[pi][p.Index] = p.Fingerprint
			}
		}
		if fps[0] != fps[1] {
			t.Errorf("seed %d: fingerprints differ across campaign -parallel settings:\n  parallel=1: %#x\n  parallel=2: %#x",
				seed, fps[0], fps[1])
		}
		for i, fp := range fps[0] {
			t.Logf("seed %d point %d fp %#x", seed, i, fp)
			if want := golden[seed][i]; fp != want {
				t.Errorf("seed %d point %d: fingerprint %#x, golden %#x", seed, i, fp, want)
			}
		}
	}
}
