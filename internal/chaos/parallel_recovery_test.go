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
		1: {0x4d2b81a596245626, 0xc36d994119359c52, 0x6aedaa90f8fcc0af, 0xc57ea23158b0bf8d},
		2: {0xa5e5402604a8f431, 0x3243322b22072d7, 0x63ffc9814d6665a2, 0x28eda7b0f6acddea},
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
