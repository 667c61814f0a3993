package chaos

import (
	"testing"
	"time"

	"dbench/internal/control"
)

// Crash-point exploration with the self-tuning controller active: the
// controller ticks every 250 ms sample, so crash points land amid ALTER
// SYSTEM knob changes, checkpoint-timer re-arms and pending redo
// resizes — and every recovery invariant must still hold. The golden
// fingerprints pin determinism with the controller in the loop: its
// decision stream is folded in twice (trace instants into the event
// hash, ctl.* counters into the metric hash), so a nondeterministic
// controller decision fails here loudly. Measured once and pinned; if a
// deliberate controller or engine change moves them, re-measure and
// update the table (the test logs the observed values).
func TestExploreWithControllerAllInvariants(t *testing.T) {
	golden := map[int64][4]uint64{
		1: {0xa3b7b6e502eb7641, 0x5b48b0d11b8316ed, 0x3639faac7fd8fc66, 0xe3de78cc9e8cde29},
		2: {0x250c1d948b7438de, 0x88671bd86953d69c, 0xb83a238ab080c17c, 0xaa973d8105fe8ff9},
	}
	for _, seed := range []int64{1, 2} {
		cfg := quickConfig()
		// A 20 s budget is tight enough that the controller moves.
		cfg.Spec.Control = &control.Config{Budget: 20 * time.Second}
		cfg.Points = 4 // one per window
		cfg.Spec.Seed = seed
		rep, err := Explore(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllGreen() {
			t.Fatalf("seed %d: %d/%d points violated an invariant with the controller active:\n%s",
				seed, rep.Failed(), len(rep.Points), FormatReport(rep))
		}
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

// TestControllerRequiresSampling pins the configuration error: the
// controller's only sensor is the workload repository.
func TestControllerRequiresSampling(t *testing.T) {
	cfg := quickConfig()
	cfg.Spec.Control = &control.Config{Budget: 30 * time.Second}
	cfg.Spec.SampleInterval = 0
	cfg.Points = 1
	if _, err := Explore(cfg, nil); err == nil {
		t.Fatal("Controller without SampleInterval accepted")
	}
}
