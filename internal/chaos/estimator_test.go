package chaos

import (
	"testing"
	"time"
)

// TestEstimatorAccuracy is the estimator-as-tested-oracle gate (CI runs it
// under -race by name). For every explored crash point the last
// pre-crash V$RECOVERY_ESTIMATE redo-replay prediction must bracket the
// measured redo-replay phase within the tolerance band (±35% relative
// with a 400ms absolute floor), and the workload repository must actually
// have sampled — a point with zero samples would make the verdict
// vacuous, so it fails too.
func TestEstimatorAccuracy(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := quickConfig()
		cfg.Points = 4 // one per window
		cfg.Spec.Seed = seed
		rep, err := Explore(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Points {
			t.Logf("seed %d point %d (%-10s): est %v measured %v samples %d ok=%v",
				seed, p.Index, p.Window,
				p.EstimatedRedoReplay.Round(time.Millisecond),
				p.MeasuredRedoReplay.Round(time.Millisecond),
				p.MetricSamples, p.EstimateOK)
			if !p.EstimateOK {
				t.Errorf("seed %d point %d (%s): estimate %v outside tolerance of measured %v",
					seed, p.Index, p.Window, p.EstimatedRedoReplay, p.MeasuredRedoReplay)
			}
			if p.MetricSamples == 0 {
				t.Errorf("seed %d point %d (%s): repository never sampled", seed, p.Index, p.Window)
			}
		}
	}
}

// TestEstimatorDisabledVacuouslyGreen pins the disabled contract: with
// SampleInterval zero no repository exists, the metric hash is zero, and
// the estimator verdict is vacuously true rather than a spurious failure.
func TestEstimatorDisabledVacuouslyGreen(t *testing.T) {
	cfg := quickConfig()
	cfg.Spec.SampleInterval = 0
	r, err := runPoint(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.EstimateOK {
		t.Error("EstimateOK should be vacuously true with sampling disabled")
	}
	if r.MetricSamples != 0 || r.MetricsHash != 0 {
		t.Errorf("disabled sampling left metric evidence: samples=%d hash=%#x",
			r.MetricSamples, r.MetricsHash)
	}
	if r.EstimatedRedoReplay != 0 {
		t.Errorf("disabled sampling produced an estimate: %v", r.EstimatedRedoReplay)
	}
}

// TestEstimateWithin attacks the tolerance band directly.
func TestEstimateWithin(t *testing.T) {
	cases := []struct {
		name     string
		est, got time.Duration
		want     bool
	}{
		{"exact", 10 * time.Second, 10 * time.Second, true},
		{"inside-rel", 12 * time.Second, 10 * time.Second, true},
		{"edge-rel", 13500 * time.Millisecond, 10 * time.Second, true},
		{"outside-rel", 14 * time.Second, 10 * time.Second, false},
		{"abs-floor-saves-small", 390 * time.Millisecond, 10 * time.Millisecond, true},
		{"abs-floor-exceeded", 500 * time.Millisecond, 10 * time.Millisecond, false},
		{"underestimate-outside", 6 * time.Second, 10 * time.Second, false},
		{"both-zero", 0, 0, true},
	}
	for _, c := range cases {
		if got := estimateWithin(c.est, c.got); got != c.want {
			t.Errorf("%s: estimateWithin(%v, %v) = %v, want %v", c.name, c.est, c.got, got, c.want)
		}
	}
}
