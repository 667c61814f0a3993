package core

import (
	"bytes"
	"testing"
	"time"

	"dbench/internal/faults"
)

// sampledSpec is quickSpec with the workload repository on and a fault
// mid-run, so the sample stream covers load, crash and recovery.
func sampledSpec(name string) Spec {
	spec := quickSpec(name)
	spec.SampleInterval = time.Second
	spec.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
	spec.InjectAt = 60 * time.Second
	return spec
}

// TestRunStatsDeterministic is the acceptance gate behind `dbench
// -stats`: two runs of the same seeded spec must export byte-identical
// CSV and JSON metric streams.
func TestRunStatsDeterministic(t *testing.T) {
	export := func() (csv, js []byte) {
		t.Helper()
		res, err := Run(sampledSpec("stats-det"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Repository == nil {
			t.Fatal("SampleInterval set but no repository on the result")
		}
		var cb, jb bytes.Buffer
		if err := res.Repository.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if err := res.Repository.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), jb.Bytes()
	}
	csv1, js1 := export()
	csv2, js2 := export()
	if !bytes.Equal(csv1, csv2) {
		t.Error("CSV stats differ across same-seed reruns")
	}
	if !bytes.Equal(js1, js2) {
		t.Error("JSON stats differ across same-seed reruns")
	}
	if len(csv1) < 1000 {
		t.Errorf("CSV export suspiciously small (%d bytes) for a 3-minute sampled run", len(csv1))
	}
}

// TestRunRepositoryCoversRecovery checks the repository the Run hands
// back actually saw the fault: samples exist, the estimator was bound,
// and the completed recovery calibrated it.
func TestRunRepositoryCoversRecovery(t *testing.T) {
	res, err := Run(sampledSpec("stats-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	repo := res.Repository
	if repo.Len() < 60 {
		t.Fatalf("only %d samples over a 3-minute run at 1s cadence", repo.Len())
	}
	last, _ := repo.Last()
	if !last.Estimate.Valid {
		t.Fatal("samples carry no estimate")
	}
	if last.Estimate.Calibrations == 0 {
		t.Error("completed crash recovery did not calibrate the estimator")
	}
	if last.Counter("engine.crashes") == 0 {
		t.Error("crash not visible in the sampled counters")
	}
}

// TestEstimateTracksConfig is the observability claim behind the
// EXPERIMENTS.md workload-repository section: the live recovery-time
// estimate and the checkpoint lag must visibly track the recovery
// configuration. F100G3T1 checkpoints on its one-minute timer, bounding
// the redo a crash-now recovery would replay; F400G3T20 neither fills a
// group nor reaches its timer within a quick run, so its lag and
// estimate grow with the run. The second-half means separate signal
// from sampling noise.
func TestEstimateTracksConfig(t *testing.T) {
	sample := func(cfgName string) (meanLag, meanEst float64) {
		t.Helper()
		spec := quickSpec("track-" + cfgName)
		spec.Recovery = mustConfig(cfgName)
		spec.SampleInterval = time.Second
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		repo := res.Repository
		half := repo.Len() / 2
		n := 0
		for i := half; i < repo.Len(); i++ {
			s := repo.At(i)
			if !s.Estimate.Valid {
				t.Fatalf("%s: sample %d carries no estimate", cfgName, i)
			}
			meanLag += float64(s.Gauge("ckpt.lag"))
			meanEst += s.Estimate.RedoReplay.Seconds()
			n++
		}
		if n == 0 {
			t.Fatalf("%s: no samples in the second half", cfgName)
		}
		return meanLag / float64(n), meanEst / float64(n)
	}
	smallLag, smallEst := sample("F100G3T1")
	bigLag, bigEst := sample("F400G3T20")
	t.Logf("F100G3T1: mean ckpt.lag=%.0f est=%.2fs; F400G3T20: mean ckpt.lag=%.0f est=%.2fs",
		smallLag, smallEst, bigLag, bigEst)
	if bigLag < 2*smallLag {
		t.Errorf("checkpoint lag does not track the config: F400=%.0f < 2x F100=%.0f", bigLag, smallLag)
	}
	if bigEst < 2*smallEst {
		t.Errorf("recovery estimate does not track the config: F400=%.2fs < 2x F100=%.2fs", bigEst, smallEst)
	}
}

// TestRunWithoutSamplingHasNoRepository pins the disabled default: specs
// that don't opt in pay nothing and get nil.
func TestRunWithoutSamplingHasNoRepository(t *testing.T) {
	res, err := Run(quickSpec("no-stats"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Repository != nil {
		t.Error("repository exists without SampleInterval")
	}
}
