package core

import (
	"testing"
	"time"

	"dbench/internal/faults"
)

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// runs a mini experiment and reports the metric the choice moves.

func ablationSpec(name string) Spec {
	sc := miniScale()
	return sc.spec(mustConfig("F10G3T1"))
}

// BenchmarkAblationCacheSize shows the throughput cliff when the buffer
// cache stops covering the working set (why CacheBlocks is a first-order
// knob, and why the clustered layout matters: it shrinks the working set).
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, blocks := range []int{64, 512} {
		spec := ablationSpec("cache")
		spec.CacheBlocks = blocks
		for i := 0; i < b.N; i++ {
			res, err := Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			if blocks == 64 {
				b.ReportMetric(res.TpmC, "tpmC-cache64")
				b.ReportMetric(res.CacheHitRate, "hit-cache64")
			} else {
				b.ReportMetric(res.TpmC, "tpmC-cache512")
				b.ReportMetric(res.CacheHitRate, "hit-cache512")
			}
		}
	}
}

// BenchmarkAblationCheckpointTimeout isolates the paper's F*T1 effect: the
// 60 s timeout buys short crash recovery from a large-file configuration.
func BenchmarkAblationCheckpointTimeout(b *testing.B) {
	for _, timeout := range []time.Duration{20 * time.Minute, time.Minute} {
		cfg := mustConfig("F400G3T20")
		cfg.CheckpointTimeout = timeout
		sc := miniScale()
		spec := sc.spec(cfg)
		spec.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
		spec.InjectAt = sc.InjectTimes[2]
		spec.TailAfterRecovery = sc.Tail
		for i := 0; i < b.N; i++ {
			res, err := Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			if timeout == time.Minute {
				b.ReportMetric(res.RecoveryTime.Seconds(), "rec-s-T1")
			} else {
				b.ReportMetric(res.RecoveryTime.Seconds(), "rec-s-T20")
			}
		}
	}
}

// BenchmarkAblationDetectionTime shows that the lost-commit count of an
// incomplete recovery is set by the operator's detection latency, not by
// the recovery mechanism (the paper's §5.2 remark).
func BenchmarkAblationDetectionTime(b *testing.B) {
	for _, det := range []time.Duration{2 * time.Second, 30 * time.Second} {
		sc := miniScale()
		spec := sc.spec(mustConfig("F10G3T1"))
		spec.Archive = true
		spec.Fault = &faults.Fault{Kind: faults.DeleteUsersObject, Target: "stock"}
		spec.InjectAt = sc.InjectTimes[1]
		spec.Detection = det
		spec.TailAfterRecovery = sc.Tail
		for i := 0; i < b.N; i++ {
			res, err := Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			if det == 2*time.Second {
				b.ReportMetric(float64(res.LostTransactions), "lost-det2s")
			} else {
				b.ReportMetric(float64(res.LostTransactions), "lost-det30s")
			}
		}
	}
}
