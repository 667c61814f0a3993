package chaos

import "testing"

// quickConfig shrinks the exploration for test runtimes.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Spec.TPCC.CustomersPerDistrict = 30
	cfg.Spec.TPCC.Items = 300
	cfg.Spec.TPCC.TerminalsPerWarehouse = 4
	cfg.Spec.CacheBlocks = 256
	cfg.CrashMin = 2e9  // 2s
	cfg.CrashMax = 10e9 // 10s
	cfg.Spec.TailAfterRecovery = 3e9
	return cfg
}

func TestSmokeSinglePoint(t *testing.T) {
	cfg := quickConfig()
	for i := 0; i < windowCount; i++ {
		r, err := runPoint(cfg, i)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		t.Logf("point %d: durable=%v(miss %d) consistent=%v(viol %d) idem=%v(reapplied %d) applied=%d acked=%d",
			i, r.Durable, r.MissingCommits, r.Consistent, r.Violations, r.Idempotent, r.ReappliedRecords, r.RecordsApplied, r.AckedCommits)
		if !r.Durable || !r.Consistent || !r.Idempotent {
			t.Errorf("point %d: invariant violated", i)
		}
	}
}
