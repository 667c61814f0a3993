package core

import (
	"strings"
	"testing"
	"time"

	"dbench/internal/control"
	"dbench/internal/faults"
	"dbench/internal/recovery"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

// quickSpec is a scaled-down experiment for unit tests.
func quickSpec(name string) Spec {
	spec := DefaultSpec()
	spec.Name = name
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 60
	cfg.Items = 500
	cfg.TerminalsPerWarehouse = 5
	spec.TPCC = cfg
	spec.CacheBlocks = 512
	spec.Duration = 3 * time.Minute
	return spec
}

func TestRunWithoutFault(t *testing.T) {
	spec := quickSpec("baseline")
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.TpmC <= 0 {
		t.Fatalf("tpmC = %v", res.TpmC)
	}
	if res.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.LostTransactions != 0 {
		t.Fatalf("lost = %d without fault", res.LostTransactions)
	}
	if len(res.IntegrityViolations) != 0 {
		t.Fatalf("violations without fault: %v", res.IntegrityViolations[0])
	}
	if len(res.Series) == 0 {
		t.Fatal("no throughput series")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, err := Run(quickSpec("det"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickSpec("det"))
	if err != nil {
		t.Fatal(err)
	}
	if a.TpmC != b.TpmC || a.Committed != b.Committed || a.Checkpoints != b.Checkpoints {
		t.Fatalf("nondeterministic: tpmC %v/%v committed %d/%d ckpts %d/%d",
			a.TpmC, b.TpmC, a.Committed, b.Committed, a.Checkpoints, b.Checkpoints)
	}
}

func TestRunWithShutdownAbort(t *testing.T) {
	spec := quickSpec("abort")
	spec.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
	spec.InjectAt = 60 * time.Second
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == nil {
		t.Fatal("no outcome")
	}
	if res.RecoveryTime <= 0 {
		t.Fatalf("recovery time = %v", res.RecoveryTime)
	}
	if res.UserOutage < res.RecoveryTime {
		t.Fatalf("outage %v < recovery %v", res.UserOutage, res.RecoveryTime)
	}
	if res.LostTransactions != 0 {
		t.Fatalf("shutdown abort lost %d committed transactions", res.LostTransactions)
	}
	if len(res.IntegrityViolations) != 0 {
		t.Fatalf("violations: %v", res.IntegrityViolations[0])
	}
}

func TestRunWithDeleteDatafile(t *testing.T) {
	spec := quickSpec("delfile")
	spec.Archive = true
	spec.Fault = &faults.Fault{Kind: faults.DeleteDatafile, Target: "TPCC_01.dbf"}
	spec.InjectAt = 60 * time.Second
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostTransactions != 0 {
		t.Fatalf("complete recovery lost %d transactions", res.LostTransactions)
	}
	if len(res.IntegrityViolations) != 0 {
		t.Fatalf("violations: %v", res.IntegrityViolations[0])
	}
}

func TestRunWithDropTableIncompleteRecovery(t *testing.T) {
	spec := quickSpec("droptable")
	spec.Archive = true
	spec.Fault = &faults.Fault{Kind: faults.DeleteUsersObject, Target: tpcc.TableOrderLine}
	spec.InjectAt = 90 * time.Second
	// Flashback is the preferred remedy for a dropped table; force the
	// physical point-in-time path to keep pinning its gap semantics.
	spec.ForcePhysical = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Report == nil || res.Outcome.Report.Complete {
		t.Fatal("expected incomplete recovery")
	}
	// Commits during the detection window are lost, but the recovered
	// database must be consistent (a transaction-consistent prefix).
	if len(res.IntegrityViolations) != 0 {
		t.Fatalf("violations: %v", res.IntegrityViolations[0])
	}
	// The recovery report counts every lost commit; the driver's probe
	// only verifies New-Order rows, so it sees a subset.
	if res.Outcome.Report.LostCommits == 0 {
		t.Fatal("expected commits lost during the detection window")
	}
	if res.LostTransactions > res.Outcome.Report.LostCommits {
		t.Fatalf("driver sees %d lost > recovery reported %d",
			res.LostTransactions, res.Outcome.Report.LostCommits)
	}
}

// TestRunWithDropTableFlashback is the same fault left to the preferred
// remedy: FLASHBACK TABLE resurrects the dropped table with the instance
// open, so the recovery is complete and localized, and the driver's
// durability probe decides the lost-transaction count.
func TestRunWithDropTableFlashback(t *testing.T) {
	spec := quickSpec("droptable-flash")
	spec.Archive = true
	spec.Fault = &faults.Fault{Kind: faults.DeleteUsersObject, Target: tpcc.TableOrderLine}
	spec.InjectAt = 90 * time.Second
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Report == nil || res.Outcome.Report.Kind != recovery.KindFlashback {
		t.Fatalf("report = %+v, want flashback", res.Outcome.Report)
	}
	if !res.Outcome.Report.Complete || !res.Outcome.Localized {
		t.Fatalf("flashback recovery complete=%v localized=%v, want true/true",
			res.Outcome.Report.Complete, res.Outcome.Localized)
	}
	if len(res.IntegrityViolations) != 0 {
		t.Fatalf("violations: %v", res.IntegrityViolations[0])
	}
	// Flashback rewinds only the damaged table: order_line rows written
	// after the pre-fault SCN are lost (the drop destroyed them; the
	// rewind cannot invent them), every other table keeps everything.
	if res.RecoveryTime <= 0 {
		t.Fatalf("recovery time = %v", res.RecoveryTime)
	}
}

func TestRunWithStandbyFailover(t *testing.T) {
	spec := quickSpec("standby")
	spec.Archive = true
	spec.Standbys, spec.ReplMode = 1, standby.ModeArchive
	spec.Recovery = mustConfig("F1G3T1")
	spec.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
	spec.InjectAt = 90 * time.Second
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveryTime <= 0 || res.RecoveryTime > 2*time.Minute {
		t.Fatalf("failover took %v", res.RecoveryTime)
	}
	// The archive stand-by is a cluster member like any other: the run
	// reports the failover, its V$REPLICATION row and the RTO estimate
	// taken at the promotion decision.
	if !res.FailedOver || res.RTOEstimate <= 0 {
		t.Fatalf("FailedOver=%v RTOEstimate=%v, want a failover with a positive estimate", res.FailedOver, res.RTOEstimate)
	}
	if len(res.Replication) != 1 || res.Replication[0].Mode != "archive" || res.Replication[0].Status != "PRIMARY" {
		t.Fatalf("V$REPLICATION = %+v, want one promoted archive-mode row", res.Replication)
	}
	// The stand-by loses the unarchived tail; that is the paper's
	// Figure 7 measure. The recovered prefix must still be consistent.
	if len(res.IntegrityViolations) != 0 {
		t.Fatalf("violations: %v", res.IntegrityViolations[0])
	}
}

func TestConfigTable(t *testing.T) {
	if len(Table3Configs) != 16 {
		t.Fatalf("Table3Configs = %d rows, want 16", len(Table3Configs))
	}
	if _, ok := ConfigByName("F40G3T5"); !ok {
		t.Fatal("F40G3T5 missing")
	}
	if _, ok := ConfigByName("nope"); ok {
		t.Fatal("bogus config found")
	}
	for _, c := range ArchiveConfigs() {
		if c.FileSize > 40<<20 {
			t.Fatalf("archive config %s too large", c.Name)
		}
	}
	if len(ArchiveConfigs()) != 8 {
		t.Fatalf("archive configs = %d, want 8", len(ArchiveConfigs()))
	}
}

// TestSpecMismatchesFailBeforeSetup: a spec whose parts do not fit together
// is refused by every entry — NewRig, Run and a campaign — before anything is
// built or loaded, with an error that names the mismatch. An archive-shipping
// stand-by on a primary that does not archive used to load the database and
// the stand-by, then panic on the missing archiver; a controller without the
// workload repository it reads failed only after the load. A replication
// field without stand-bys, or an injection instant without a fault, used to
// run as the plain run under a key of its own.
func TestSpecMismatchesFailBeforeSetup(t *testing.T) {
	archive := quickSpec("archive-standby")
	archive.Standbys, archive.ReplMode = 1, standby.ModeArchive
	blind := quickSpec("blind-controller")
	blind.Control = &control.Config{Budget: 30 * time.Second}
	cascade := quickSpec("cascade-without-standbys")
	cascade.ReplCascade = 1
	reads := quickSpec("reads-without-standbys")
	reads.ReplicaReads = 0.5
	mode := quickSpec("mode-without-standbys")
	mode.ReplMode, mode.ReplLink = standby.ModeSync, LinkWAN
	at := quickSpec("inject-at-without-fault")
	at.InjectAt = time.Minute
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{archive, "ReplMode archive needs Archive"},
		{blind, "Control needs the workload repository"},
		{cascade, "need Standbys > 0"},
		{reads, "need Standbys > 0"},
		{mode, "need Standbys > 0"},
		{at, "InjectAt needs a Fault"},
	} {
		check := func(entry string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s(%s): err = %v, want it to name the mismatch (%q)", entry, tc.spec.Name, err, tc.want)
			}
		}
		_, err := NewRig(tc.spec)
		check("NewRig", err)
		_, err = Run(tc.spec)
		check("Run", err)
		ran := 0
		_, err = table("mismatch", [][]Spec{{tc.spec}}).Run(tinyScale(), nil, func(string) { ran++ })
		check("Experiment.Run", err)
		if ran != 0 {
			t.Errorf("Experiment.Run(%s) ran %d jobs before refusing the spec", tc.spec.Name, ran)
		}
	}
}
