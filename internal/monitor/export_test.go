package monitor

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Golden-file tests for the repository's renderings: the CSV/JSON exports
// behind `dbench -stats`, the AWR diff report behind `dbench -awr`, and
// the V$ view bodies sqladmin serves. Determinism is the whole point of
// the virtual-time sampler, so a drifting column width or a reordered row
// must fail loudly. Regenerate intentionally with:
// go test ./internal/monitor -update
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s output changed:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

func TestWriteCSVGolden(t *testing.T) {
	r, _ := fixtureRepo(8, 3)
	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats_csv", b.String())
}

func TestWriteJSONGolden(t *testing.T) {
	r, _ := fixtureRepo(8, 3)
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats_json", b.String())
}

func TestFormatAWRGolden(t *testing.T) {
	r, _ := fixtureRepo(8, 5)
	checkGolden(t, "awr", FormatAWR(r))
}

func TestFormatVSysstatGolden(t *testing.T) {
	r, _ := fixtureRepo(8, 3)
	checkGolden(t, "vsysstat", FormatVSysstat(r))
}

func TestFormatVMetricGolden(t *testing.T) {
	r, _ := fixtureRepo(8, 3)
	checkGolden(t, "vmetric", FormatVMetric(r))
}

func TestFormatVRecoveryEstimateGolden(t *testing.T) {
	r, _ := fixtureRepo(8, 3)
	checkGolden(t, "vrecovery_estimate", FormatVRecoveryEstimate(r))
}

// TestExportsDeterministic is the byte-identity contract behind the
// determinism acceptance gate: two repositories fed the same workload
// must export the same bytes in every format.
func TestExportsDeterministic(t *testing.T) {
	a, _ := fixtureRepo(8, 6)
	b, _ := fixtureRepo(8, 6)
	var ca, cb bytes.Buffer
	if err := a.WriteCSV(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Error("CSV exports differ across identical runs")
	}
	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Error("JSON exports differ across identical runs")
	}
	if FormatAWR(a) != FormatAWR(b) {
		t.Error("AWR reports differ across identical runs")
	}
}

// TestFormatAWRGaugeGoneAtEnd covers the dynamic-gauge asymmetry: a
// tablespace offline at the window start but back online at the end still
// appears in the report, with "-" for the end value.
func TestFormatAWRGaugeGoneAtEnd(t *testing.T) {
	r := newRepository(4)
	down := true
	r.AddMultiProbe(func(emit func(string, int64)) {
		if down {
			emit("ts.offline_ns.users", 42)
		}
	})
	r.Sample(0)
	down = false
	r.Sample(1e9)
	got := FormatAWR(r)
	want := "ts.offline_ns.users                    42            -"
	if !bytes.Contains([]byte(got), []byte(want)) {
		t.Errorf("gone-at-end gauge row missing:\n%s", got)
	}
}

func TestFormatEmptyRepository(t *testing.T) {
	r := newRepository(4)
	if got := FormatAWR(r); got != "Workload repository: no samples.\n" {
		t.Errorf("empty AWR = %q", got)
	}
	if got := FormatVSysstat(r); got != "no samples\n" {
		t.Errorf("empty V$SYSSTAT = %q", got)
	}
	if got := FormatVMetric(r); got != "no samples\n" {
		t.Errorf("empty V$METRIC = %q", got)
	}
	if got := FormatVRecoveryEstimate(r); got != "no samples\n" {
		t.Errorf("empty V$RECOVERY_ESTIMATE = %q", got)
	}
}

// TestFormatVRecoveryEstimateNoEstimator pins the no-estimator rendering:
// a sampled repository with no bound estimator says so rather than
// printing a zero estimate.
func TestFormatVRecoveryEstimateNoEstimator(t *testing.T) {
	r := newRepository(4)
	r.Sample(0)
	if got := FormatVRecoveryEstimate(r); got != "no estimator bound\n" {
		t.Errorf("no-estimator V$RECOVERY_ESTIMATE = %q", got)
	}
}

func TestFormatVReplicationGolden(t *testing.T) {
	rows := []ReplicationRow{
		{Target: "standby1", Mode: "sync", ReceivedSCN: 536205, AppliedSCN: 536205,
			LagRecords: 0, Frames: 27922, Bytes: 246849282, Status: "PRIMARY"},
		{Target: "standby2", Mode: "sync", ReceivedSCN: 536190, AppliedSCN: 535900,
			LagRecords: 290, Frames: 27922, Bytes: 246849282, Status: "APPLYING"},
		{Target: "casc-standby2", Mode: "cascade", ReceivedSCN: 535100, AppliedSCN: 535100,
			LagRecords: 0, Frames: 27800, Bytes: 246100000, Status: "APPLYING"},
	}
	checkGolden(t, "vreplication", FormatVReplication(rows))
}

func TestFormatVReplicationEmpty(t *testing.T) {
	if got := FormatVReplication(nil); got != "no standby destinations\n" {
		t.Fatalf("empty view = %q", got)
	}
}

func TestCalibrationLabel(t *testing.T) {
	if got := calibrationLabel(0); got != "cost-model prior" {
		t.Fatalf("cold label = %q", got)
	}
	if got := calibrationLabel(3); got != "calibrated from 3 recoveries" {
		t.Fatalf("warm label = %q", got)
	}
}
