package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestRunCatalogScanRoundTrips drives the full `recover --scan`
// demonstration: seeded TPC-C database, stock truncated, dictionary
// destroyed, rebuilt from datafile headers — every table rediscovered and
// flashback still working on the rebuilt dictionary. Same seed must give
// the same report.
func TestRunCatalogScanRoundTrips(t *testing.T) {
	rep, err := RunCatalogScan(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scan did not round-trip:\n%s", FormatScan(rep))
	}
	if len(rep.TablesBefore) != 9 {
		t.Errorf("TPC-C schema has %d tables, want 9", len(rep.TablesBefore))
	}
	if !reflect.DeepEqual(rep.TablesBefore, rep.TablesAfter) {
		t.Errorf("tables diverge: before %v, after %v", rep.TablesBefore, rep.TablesAfter)
	}
	rep2, err := RunCatalogScan(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Errorf("same seed, different reports:\n%s\nvs\n%s", FormatScan(rep), FormatScan(rep2))
	}
}

func TestFormatScanReportsFailures(t *testing.T) {
	ok := &ScanReport{
		TablesBefore: []string{"a", "b"}, TablesAfter: []string{"a", "b"},
		FlashbackOK: true,
	}
	if s := FormatScan(ok); !strings.Contains(s, "result: OK") {
		t.Errorf("OK report rendered as:\n%s", s)
	}
	bad := &ScanReport{
		TablesBefore: []string{"a", "b"}, TablesAfter: []string{"a", "c"},
		Missing: []string{"b"}, Extra: []string{"c"},
	}
	s := FormatScan(bad)
	for _, want := range []string{"MISSING", "EXTRA", "MISMATCH", "result: FAILED"} {
		if !strings.Contains(s, want) {
			t.Errorf("failed report misses %q:\n%s", want, s)
		}
	}
}

// The logical table's speedup compares the two arms of its line: 20x for
// a 2 s flashback against a 40 s restore, 0 when either arm is missing.
func TestFormatLogicalTable(t *testing.T) {
	x, rows := logicalReport()
	speedup := func(r Row) float64 {
		vals := x.Tables[0].Values(r)
		return vals[len(vals)-1].(float64)
	}
	if got := speedup(rows[0][1]); got < 19.9 || got > 20.1 {
		t.Errorf("speedup = %v, want 20", got)
	}
	s := x.Text(rows)
	for _, want := range []string{"Truncate table", "speedup", "20.0x", "97%", "42%"} {
		if !strings.Contains(s, want) {
			t.Errorf("table misses %q:\n%s", want, s)
		}
	}
	for _, r := range []Row{rows[0][0], rows[0][2]} {
		if zero := speedup(r); zero != 0 {
			t.Errorf("%v: speedup with a missing arm = %v", r[0].Spec.Fault.Kind, zero)
		}
	}
}
