package core

import (
	"strings"
	"testing"
)

func TestScaleValidateRejectsEmptyWorkloads(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scale)
		want   string // substring of the error, "" = valid
	}{
		{"valid", func(sc *Scale) {}, ""},
		{"zero warehouses", func(sc *Scale) { sc.TPCC.Warehouses = 0 }, "Warehouses"},
		{"negative warehouses", func(sc *Scale) { sc.TPCC.Warehouses = -3 }, "Warehouses"},
		{"zero terminals", func(sc *Scale) { sc.TPCC.TerminalsPerWarehouse = 0 }, "Terminals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := miniScale()
			tc.mutate(&sc)
			err := sc.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid scale rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid scale accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// Run is where every entry (campaign, tpccrun, faultinject,
			// the benchmark) meets the same check.
			if _, rerr := Run(sc.spec("empty", Table3Configs[0])); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("Run error = %v, want %v", rerr, err)
			}
		})
	}
}

// The campaigns must reject an empty workload up front rather than fold a
// column of zeros into a paper table.
func TestCampaignsRejectInvalidScale(t *testing.T) {
	sc := miniScale()
	sc.TPCC.TerminalsPerWarehouse = 0
	if _, err := RunTable3(sc, nil); err == nil {
		t.Error("RunTable3 accepted a terminal-less scale")
	}
	if _, err := RunScaling(sc, []int{1}, nil); err == nil {
		t.Error("RunScaling accepted a terminal-less scale")
	}
	if _, err := RunScaling(miniScale(), []int{1, 0}, nil); err == nil {
		t.Error("RunScaling accepted warehouses=0 in the sweep")
	}
}

// The full W-sweep (shape + across-worker-count determinism) lives in
// internal/core/sweeps: it runs multi-minute campaigns and gets its own
// test binary.

// FormatScaling renders one aligned row per warehouse count.
func TestFormatScalingShape(t *testing.T) {
	rows := []ScalingRow{
		{Warehouses: 1, Terminals: 10, Base: ScalingCell{TpmC: 1234.5, RecoveryTime: 42e9, RedoMBps: 0.4},
			Tuned: ScalingCell{TpmC: 2345.6, RecoveryTime: 99e9, RedoMBps: 0.8}},
		{Warehouses: 8, Terminals: 80, Base: ScalingCell{TpmC: 9876.5, RecoveryTime: 44e9, RedoMBps: 3.1},
			Tuned: ScalingCell{TpmC: 19876.5, RecoveryTime: 180e9, RedoMBps: 6.4}},
	}
	out := FormatScaling(rows)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("table too short:\n%s", out)
	}
	for _, want := range []string{ScalingBaselineConfig.Name, ScalingTunedConfig.Name, "1234", "19876"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	var width int
	for _, l := range lines {
		if strings.TrimSpace(l) == "" || !strings.Contains(l, "|") {
			continue
		}
		if width == 0 {
			width = len(l)
		} else if len(l) != width {
			t.Errorf("ragged table line (%d vs %d): %q", len(l), width, l)
		}
	}
}
