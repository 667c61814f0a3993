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
	if _, err := Table3(sc).Run(sc, nil, nil); err == nil {
		t.Error("Table3 accepted a terminal-less scale")
	}
	if _, err := Scaling(sc, []int{1}).Run(sc, nil, nil); err == nil {
		t.Error("Scaling accepted a terminal-less scale")
	}
	ran := 0
	if _, err := Scaling(miniScale(), []int{1, 0}).Run(miniScale(), nil, func(string) { ran++ }); err == nil || ran > 0 {
		t.Errorf("Scaling with warehouses=0 in the sweep: err=%v after %d runs, want an error before any run", err, ran)
	}
}

// The full W-sweep (shape + across-worker-count determinism) lives in
// internal/core/sweeps: it runs multi-minute campaigns and gets its own
// test binary.

// The scaling table renders one aligned line per warehouse count, the
// parallel-recovery columns included.
func TestFormatScalingShape(t *testing.T) {
	x, rows := scalingReport()
	out := x.Text(rows)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("table too short:\n%s", out)
	}
	for _, want := range []string{ScalingBaselineConfig.Name, ScalingTunedConfig.Name, "1234", "19876", "B.r@4w"} {
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
