package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbench/internal/control"
	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/metrics"
	"dbench/internal/monitor"
	"dbench/internal/recovery"
	"dbench/internal/sim"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Golden-file tests for the dbench table output. The tables are the
// user-visible contract of the tool (and what gets compared against the
// paper); a stray format-verb or column-width change should fail loudly,
// not slip into a diff between campaign runs. Each table is rendered by
// its experiment declaration from synthetic results, so the goldens pin
// the declared columns and the one text renderer. Regenerate
// intentionally with: go test ./internal/core -run 'TestFormat.*Golden' -update
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

// cfgOrDie resolves a Table 3 configuration by name.
func cfgOrDie(t *testing.T, name string) RecoveryConfig {
	t.Helper()
	c, ok := ConfigByName(name)
	if !ok {
		t.Fatalf("config %q not in Table3Configs", name)
	}
	return c
}

// servedFrac is an availability window over one warehouse that served
// the given percentage of 100 offered transactions.
func servedFrac(percent int) *metrics.Availability {
	a := metrics.NewAvailability(0, 1, 1)
	for i := 0; i < 100; i++ {
		a.Record(0, 1, i < percent)
	}
	return a
}

// run is a synthetic result of a run of cfg lasting 100 s.
func run(cfg RecoveryConfig, res Result) *Result {
	res.Spec.Recovery, res.Spec.Duration = cfg, 100*time.Second
	return &res
}

// faultRun is a synthetic Table 4/5 cell: recovery time, lost commits,
// integrity violations and the served percentage (-1: no window).
func faultRun(cfg RecoveryConfig, kind faults.Kind, rec time.Duration, lost, viol, served int) *Result {
	res := Result{RecoveryTime: rec, IntegrityViolations: make([]tpcc.Violation, viol),
		Outcome: &faults.Outcome{Report: &recovery.Report{LostCommits: lost}}}
	res.Spec.Fault = &faults.Fault{Kind: kind}
	if served >= 0 {
		res.Availability = servedFrac(served)
	}
	return run(cfg, res)
}

func TestFormatTable3Golden(t *testing.T) {
	perf := func(name string, tpmC float64, ckpts, redoMB int) Row {
		return Row{run(cfgOrDie(t, name), Result{TpmC: tpmC, Checkpoints: ckpts, RedoWritten: int64(redoMB) << 20})}
	}
	rows := []Row{perf("F400G3T20", 1234.5, 2, 42), perf("F40G3T1", 987.6, 11, 37), perf("F1G2T1", 432.1, 63, 21)}
	checkGolden(t, "table3", Table3(StdScale()).Text([][]Row{rows}))
}

// recRow is one Table 4/5 line: a fault at the three injection instants.
func recRow(t *testing.T, kind faults.Kind, cfg string, rec [3]time.Duration, lost, viol, served [3]int) Row {
	var r Row
	for i := range rec {
		r = append(r, faultRun(cfgOrDie(t, cfg), kind, rec[i], lost[i], viol[i], served[i]))
	}
	return r
}

func TestFormatTable4Golden(t *testing.T) {
	s := time.Second
	rows := []Row{
		recRow(t, faults.DeleteDatafile, "F400G3T20", [3]time.Duration{95 * s, 102 * s, 110 * s}, [3]int{120, 250, 430}, [3]int{}, [3]int{72, 75, 78}),
		recRow(t, faults.DeleteDatafile, "F1G3T1", [3]time.Duration{41 * s, 44 * s, 0}, [3]int{15, 30, 0}, [3]int{0, 1, 0}, [3]int{-1, -1, -1}),
		recRow(t, faults.DeleteTablespace, "F100G3T5", [3]time.Duration{77 * s, 80 * s, 88 * s}, [3]int{60, 90, 140}, [3]int{}, [3]int{-1, -1, -1}),
	}
	checkGolden(t, "table4", Table4(StdScale()).Text([][]Row{rows}))
}

func TestFormatTable5Golden(t *testing.T) {
	s := time.Second
	rows := []Row{
		recRow(t, faults.ShutdownAbort, "F400G3T20", [3]time.Duration{35 * s, 48 * s, 61 * s}, [3]int{}, [3]int{}, [3]int{1, 2, 1}),
		recRow(t, faults.ShutdownAbort, "F1G2T1", [3]time.Duration{4 * s, 5 * s, 5 * s}, [3]int{}, [3]int{}, [3]int{-1, -1, -1}),
		recRow(t, faults.SetDatafileOffline, "F40G3T10", [3]time.Duration{52 * s, 0, 58 * s}, [3]int{}, [3]int{}, [3]int{-1, -1, -1}),
	}
	checkGolden(t, "table5", Table5(StdScale()).Text([][]Row{rows}))
}

func TestFormatFigure4Golden(t *testing.T) {
	row := func(name string, tpmC float64, rec time.Duration) Row {
		cfg := cfgOrDie(t, name)
		return Row{run(cfg, Result{TpmC: tpmC}), run(cfg, Result{RecoveryTime: rec})}
	}
	rows := []Row{row("F400G3T20", 1234.5, 61*time.Second), row("F40G3T1", 987.6, 12400*time.Millisecond), row("F1G2T1", 432.1, 0)}
	checkGolden(t, "figure4", Figure4(StdScale()).Text([][]Row{rows}))
}

func TestFormatFigure5Golden(t *testing.T) {
	row := func(name string, off, on float64) Row {
		cfg := cfgOrDie(t, name)
		return Row{run(cfg, Result{TpmC: off}), run(cfg, Result{TpmC: on})}
	}
	rows := []Row{row("F40G3T10", 1000, 950), row("F10G3T1", 800.4, 812.9), row("F1G2T1", 0, 300)}
	checkGolden(t, "figure5", Figure5(StdScale()).Text([][]Row{rows}))
}

func TestFormatFigure6Golden(t *testing.T) {
	row := func(name string, arch, sb float64, failover, media time.Duration) Row {
		cfg := cfgOrDie(t, name)
		return Row{run(cfg, Result{TpmC: arch}), run(cfg, Result{TpmC: sb}),
			run(cfg, Result{RecoveryTime: failover}), run(cfg, Result{RecoveryTime: media})}
	}
	rows := []Row{row("F40G3T10", 950.2, 940.7, 8400*time.Millisecond, 95*time.Second), row("F1G3T1", 700, 0, 0, 0)}
	checkGolden(t, "figure6", Figure6(StdScale()).Text([][]Row{rows}))
}

func TestFormatFigure7Golden(t *testing.T) {
	var rows []Row
	for _, size := range Figure7Grid.SizesMB {
		var row Row
		for _, g := range Figure7Grid.Groups {
			row = append(row, run(RecoveryConfig{FileSize: int64(size) << 20, Groups: g}, Result{LostTransactions: size * 7 / g}))
		}
		rows = append(rows, row)
	}
	checkGolden(t, "figure7", Figure7(StdScale()).Text([][]Row{rows}))
}

// scalingReport is a two-line scaling sweep with two parallel-recovery
// columns (2 and 4 workers) beside the serial baseline.
func scalingReport() (Experiment, [][]Row) {
	sc := StdScale()
	sc.RecoveryWorkers = []int{4, 2}
	s := time.Second
	// window: warehouse 1 served first of 10, the others each served other of 10.
	window := func(w, first, other int) *metrics.Availability {
		a := metrics.NewAvailability(0, 1, w)
		for wn := 1; wn <= w; wn++ {
			n := other
			if wn == 1 {
				n = first
			}
			for i := 0; i < 10; i++ {
				a.Record(0, wn, i < n)
			}
		}
		return a
	}
	// side is one configuration's jobs: perf, a crash at 1, 2 and 4
	// workers, media.
	side := func(w int, tpmC float64, redoMB int, rec [3]time.Duration, media time.Duration, a *metrics.Availability) []*Result {
		spec := Spec{Duration: 100 * time.Second, TPCC: tpcc.Config{Warehouses: w, TerminalsPerWarehouse: 10}}
		jobs := []*Result{{Spec: spec, TpmC: tpmC, RedoWritten: int64(redoMB) << 20}}
		for _, d := range rec {
			jobs = append(jobs, &Result{Spec: spec, RecoveryTime: d})
		}
		return append(jobs, &Result{Spec: spec, RecoveryTime: media, Availability: a})
	}
	rows := []Row{
		append(side(1, 1234.5, 40, [3]time.Duration{42 * s, 30 * s, 25 * s}, 30*s, window(1, 0, 0)),
			side(1, 2345.6, 80, [3]time.Duration{99 * s, 70 * s, 0}, 0, window(1, 0, 0))...),
		append(side(8, 9876.5, 310, [3]time.Duration{44 * s, 31 * s, 22 * s}, 12*s, window(8, 0, 10)),
			side(8, 19876.5, 640, [3]time.Duration{180 * s, 101 * s, 64 * s}, 15*s, window(8, 4, 8))...),
	}
	return Scaling(sc, []int{1, 8}), [][]Row{rows}
}

func TestFormatScalingGolden(t *testing.T) {
	x, rows := scalingReport()
	checkGolden(t, "scaling", x.Text(rows))
}

// logicalReport compares the remedies for three fault classes: the first
// with no flashback arm, the third with no physical arm.
func logicalReport() (Experiment, [][]Row) {
	arm := func(kind faults.Kind, rec time.Duration, served, lost int) *Result {
		res := &Result{RecoveryTime: rec, LostTransactions: lost}
		res.Spec.Fault = &faults.Fault{Kind: kind}
		if served >= 0 {
			res.Availability = servedFrac(served)
		}
		return res
	}
	rows := []Row{
		{arm(faults.DeleteUsersObject, 0, -1, 0), arm(faults.DeleteUsersObject, 38*time.Second, 40, 2)},
		{arm(faults.TruncateTable, 2*time.Second, 97, 0), arm(faults.TruncateTable, 40*time.Second, 42, 3)},
		{arm(faults.MisroutedBatchUpdate, 3500*time.Millisecond, 100, 0), arm(faults.MisroutedBatchUpdate, 0, -1, 0)},
	}
	return LogicalVsPhysical(StdScale()), [][]Row{rows}
}

func TestFormatLogicalGolden(t *testing.T) {
	x, rows := logicalReport()
	checkGolden(t, "logical", x.Text(rows))
}

// testController runs a controller with the given budget for ticks
// one-second evaluations on an idle, open instance, and returns it: a
// real controller history for a synthetic pareto report.
func testController(t *testing.T, budget time.Duration, ticks int) *control.Controller {
	t.Helper()
	ecfg := engine.DefaultConfig()
	ecfg.SampleInterval = time.Second
	rig, err := NewRig(1, ecfg, tinyScale().TPCC, tpcc.DriverConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ctl *control.Controller
	err = rig.Exec("ctl", func(p *sim.Proc) error {
		if err := rig.In.Open(p); err != nil {
			return err
		}
		if ctl, err = control.New(rig.In, control.Config{Budget: budget}); err != nil {
			return err
		}
		ctl.Start()
		p.Sleep(time.Duration(ticks)*time.Second + time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// paretoReport is a synthetic sweep under budget: a frontier of (config,
// tpmC, recovery) points and the steady/crash/shift controller runs, each
// (tpmC, recovery, controller ticks).
func paretoReport(t *testing.T, budget time.Duration, points []struct {
	cfg  string
	tpmC float64
	rec  time.Duration
}, ctls [3]struct {
	tpmC  float64
	rec   time.Duration
	ticks int
}) (Experiment, [][]Row) {
	var frontier Row
	for _, p := range points {
		cfg := cfgOrDie(t, p.cfg)
		frontier = append(frontier, run(cfg, Result{TpmC: p.tpmC}), run(cfg, Result{RecoveryTime: p.rec}))
	}
	var rows [2][]Row
	for i := range points {
		rows[0] = append(rows[0], append(Row{frontier[2*i], frontier[2*i+1]}, frontier...))
	}
	for i, kind := range []string{"steady", "crash", "shift"} {
		c := ctls[i]
		res := &Result{TpmC: c.tpmC, RecoveryTime: c.rec, Control: testController(t, budget, c.ticks)}
		res.Spec.Name = "PF/ctl/" + kind
		rows[1] = append(rows[1], Row{res})
	}
	return Pareto(StdScale(), budget, nil), rows[:]
}

// TestFormatParetoGolden renders a sweep with a within-budget best, then
// one where no static configuration meets the budget and the controller
// reports it infeasible.
func TestFormatParetoGolden(t *testing.T) {
	type point = struct {
		cfg  string
		tpmC float64
		rec  time.Duration
	}
	type ctl = struct {
		tpmC  float64
		rec   time.Duration
		ticks int
	}
	s := time.Second
	met, metRows := paretoReport(t, 30*s, []point{{"F1G3T1", 800, 13200 * time.Millisecond}, {"F100G3T10", 1200, 45 * s}, {"F40G3T5", 1000, 25 * s}},
		[3]ctl{{1100, 0, 3}, {1050, 20 * s, 8}, {900, 35 * s, 12}})
	missed, missedRows := paretoReport(t, 5*s, []point{{"F1G3T1", 800, 13200 * time.Millisecond}, {"F10G3T1", 950, 0}},
		[3]ctl{{1000, 0, 4}, {990, 14 * s, 4}, {700, 0, 4}})
	if !missedRows[1][1][0].Control.Infeasible() {
		t.Fatal("a 5 s budget below the instance-restart cost was not reported infeasible")
	}
	checkGolden(t, "pareto", met.Text(metRows)+"\n"+missed.Text(missedRows))
}

// TestFormatReplicaGolden renders a matrix whose first cell carries a
// V$REPLICATION view and whose second did not fail over, then one whose
// first cell has an empty view.
func TestFormatReplicaGolden(t *testing.T) {
	cell := func(n, casc int, mode standby.Mode, link sim.LinkSpec, res Result) Row {
		res.Spec.Standbys, res.Spec.ReplCascade, res.Spec.ReplMode, res.Spec.ReplLink = n, casc, mode, link
		return Row{&res}
	}
	withView := []Row{
		cell(1, 0, standby.ModeSync, LinkLAN, Result{TpmC: 1500.4,
			RecoveryTime: 3200 * time.Millisecond, RTOEstimate: 3 * time.Second, UserOutage: 4100 * time.Millisecond,
			ReplicaServed: 120, ReplicaFallback: 3, FailedOver: true,
			Replication: []monitor.ReplicationRow{
				{Target: "standby1", Mode: "sync", ReceivedSCN: 5000, AppliedSCN: 5000, Frames: 210, Bytes: 123456, Status: "PRIMARY"},
			}}),
		cell(3, 1, standby.ModeAsync, LinkWAN, Result{TpmC: 1400,
			LostTransactions: 12, ReplLagRecords: 345, RecoveryTime: 5500 * time.Millisecond, RTOEstimate: 5 * time.Second,
			UserOutage: 6700 * time.Millisecond, IntegrityViolations: make([]tpcc.Violation, 1)}),
	}
	empty := []Row{
		cell(1, 0, standby.ModeAsync, LinkWAN, Result{TpmC: 1300, LostTransactions: 4, ReplLagRecords: 9,
			RecoveryTime: 2 * time.Second, RTOEstimate: 2100 * time.Millisecond, UserOutage: 3 * time.Second, FailedOver: true}),
	}
	x := Replica(StdScale(), DefaultReplicaGrid())
	checkGolden(t, "replica", x.Text([][]Row{withView})+"\n"+x.Text([][]Row{empty}))
}
