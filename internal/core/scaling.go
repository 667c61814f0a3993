package core

import (
	"fmt"
	"slices"

	"dbench/internal/faults"
	"dbench/internal/metrics"
)

// ---------------------------------------------------------------------
// Scaling experiment (-exp scale): throughput and crash-recovery time as
// the database and traffic grow with the warehouse count. The paper
// measures one warehouse; this experiment extends its Table 3 / Figure 4
// axes along W, comparing the paper's baseline configuration against the
// perf-tuned one so the performance/recovery trade-off is visible at
// every scale. With -recovery-workers the sweep additionally measures
// crash recovery at each parallel fan-out, next to the serial baseline.

// ScalingBaselineConfig and ScalingTunedConfig are the two recovery
// configurations compared at every warehouse count: the paper's default
// installation and its largest-log, laziest-checkpoint tuning (the best
// performer / worst recoverer of Table 3).
var (
	ScalingBaselineConfig = mustConfig("F100G3T10")
	ScalingTunedConfig    = mustConfig("F400G3T20")
)

// DefaultScalingWarehouses is the -exp scale default sweep.
var DefaultScalingWarehouses = []int{1, 2, 4, 8}

// scalingWorkerCounts returns the recovery-worker sweep: the configured
// counts sorted ascending and deduplicated, with the serial baseline (1)
// always included first so parallel runs are always measured against it.
func scalingWorkerCounts(sc Scale) []int {
	counts := slices.DeleteFunc(append([]int{1}, sc.RecoveryWorkers...), func(n int) bool { return n < 1 })
	slices.Sort(counts)
	return slices.Compact(counts)
}

// scalingSpec builds one spec of the sweep, with recWorkers recovery
// workers. The simulated platform grows with the warehouse count — CPU
// slots and data disks scale with W and the buffer cache keeps its
// per-warehouse share — so the sweep measures the scaled system, not one
// starved box.
func scalingSpec(sc Scale, cfg RecoveryConfig, w, recWorkers int) Spec {
	spec := sc.spec(cfg)
	spec.TPCC.Warehouses = w
	spec.CacheBlocks = sc.CacheBlocks * w
	spec.CPUs = w
	spec.DataDisks = min(w, 8)
	spec.RecoveryWorkers = recWorkers
	return spec
}

// scalingMediaTarget is the datafile deleted by the sweep's media-fault
// job: warehouse 1's tablespace file (the whole database's single file
// pair at W=1, where the layout has no per-warehouse tablespaces).
func scalingMediaTarget(w int) string {
	if w == 1 {
		return "TPCC_01.dbf"
	}
	return "TPCC_W01_01.dbf"
}

// Scaling measures the sweep: for every warehouse count (default
// DefaultScalingWarehouses) and configuration, baseline before tuned, a
// fault-free run, a shutdown-abort run per recovery-worker count and a
// media-fault run. The table shows both configurations side by side,
// then, when the sweep measured parallel recovery, recovery time at each
// extra worker count for each configuration.
func Scaling(sc Scale, warehouses []int) Experiment {
	if len(warehouses) == 0 {
		warehouses = DefaultScalingWarehouses
	}
	ws := scalingWorkerCounts(sc)
	var grid [][]Spec
	for _, w := range warehouses {
		var row []Spec
		for _, cfg := range []RecoveryConfig{ScalingBaselineConfig, ScalingTunedConfig} {
			row = append(row, scalingSpec(sc, cfg, w, 1))
			for _, n := range ws {
				spec := scalingSpec(sc, cfg, w, n)
				sc.inject(&spec, abort, sc.InjectTimes[1]) // at full throughput
				row = append(row, spec)
			}
			// The media-fault job deletes warehouse 1's datafile at full
			// throughput, with archives on so media recovery can roll the
			// restored file forward. At W>1 only that warehouse's
			// tablespace goes offline and the run measures how much
			// traffic the rest of the database keeps serving.
			media := scalingSpec(sc, cfg, w, sc.maxRecoveryWorkers())
			media.Archive = true
			sc.inject(&media, faults.Fault{Kind: faults.DeleteDatafile, Target: scalingMediaTarget(w)}, sc.InjectTimes[1])
			row = append(row, media)
		}
		grid = append(grid, row)
	}
	k := len(ws) + 2 // jobs per configuration: perf, a crash per worker count, media
	side := func(o int) []Column {
		return []Column{
			{"tpmC", 8, "%8.0f", tpmC(o)},
			{"rec (s)", 8, "%8s", recSecs(o + 1)},
			{"redo MB/s", 9, "%9.2f", redoMBps(o)},
			{"media(s)", 8, "%8s", recSecs(o + k - 1)},
			{"avail", 5, "%5s", served(o + k - 1)},
			{"unaff", 5, "%5s", func(r Row) any { // served over the warehouses the fault did not touch
				a := r[o+k-1].Availability
				if a == nil {
					return pct(0)
				}
				var other metrics.AvailabilityCell
				for wn := 2; wn <= a.Warehouses(); wn++ {
					other.Offered += a.Warehouse(wn).Offered
					other.Served += a.Warehouse(wn).Served
				}
				return pct(other.Fraction())
			}},
		}
	}
	cols := []Column{
		{"W", 4, "%4d", func(r Row) any { return r[0].Spec.TPCC.Warehouses }},
		{"terms", 6, "%6d", func(r Row) any { return r[0].Spec.TPCC.Warehouses * r[0].Spec.TPCC.TerminalsPerWarehouse }},
		bar,
	}
	cols = append(append(append(cols, side(0)...), bar), side(k)...)
	for j, n := range ws[1:] {
		cols = append(cols, bar,
			Column{fmt.Sprintf("B.r@%dw", n), 9, "%9s", recSecs(2 + j)},
			Column{fmt.Sprintf("T.r@%dw", n), 9, "%9s", recSecs(k + 2 + j)})
	}
	return table(fmt.Sprintf("Scaling. Throughput and crash-recovery time vs warehouses.\n"+
		"(%s = baseline, %s = perf-tuned; Shutdown Abort at full throughput)\n"+
		"(media = delete W1's datafile; avail = served fraction during media recovery,\n"+
		" global / unaffected warehouses)", ScalingBaselineConfig.Name, ScalingTunedConfig.Name), grid, cols...)
}
