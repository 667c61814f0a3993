package core

import (
	"fmt"
	"slices"
	"time"

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

// ScalingCell is one configuration's measures at one warehouse count.
type ScalingCell struct {
	TpmC         float64
	RecoveryTime time.Duration
	RedoMBps     float64

	// MediaRecovery is the delete-datafile (one warehouse's tablespace)
	// recovery time at this scale. At W>1 the tablespace is repaired
	// online while the other warehouses keep serving.
	MediaRecovery time.Duration
	// MediaAvail is the global served fraction during the media
	// recovery window; MediaAvailOther the served fraction over the
	// warehouses the fault did not touch (1.0 when W=1 offers none).
	MediaAvail      float64
	MediaAvailOther float64
}

// ScalingWorkerCell is crash-recovery time at one parallel worker count,
// for both configurations.
type ScalingWorkerCell struct {
	Workers int
	Base    time.Duration
	Tuned   time.Duration
}

// ScalingRow is one warehouse count: both configurations side by side.
type ScalingRow struct {
	Warehouses int
	Terminals  int
	Base       ScalingCell
	Tuned      ScalingCell
	// WorkerRec holds recovery time at each configured parallel worker
	// count beyond the serial baseline already in Base/Tuned (empty
	// unless the scale sweeps RecoveryWorkers).
	WorkerRec []ScalingWorkerCell
}

// scalingWorkerCounts returns the recovery-worker sweep: the configured
// counts sorted ascending and deduplicated, with the serial baseline (1)
// always included first so parallel runs are always measured against it.
func scalingWorkerCounts(sc Scale) []int {
	counts := slices.DeleteFunc(append([]int{1}, sc.RecoveryWorkers...), func(n int) bool { return n < 1 })
	slices.Sort(counts)
	return slices.Compact(counts)
}

// scalingSpec builds one spec of the sweep; kind labels the job ("perf",
// "rec", "rec@4w", "media"). The simulated platform grows with the
// warehouse count — CPU slots and data disks scale with W and the buffer
// cache keeps its per-warehouse share — so the sweep measures the scaled
// system, not one starved box.
func scalingSpec(sc Scale, cfg RecoveryConfig, w int, kind string, recWorkers int) Spec {
	spec := sc.spec(fmt.Sprintf("SC/W%d/%s/%s", w, cfg.Name, kind), cfg)
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

// RunScaling measures the scaling sweep: for every warehouse count and
// configuration (baseline before tuned), a fault-free run, a
// shutdown-abort run per recovery-worker count and a media-fault run.
// Results are identical for every Parallel setting.
func RunScaling(sc Scale, warehouses []int, progress Progress) ([]ScalingRow, error) {
	if len(warehouses) == 0 {
		warehouses = DefaultScalingWarehouses
	}
	for _, w := range warehouses {
		if w < 1 {
			return nil, fmt.Errorf("core: scaling needs warehouses >= 1 (got %d)", w)
		}
	}
	ws := scalingWorkerCounts(sc)
	rows := make([]ScalingRow, len(warehouses))
	c := campaign{sc: sc}
	for i, w := range warehouses {
		row := &rows[i]
		*row = ScalingRow{Warehouses: w, Terminals: w * sc.TPCC.TerminalsPerWarehouse}
		for _, n := range ws[1:] {
			row.WorkerRec = append(row.WorkerRec, ScalingWorkerCell{Workers: n})
		}
		// side enumerates one configuration's jobs; workerRec picks its
		// column of a parallel-recovery cell.
		side := func(name string, cfg RecoveryConfig, cell *ScalingCell, workerRec func(*ScalingWorkerCell) *time.Duration) {
			c.add(scalingSpec(sc, cfg, w, "perf", 1), func(res *Result) string {
				return fmt.Sprintf("SC W=%-2d %-10s tpmC=%5.0f", w, name+"/perf", res.TpmC)
			}, func(res *Result) {
				cell.TpmC = res.TpmC
				cell.RedoMBps = float64(res.RedoWritten) / (1 << 20) / sc.Duration.Seconds()
			})
			for j, n := range ws {
				kind, rec := "rec", &cell.RecoveryTime
				if n > 1 {
					kind, rec = fmt.Sprintf("rec@%dw", n), workerRec(&row.WorkerRec[j-1])
				}
				spec := scalingSpec(sc, cfg, w, kind, n)
				sc.inject(&spec, faults.Fault{Kind: faults.ShutdownAbort}, sc.InjectTimes[1]) // at full throughput
				c.add(spec, func(res *Result) string {
					return fmt.Sprintf("SC W=%-2d %-10s recovery=%v", w, name+"/"+kind, res.RecoveryTime.Round(time.Second))
				}, func(res *Result) { *rec = res.RecoveryTime })
			}
			// Instrument the first recovery run at the largest worker count
			// (not the first run): the recovery timeline — worker spans
			// included when the sweep is parallel — is what a
			// -trace/-timeline user wants.
			c.nominate()
			// The media-fault job deletes warehouse 1's datafile at full
			// throughput, with archives on so media recovery can roll the
			// restored file forward. At W>1 only that warehouse's
			// tablespace goes offline and the run measures how much
			// traffic the rest of the database keeps serving.
			media := scalingSpec(sc, cfg, w, "media", sc.maxRecoveryWorkers())
			media.Archive = true
			sc.inject(&media, faults.Fault{Kind: faults.DeleteDatafile, Target: scalingMediaTarget(w)}, sc.InjectTimes[1])
			c.add(media, func(res *Result) string {
				avail := 0.0
				if res.Availability != nil {
					avail = res.Availability.GlobalFraction()
				}
				return fmt.Sprintf("SC W=%-2d %-10s recovery=%v avail=%.0f%%", w, name+"/media",
					res.RecoveryTime.Round(time.Second), 100*avail)
			}, func(res *Result) {
				cell.MediaRecovery = res.RecoveryTime
				if a := res.Availability; a != nil {
					cell.MediaAvail = a.GlobalFraction()
					var other metrics.AvailabilityCell
					for wn := 2; wn <= a.Warehouses(); wn++ {
						cw := a.Warehouse(wn)
						other.Offered += cw.Offered
						other.Served += cw.Served
					}
					cell.MediaAvailOther = other.Fraction()
				}
			})
		}
		side("base", ScalingBaselineConfig, &row.Base, func(wc *ScalingWorkerCell) *time.Duration { return &wc.Base })
		side("tuned", ScalingTunedConfig, &row.Tuned, func(wc *ScalingWorkerCell) *time.Duration { return &wc.Tuned })
	}
	return runCampaign(&c, rows, progress)
}
