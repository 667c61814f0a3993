package core

import (
	"fmt"
	"slices"
	"time"

	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/monitor"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
	"dbench/internal/trace"
)

// Scale groups the knobs that trade experiment fidelity for wall-clock
// time. FullScale reproduces the paper's setup (20-minute runs, faults at
// 150/300/600 s); QuickScale shrinks everything proportionally for tests
// and benchmarks.
type Scale struct {
	TPCC        tpcc.Config
	CacheBlocks int
	Duration    time.Duration
	// InjectTimes are the three fault-injection instants (paper §4:
	// during ramp-up, at full throughput, after substantial history).
	InjectTimes [3]time.Duration
	// Tail ends fault runs this long after recovery completes.
	Tail time.Duration
	Seed int64
	// Parallel is the campaign worker count: 0 = one worker per
	// available CPU, 1 = sequential, N = exactly N workers. Each run
	// owns its whole simulated platform, so results are identical for
	// every worker count (see pool.go).
	Parallel int
	// RecoveryWorkers is the parallel-recovery fan-out sweep (dbench
	// -recovery-workers). The scaling experiment measures recovery at
	// every listed count (the serial baseline is always included); the
	// other campaigns run recovery at the largest listed count. Empty
	// means serial recovery everywhere — the paper's configuration.
	RecoveryWorkers []int
	// Tracer, when set, is attached to the campaign's instrumented run
	// (runs have independent virtual timebases, so exactly one is traced:
	// the first, unless the runner nominates a more telling one — see
	// campaign.go). Nil disables tracing.
	Tracer *trace.Tracer
	// SampleInterval, when positive, enables the MMON workload
	// repository on the same instrumented run.
	SampleInterval time.Duration
	// OnRepository receives the instrumented run's repository after it
	// completes, if that run sampled (dbench's -stats/-awr export hook).
	OnRepository func(*monitor.Repository)
}

// FullScale is the paper-faithful setup: 20-minute experiments, operator
// faults injected 150, 300 and 600 seconds after the workload starts.
func FullScale() Scale {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1 // lands the redo rate on the paper's ~0.4 MB/s
	return Scale{
		TPCC:        cfg,
		CacheBlocks: 4096,
		Duration:    20 * time.Minute,
		InjectTimes: [3]time.Duration{150 * time.Second, 300 * time.Second, 600 * time.Second},
		Tail:        60 * time.Second,
		Seed:        1,
	}
}

// StdScale is the default campaign scale: the paper's injection instants
// (150/300/600 s) on 12-minute runs — the shapes of every table and figure
// are preserved while a full campaign stays tractable on one core.
func StdScale() Scale {
	sc := FullScale()
	sc.Duration = 12 * time.Minute
	return sc
}

// QuickScale shrinks the workload and run length for fast regeneration
// (used by the benchmark suite); shapes are preserved, absolute numbers
// shift.
func QuickScale() Scale {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 150
	cfg.Items = 2500
	return Scale{
		TPCC:        cfg,
		CacheBlocks: 2048,
		Duration:    8 * time.Minute,
		InjectTimes: [3]time.Duration{60 * time.Second, 120 * time.Second, 240 * time.Second},
		Tail:        45 * time.Second,
		Seed:        1,
	}
}

// Validate rejects, before any job of a campaign runs, the empty workload
// every Run would reject (validateWorkload).
func (sc Scale) Validate() error { return validateWorkload(sc.TPCC) }

// spec builds a base Spec for this scale.
func (sc Scale) spec(name string, cfg RecoveryConfig) Spec {
	return Spec{
		Name:            name,
		Seed:            sc.Seed,
		Recovery:        cfg,
		TPCC:            sc.TPCC,
		CacheBlocks:     sc.CacheBlocks,
		Cost:            engine.DefaultCostModel(),
		Duration:        sc.Duration,
		Detection:       2 * time.Second,
		RecoveryWorkers: sc.maxRecoveryWorkers(),
	}
}

// maxRecoveryWorkers returns the largest configured recovery fan-out
// (1 when none is configured) — the count the non-sweep campaigns use.
func (sc Scale) maxRecoveryWorkers() int {
	return slices.Max(append([]int{1}, sc.RecoveryWorkers...))
}

// Progress receives one line per completed run; may be nil. Campaign
// runners serialize calls under the pool mutex and prefix each line with
// a completed/total counter, so it is safe to write to a shared sink.
type Progress func(line string)

// ---------------------------------------------------------------------
// Table 3 / Figure 4 (performance side): one fault-free run per recovery
// configuration, measuring tpmC and checkpoints per experiment.

// PerfRow is one configuration's performance measurement.
type PerfRow struct {
	Config      RecoveryConfig
	TpmC        float64
	Checkpoints int
	LogStalls   time.Duration
	RedoMBps    float64
}

// perfRow folds one fault-free result into its Table 3 row.
func perfRow(cfg RecoveryConfig, sc Scale, res *Result) PerfRow {
	return PerfRow{
		Config:      cfg,
		TpmC:        res.TpmC,
		Checkpoints: res.Checkpoints,
		LogStalls:   res.LogStalls,
		RedoMBps:    float64(res.RedoWritten) / (1 << 20) / sc.Duration.Seconds(),
	}
}

// RunTable3 measures every Table 3 configuration without faults.
func RunTable3(sc Scale, progress Progress) ([]PerfRow, error) {
	rows := make([]PerfRow, len(Table3Configs))
	c := campaign{sc: sc}
	for i, cfg := range Table3Configs {
		row := &rows[i]
		c.add(sc.spec("T3/"+cfg.Name, cfg), func(res *Result) string {
			r := perfRow(cfg, sc, res)
			return fmt.Sprintf("T3 %-10s tpmC=%5.0f ckpts=%3d stalls=%v", cfg.Name, r.TpmC, r.Checkpoints, r.LogStalls.Round(time.Second))
		}, func(res *Result) { *row = perfRow(cfg, sc, res) })
	}
	return runCampaign(&c, rows, progress)
}

// Fig4Row pairs a configuration's performance with its shutdown-abort
// recovery time.
type Fig4Row struct {
	Config       RecoveryConfig
	TpmC         float64
	RecoveryTime time.Duration
}

// RunFigure4 reproduces Figure 4: performance and recovery time per
// configuration under the Shutdown Abort faultload. perf may carry the
// Table 3 rows to avoid re-running the fault-free side; pass nil to run
// them here.
func RunFigure4(sc Scale, perf []PerfRow, progress Progress) ([]Fig4Row, error) {
	if perf == nil {
		var err error
		if perf, err = RunTable3(sc, progress); err != nil {
			return nil, err
		}
		// The fault-free campaign consumed the scale's instrumentation.
		sc.Tracer, sc.SampleInterval, sc.OnRepository = nil, 0, nil
	}
	rows := make([]Fig4Row, len(perf))
	c := campaign{sc: sc}
	for i, pr := range perf {
		row := &rows[i]
		*row = Fig4Row{Config: pr.Config, TpmC: pr.TpmC}
		spec := sc.spec("F4/"+pr.Config.Name, pr.Config)
		sc.inject(&spec, faults.Fault{Kind: faults.ShutdownAbort}, sc.InjectTimes[1]) // at full throughput
		c.add(spec, func(res *Result) string {
			return fmt.Sprintf("F4 %-10s tpmC=%5.0f recovery=%v", row.Config.Name, row.TpmC, res.RecoveryTime.Round(time.Second))
		}, func(res *Result) { row.RecoveryTime = res.RecoveryTime })
	}
	return runCampaign(&c, rows, progress)
}

// ---------------------------------------------------------------------
// Figure 5: performance with and without archive logs.

// Fig5Row compares one configuration's tpmC with the archiver off and on.
type Fig5Row struct {
	Config        RecoveryConfig
	TpmCNoArchive float64
	TpmCArchive   float64
}

// OverheadPct is the archive mechanism's throughput cost.
func (r Fig5Row) OverheadPct() float64 {
	if r.TpmCNoArchive == 0 {
		return 0
	}
	return 100 * (1 - r.TpmCArchive/r.TpmCNoArchive)
}

// RunFigure5 reproduces Figure 5 over the archive-relevant configurations:
// two runs per configuration, archiver off and on.
func RunFigure5(sc Scale, progress Progress) ([]Fig5Row, error) {
	configs := ArchiveConfigs()
	rows := make([]Fig5Row, len(configs))
	c := campaign{sc: sc}
	for i, cfg := range configs {
		row := &rows[i]
		row.Config = cfg
		for _, archive := range []bool{false, true} {
			spec := sc.spec(fmt.Sprintf("F5/%s/arch=%v", cfg.Name, archive), cfg)
			spec.Archive = archive
			cell := &row.TpmCNoArchive
			if archive {
				cell = &row.TpmCArchive
			}
			c.add(spec, func(res *Result) string {
				return fmt.Sprintf("F5 %-10s arch=%-5v tpmC=%5.0f", cfg.Name, archive, res.TpmC)
			}, func(res *Result) { *cell = res.TpmC })
		}
	}
	return runCampaign(&c, rows, progress)
}

// ---------------------------------------------------------------------
// Tables 4 and 5: recovery time per fault type, configuration and
// injection instant, with archive logs active.

// RecRow is one (fault, configuration) row: recovery times at the three
// injection instants plus the dependability measures.
type RecRow struct {
	Fault  faults.Kind
	Config RecoveryConfig
	// Times[i] is the recovery time with the fault injected at
	// Scale.InjectTimes[i].
	Times [3]time.Duration
	// LostCommits[i] is committed transactions lost (incomplete
	// recovery only).
	LostCommits [3]int
	// Violations[i] counts integrity violations detected afterwards.
	Violations [3]int
	// Avail[i] is the global served fraction (0..1) over the fault
	// window [inject, recovered): how much of the offered load the
	// database still served while the fault was being repaired. ~0 for
	// full outages, near 1 for localized faults at W>1.
	Avail [3]float64
}

// runRecoveryGrid executes fault × config × inject-time with archives on:
// one row per (fault, config), one job per injection instant.
func runRecoveryGrid(sc Scale, kinds []faults.Kind, configs []RecoveryConfig, label string, progress Progress) ([]RecRow, error) {
	targets := map[faults.Kind]string{
		faults.DeleteDatafile:       "TPCC_01.dbf",
		faults.SetDatafileOffline:   "TPCC_01.dbf",
		faults.DeleteTablespace:     tpcc.Tablespace,
		faults.SetTablespaceOffline: tpcc.Tablespace,
		faults.DeleteUsersObject:    tpcc.TableStock,
	}
	var rows []RecRow
	c := campaign{sc: sc}
	for _, kind := range kinds {
		for _, cfg := range configs {
			r := len(rows)
			rows = append(rows, RecRow{Fault: kind, Config: cfg})
			for t, at := range sc.InjectTimes {
				spec := sc.spec(fmt.Sprintf("%s/%v/%s/t%d", label, kind, cfg.Name, t), cfg)
				spec.Archive = true
				sc.inject(&spec, faults.Fault{Kind: kind, Target: targets[kind]}, at)
				c.add(spec, func(res *Result) string {
					return fmt.Sprintf("%s %-22v %-10s t%d recovery=%v", label, kind, cfg.Name,
						t, res.RecoveryTime.Round(time.Second))
				}, func(res *Result) {
					row := &rows[r]
					row.Times[t] = res.RecoveryTime
					if res.Outcome != nil && res.Outcome.Report != nil {
						row.LostCommits[t] = res.Outcome.Report.LostCommits
					}
					row.Violations[t] = len(res.IntegrityViolations)
					if res.Availability != nil {
						row.Avail[t] = res.Availability.GlobalFraction()
					}
				})
			}
		}
	}
	return runCampaign(&c, rows, progress)
}

// RunTable4 reproduces Table 4: the faults with incomplete recovery.
func RunTable4(sc Scale, progress Progress) ([]RecRow, error) {
	return runRecoveryGrid(sc, []faults.Kind{faults.DeleteUsersObject, faults.DeleteTablespace}, ArchiveConfigs(), "T4", progress)
}

// RunTable5 reproduces Table 5: the faults with complete recovery.
func RunTable5(sc Scale, progress Progress) ([]RecRow, error) {
	return runRecoveryGrid(sc, []faults.Kind{
		faults.ShutdownAbort, faults.DeleteDatafile,
		faults.SetDatafileOffline, faults.SetTablespaceOffline,
	}, ArchiveConfigs(), "T5", progress)
}

// ---------------------------------------------------------------------
// Figure 6: performance and recovery time with archive logs and the
// stand-by database.

// Fig6Row compares the stand-by configuration against archive-only.
type Fig6Row struct {
	Config RecoveryConfig
	// TpmCArchive/TpmCStandby are fault-free throughputs.
	TpmCArchive float64
	TpmCStandby float64
	// Failover is the stand-by activation time after a primary crash
	// at the late injection instant.
	Failover time.Duration
	// MediaRecovery is the archive-only delete-datafile recovery at the
	// same instant, for the paper's comparison curve.
	MediaRecovery time.Duration
}

// RunFigure6 reproduces Figure 6 over the archive configurations: per
// configuration two fault-free runs (archive only, archive + stand-by)
// and two late-instant fault runs (stand-by failover, archive-only media
// recovery).
func RunFigure6(sc Scale, progress Progress) ([]Fig6Row, error) {
	configs := ArchiveConfigs()
	rows := make([]Fig6Row, len(configs))
	c := campaign{sc: sc}
	for i, cfg := range configs {
		row := &rows[i]
		row.Config = cfg
		add := func(kind string, sb bool, fault *faults.Fault, fold func(res *Result)) {
			spec := sc.spec("F6/"+kind+"/"+cfg.Name, cfg)
			spec.Archive = true
			if sb {
				spec.Standbys, spec.ReplMode = 1, standby.ModeArchive
			}
			if fault != nil {
				sc.inject(&spec, *fault, sc.InjectTimes[2])
			}
			c.add(spec, func(res *Result) string {
				measure, unit := res.TpmC, "tpmC"
				if fault != nil {
					measure, unit = res.RecoveryTime.Seconds(), "rec-s"
				}
				return fmt.Sprintf("F6 %-10s %-8s %s=%5.1f", cfg.Name, kind, unit, measure)
			}, fold)
		}
		add("arch", false, nil, func(res *Result) { row.TpmCArchive = res.TpmC })
		add("sb", true, nil, func(res *Result) { row.TpmCStandby = res.TpmC })
		add("failover", true, &faults.Fault{Kind: faults.ShutdownAbort},
			func(res *Result) { row.Failover = res.RecoveryTime })
		add("media", false, &faults.Fault{Kind: faults.DeleteDatafile, Target: "TPCC_01.dbf"},
			func(res *Result) { row.MediaRecovery = res.RecoveryTime })
	}
	return runCampaign(&c, rows, progress)
}

// ---------------------------------------------------------------------
// Figure 7: lost transactions on the stand-by database versus redo log
// file size and group count.

// Fig7Row is one (size, groups) cell.
type Fig7Row struct {
	SizeMB int
	Groups int
	// Lost is acknowledged commits missing on the activated stand-by.
	Lost int
}

// Figure7Grid is the size/group grid measured (log sizes in MB × group
// counts), mirroring the paper's Figure 7 axes.
var Figure7Grid = struct {
	SizesMB []int
	Groups  []int
}{
	SizesMB: []int{1, 10, 40, 100},
	Groups:  []int{2, 3, 6},
}

// RunFigure7 reproduces Figure 7: primary crash at the late instant with
// a stand-by, varying the online log geometry.
func RunFigure7(sc Scale, progress Progress) ([]Fig7Row, error) {
	var rows []Fig7Row
	c := campaign{sc: sc}
	for _, sizeMB := range Figure7Grid.SizesMB {
		for _, groups := range Figure7Grid.Groups {
			cfg := RecoveryConfig{
				Name:              fmt.Sprintf("F%dG%dT1", sizeMB, groups),
				FileSize:          int64(sizeMB) << 20,
				Groups:            groups,
				CheckpointTimeout: time.Minute,
			}
			r := len(rows)
			rows = append(rows, Fig7Row{SizeMB: sizeMB, Groups: groups})
			spec := sc.spec("F7/"+cfg.Name, cfg)
			spec.Archive = true
			spec.Standbys, spec.ReplMode = 1, standby.ModeArchive
			sc.inject(&spec, faults.Fault{Kind: faults.ShutdownAbort}, sc.InjectTimes[2])
			c.add(spec, func(res *Result) string {
				return fmt.Sprintf("F7 size=%3dMB groups=%d lost=%d", sizeMB, groups, res.LostTransactions)
			}, func(res *Result) { rows[r].Lost = res.LostTransactions })
		}
	}
	return runCampaign(&c, rows, progress)
}
