package core

import (
	"fmt"
	"slices"
	"time"

	"dbench/internal/faults"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
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

// spec builds a base Spec for this scale: DefaultSpec at the scale's
// workload, duration and recovery fan-out.
func (sc Scale) spec(cfg RecoveryConfig) Spec {
	s := DefaultSpec()
	s.Seed, s.Recovery, s.TPCC, s.CacheBlocks = sc.Seed, cfg, sc.TPCC, sc.CacheBlocks
	s.Duration, s.RecoveryWorkers = sc.Duration, sc.maxRecoveryWorkers()
	return s
}

// maxRecoveryWorkers returns the largest configured recovery fan-out
// (1 when none is configured) — the count the non-sweep campaigns use.
func (sc Scale) maxRecoveryWorkers() int {
	return slices.Max(append([]int{1}, sc.RecoveryWorkers...))
}

// inject makes spec a fault run: f is injected at `at` and the run ends
// Scale.Tail after the recovery completes.
func (sc Scale) inject(spec *Spec, f faults.Fault, at time.Duration) {
	spec.Fault = &f
	spec.InjectAt = at
	spec.TailAfterRecovery = sc.Tail
}

// abort is the instance crash: Figure 4's faultload, the stand-by and
// replication failovers, and the scaling and pareto crash runs.
var abort = faults.Fault{Kind: faults.ShutdownAbort}

// Table3 is Table 3 (and Figure 4's performance side): one fault-free run
// per recovery configuration, measuring tpmC and checkpoints per
// experiment.
func Table3(sc Scale) Experiment {
	var grid [][]Spec
	for _, cfg := range Table3Configs {
		grid = append(grid, []Spec{sc.spec(cfg)})
	}
	return table("Table 3. Recovery configurations (measured).", grid,
		configCol,
		Column{"FileSize", 10, "%8dMB", func(r Row) any { return r[0].Spec.Recovery.FileSize >> 20 }},
		Column{"Groups", 7, "%7d", func(r Row) any { return r[0].Spec.Recovery.Groups }},
		Column{"CkptTime", 9, "%8ds", func(r Row) any { return int(r[0].Spec.Recovery.CheckpointTimeout.Seconds()) }},
		bar,
		Column{"#CKPT/exp", 10, "%10d", func(r Row) any { return r[0].Checkpoints }},
		Column{"tpmC", 6, "%6.0f", tpmC(0)},
		Column{"redo MB/s", 10, "%10.2f", redoMBps(0)})
}

// Figure4 is Figure 4: per configuration, Table 3's fault-free run (the
// same job, so an invocation that ran t3 does not run it again) and the
// Shutdown Abort recovery at full throughput.
func Figure4(sc Scale) Experiment {
	var grid [][]Spec
	for _, cfg := range Table3Configs {
		crash := sc.spec(cfg)
		sc.inject(&crash, abort, sc.InjectTimes[1])
		grid = append(grid, []Spec{sc.spec(cfg), crash})
	}
	return table("Figure 4. Performance and recovery time (Shutdown Abort faultload).", grid,
		configCol,
		Column{"tpmC", 8, "%8.0f", tpmC(0)},
		Column{"recovery (s)", 14, "%14s", recSecs(1)})
}

// Figure5 is Figure 5 over the archive-relevant configurations: per
// configuration one run with the archiver off and one with it on.
func Figure5(sc Scale) Experiment {
	var grid [][]Spec
	for _, cfg := range ArchiveConfigs() {
		var row []Spec
		for _, archive := range []bool{false, true} {
			spec := sc.spec(cfg)
			spec.Archive = archive
			row = append(row, spec)
		}
		grid = append(grid, row)
	}
	return table("Figure 5. Performance with and without archive logs.", grid,
		configCol,
		Column{"tpmC (off)", 12, "%12.0f", tpmC(0)},
		Column{"tpmC (on)", 12, "%12.0f", tpmC(1)},
		Column{"overhead", 10, "%9.1f%%", func(r Row) any { // the archiver's throughput cost
			if r[0].TpmC == 0 {
				return 0.0
			}
			return 100 * (1 - r[1].TpmC/r[0].TpmC)
		}})
}

// Table4 is Table 4: the faults with incomplete recovery.
func Table4(sc Scale) Experiment {
	return recoveryGrid(sc, "Table 4. Recovery time (s) for faults with incomplete recovery.",
		[]faults.Kind{faults.DeleteUsersObject, faults.DeleteTablespace}, ArchiveConfigs())
}

// Table5 is Table 5: the faults with complete recovery.
func Table5(sc Scale) Experiment {
	return recoveryGrid(sc, "Table 5. Recovery time (s) for faults with complete recovery.",
		[]faults.Kind{faults.ShutdownAbort, faults.DeleteDatafile, faults.SetDatafileOffline, faults.SetTablespaceOffline},
		ArchiveConfigs())
}

// recoveryGrid declares a Table 4/5 style grid with archive logs active:
// one line per (fault, configuration), one job per injection instant.
func recoveryGrid(sc Scale, title string, kinds []faults.Kind, configs []RecoveryConfig) Experiment {
	targets := map[faults.Kind]string{
		faults.DeleteDatafile:       "TPCC_01.dbf",
		faults.SetDatafileOffline:   "TPCC_01.dbf",
		faults.DeleteTablespace:     tpcc.Tablespace,
		faults.SetTablespaceOffline: tpcc.Tablespace,
		faults.DeleteUsersObject:    tpcc.TableStock,
	}
	var grid [][]Spec
	for _, kind := range kinds {
		for _, cfg := range configs {
			row := make([]Spec, len(sc.InjectTimes))
			for t, at := range sc.InjectTimes {
				row[t] = sc.spec(cfg)
				row[t].Archive = true
				sc.inject(&row[t], faults.Fault{Kind: kind, Target: targets[kind]}, at)
			}
			grid = append(grid, row)
		}
	}
	at := func(t int) Column {
		return Column{fmt.Sprintf("@%ds", int(sc.InjectTimes[t].Seconds())), 9, "%9s", recSecs(t)}
	}
	total := func(measure func(res *Result) int) func(Row) any {
		return func(r Row) any { return measure(r[0]) + measure(r[1]) + measure(r[2]) }
	}
	return table(title, grid,
		Column{"Fault", -22, "%-22s", func(r Row) any { return label(r[0].Spec.Fault.Kind.String()) }},
		configCol, bar, at(0), at(1), at(2), bar,
		Column{"lost", 6, "%6d", total(func(res *Result) int { // committed transactions lost (incomplete recovery only)
			if res.Outcome == nil || res.Outcome.Report == nil {
				return 0
			}
			return res.Outcome.Report.LostCommits
		})},
		Column{"viol", 5, "%5d", total(func(res *Result) int { return len(res.IntegrityViolations) })},
		Column{"avail", 6, "%6s", func(r Row) any { return pct((avail(r[0]) + avail(r[1]) + avail(r[2])) / 3) }})
}

// Figure6 is Figure 6 over the archive configurations: per configuration
// two fault-free runs (archive only, archive + stand-by) and two
// late-instant fault runs (stand-by failover, archive-only media
// recovery).
func Figure6(sc Scale) Experiment {
	var grid [][]Spec
	for _, cfg := range ArchiveConfigs() {
		spec := func(sb bool, fault *faults.Fault) Spec {
			spec := sc.spec(cfg)
			spec.Archive = true
			if sb {
				spec.Standbys, spec.ReplMode = 1, standby.ModeArchive
			}
			if fault != nil {
				sc.inject(&spec, *fault, sc.InjectTimes[2])
			}
			return spec
		}
		grid = append(grid, []Spec{spec(false, nil), spec(true, nil), spec(true, &abort),
			spec(false, &faults.Fault{Kind: faults.DeleteDatafile, Target: "TPCC_01.dbf"})})
	}
	return table("Figure 6. Performance and recovery time with archive logs and stand-by.", grid,
		configCol,
		Column{"tpmC (arch)", 12, "%12.0f", tpmC(0)},
		Column{"tpmC (sb)", 12, "%12.0f", tpmC(1)},
		Column{"failover (s)", 14, "%14s", recSecs(2)},
		Column{"media rec. (s)", 18, "%18s", recSecs(3)})
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

// Figure7 is Figure 7: acknowledged commits missing on the activated
// stand-by after a primary crash at the late instant, one line per online
// log size, one column per group count.
func Figure7(sc Scale) Experiment {
	var grid [][]Spec
	for _, sizeMB := range Figure7Grid.SizesMB {
		var row []Spec
		for _, groups := range Figure7Grid.Groups {
			spec := sc.spec(mkCfg(sizeMB, groups, time.Minute))
			spec.Archive = true
			spec.Standbys, spec.ReplMode = 1, standby.ModeArchive
			sc.inject(&spec, abort, sc.InjectTimes[2])
			row = append(row, spec)
		}
		grid = append(grid, row)
	}
	cols := []Column{{`size\groups`, -10, "%-10s", func(r Row) any { return fmt.Sprintf("%d MB", r[0].Spec.Recovery.FileSize>>20) }}}
	for j, g := range Figure7Grid.Groups {
		cols = append(cols, Column{fmt.Sprintf("G%d", g), 8, "%8d", func(r Row) any { return r[j].LostTransactions }})
	}
	return table("Figure 7. Lost transactions in the stand-by database.", grid, cols...)
}
