package core

import (
	"fmt"
	"time"

	"dbench/internal/control"
	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/metrics"
	"dbench/internal/monitor"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
	"dbench/internal/trace"
)

// Spec fully describes one benchmark experiment: the TPC-C workload, the
// recovery configuration under test, and (optionally) one operator fault
// with its injection instant.
type Spec struct {
	// Name is the caller's label for the spec (the benchmark names its
	// workloads). It is not part of Key, and no run reads it.
	Name string
	// Seed drives every random choice, making runs reproducible.
	Seed int64

	// Recovery is the configuration under test (a Table 3 row).
	Recovery RecoveryConfig
	// Archive enables the archive log mechanism (§5.2).
	Archive bool

	// Standbys adds a replication cluster: that many first-tier stand-bys
	// (plus ReplCascade cascaded ones) fed per ReplMode. A primary crash
	// (ShutdownAbort) then fails over to the most advanced stand-by
	// instead of recovering in place.
	Standbys int
	// ReplMode is the redo transport and commit-acknowledgement protocol:
	// continuous streaming, sync or async, or standby.ModeArchive — whole
	// archived logs shipped after each log switch, the paper's §5.3
	// stand-by (needs Archive).
	ReplMode standby.Mode
	// ReplLink is the primary→stand-by network profile (zero: LinkLAN).
	ReplLink sim.LinkSpec
	// ReplCascade adds that many second-tier stand-bys fed from the
	// first stand-by's reception.
	ReplCascade int
	// ReplicaReads routes this fraction of the read-only TPC-C traffic
	// (Order-Status, Stock-Level) to the first stand-by's snapshot.
	ReplicaReads float64

	// TPCC scales the workload.
	TPCC tpcc.Config
	// CacheBlocks sizes the buffer cache.
	CacheBlocks int
	// Cost is the simulated platform cost model.
	Cost engine.CostModel
	// CPUs sizes the platform's CPU pool serving per-row-op costs
	// (0 = 1, the paper's single-server setup). The scaling experiment
	// grows it with the warehouse count.
	CPUs int
	// DataDisks is the number of data disks (0 = 2, the paper's layout).
	// The tablespaces spread over them; more warehouses want more
	// spindles.
	DataDisks int
	// RecoveryWorkers is the parallel-recovery fan-out threaded into
	// engine.Config.RecoveryParallelism (<=1 = serial, the default).
	// Recovery results are identical for every value; only the recovery
	// time changes.
	RecoveryWorkers int

	// Duration is the measured workload run length (paper: 20 minutes).
	Duration time.Duration
	// Fault, when non-nil, is injected InjectAt after the workload
	// starts; recovery begins after Detection.
	Fault     *faults.Fault
	InjectAt  time.Duration
	Detection time.Duration
	// ForcePhysical disables the flashback remedy for single-table
	// logical faults, forcing the physical point-in-time baseline (the
	// control arm of the logical-vs-physical comparison).
	ForcePhysical bool
	// TailAfterRecovery, when positive, ends the run that long after
	// the recovery completes instead of running the full Duration —
	// recovery-time experiments do not need the remaining workload
	// (performance is measured on fault-free runs).
	TailAfterRecovery time.Duration

	// Tracer, when set, receives this run's instrumentation events
	// (spans and instants on the run's own virtual timebase). A tracer
	// observes one run: runs share nothing else, and interleaving several
	// virtual timelines into one sink would be meaningless (`dbench run
	// -trace` attaches one to the run its key names). Nil disables tracing
	// at zero cost.
	Tracer *trace.Tracer

	// SampleInterval enables the MMON workload repository on this run's
	// instance (engine.Config.SampleInterval); zero disables monitoring
	// at zero cost. The repository lands in Result.Repository.
	SampleInterval time.Duration

	// Control, when non-nil, attaches the self-tuning controller
	// (internal/control) to the run's instance for the measured phase.
	// Requires SampleInterval > 0 — the repository is the controller's
	// sensor. The controller lands in Result.Control.
	Control *control.Config
	// Phases shapes the offered load over time (tpcc.DriverConfig.Phases);
	// empty = steady full load.
	Phases []tpcc.LoadPhase
	// Script schedules administrative statements at fixed offsets from
	// workload start — the DBA acting mid-run. Statements run in order
	// on one admin session; any error fails the run.
	Script []ScriptedStmt
}

// ScriptedStmt is one scheduled admin statement: Stmt executes At after
// the measured workload starts.
type ScriptedStmt struct {
	At   time.Duration
	Stmt string
}

// DefaultSpec returns a paper-style 20-minute experiment on F100G3T10
// without a fault and with serial recovery: what a run key leaves out.
func DefaultSpec() Spec {
	return Spec{
		Seed:            1,
		Recovery:        mustConfig("F100G3T10"),
		TPCC:            tpcc.DefaultConfig(),
		CacheBlocks:     4096,
		Cost:            engine.DefaultCostModel(),
		RecoveryWorkers: 1,
		Duration:        20 * time.Minute,
		Detection:       2 * time.Second,
	}
}

func mustConfig(name string) RecoveryConfig {
	c, ok := ConfigByName(name)
	if !ok {
		panic("core: unknown config " + name)
	}
	return c
}

// Result carries the measures of one experiment: the performance measure
// of TPC-C plus the paper's new dependability measures.
type Result struct {
	Spec Spec

	// TpmC is the New-Order throughput over the full run.
	TpmC float64
	// Series is New-Order throughput in 30-second buckets.
	Series []int
	// Committed counts all committed transactions; Failures the failed
	// attempts observed by terminals.
	Committed int
	Failures  int

	// Outcome describes the fault and its recovery (nil without fault).
	Outcome *faults.Outcome
	// RecoveryTime is the recovery procedure duration (the paper's
	// Tables 4/5 measure; excludes detection).
	RecoveryTime time.Duration
	// UserOutage is the end-user view: from injection to the first
	// successful transaction after it.
	UserOutage time.Duration

	// Availability is the per-warehouse served-fraction over the fault
	// window [InjectedAt, RecoveredAt) (nil without fault): how much of
	// the offered load the database kept serving while recovering. A
	// localized fault keeps the unaffected warehouses near 1.0; a full
	// outage collapses every column to ~0.
	Availability *metrics.Availability

	// LostTransactions counts acknowledged commits whose effects are
	// missing after the experiment (the paper's lost-transaction
	// measure). In a replicated run this is the failover's RPO in
	// transactions.
	LostTransactions int
	// FailedOver reports that the run's remedy was a stand-by promotion;
	// RTOEstimate is the MMON live estimate captured at the promotion
	// decision (compare against RecoveryTime, the measured RTO), and
	// ReplLagRecords how far the promoted stand-by trailed the primary's
	// flushed redo at the crash (the async RPO bound, in records).
	FailedOver     bool
	RTOEstimate    time.Duration
	ReplLagRecords int64
	// Replication is the final V$REPLICATION view (nil without a
	// cluster); ReplicaServed/ReplicaFallback count stand-by-
	// routed read-only transactions.
	Replication     []monitor.ReplicationRow
	ReplicaServed   int64
	ReplicaFallback int64
	// IntegrityViolations lists failed TPC-C consistency conditions.
	IntegrityViolations []tpcc.Violation

	// Checkpoints is the number of completed checkpoints during the
	// run (Table 3's rightmost column).
	Checkpoints int
	// RedoWritten is the volume of redo generated.
	RedoWritten int64
	// LogStalls is time transactions spent waiting for log-group reuse.
	LogStalls time.Duration

	// Repository is the run's MMON workload repository (nil unless
	// Spec.SampleInterval > 0): the sampled metric time-series, rates
	// and live recovery estimates, ready for export.
	Repository *monitor.Repository

	// Control is the run's self-tuning controller (nil unless
	// Spec.Control was set): its decision history and final rung carry
	// the pareto experiment's tracking report.
	Control *control.Controller

	// Diagnostics for calibration and reports.
	ByType       map[tpcc.TxnType]int
	LockWaits    int64
	LockTimeouts int64
	CacheHitRate float64
	DiskBusy     map[string]time.Duration
}

// String renders a one-line summary that leads with the run's key.
func (r *Result) String() string {
	s := fmt.Sprintf("%s: tpmC=%.0f ckpts=%d", r.Spec.Key(), r.TpmC, r.Checkpoints)
	if r.Outcome != nil {
		s += fmt.Sprintf(" fault=%v recovery=%v outage=%v lost=%d viol=%d",
			r.Outcome.Fault, r.RecoveryTime.Round(time.Second), r.UserOutage.Round(time.Second),
			r.LostTransactions, len(r.IntegrityViolations))
	}
	return s
}

// validate rejects a spec that could not run as described, before anything
// is built: NewRig and Experiment.Run check it, so every entry (campaigns,
// dbench run, chaos, the benchmark) meets the same rules. A workload with no
// warehouses or no terminals would silently run empty — every measure a zero
// rather than an error — and one with no customers or items panics drawing
// from an empty range; an archive-shipping stand-by needs the primary's
// archiver; the controller's only sensor is the workload repository. A field
// the run would ignore — a replication setting without stand-bys, an
// injection instant without a fault — is refused too: it would give the
// plain run a second key. A zero Duration stays valid — a load-only run.
func (s Spec) validate() error {
	switch {
	case s.TPCC.Warehouses < 1:
		return fmt.Errorf("core: workload needs Warehouses >= 1 (got %d)", s.TPCC.Warehouses)
	case s.TPCC.TerminalsPerWarehouse < 1:
		return fmt.Errorf("core: workload needs TerminalsPerWarehouse >= 1 (got %d)", s.TPCC.TerminalsPerWarehouse)
	case s.TPCC.CustomersPerDistrict < 1 || s.TPCC.Items < 1:
		return fmt.Errorf("core: workload needs CustomersPerDistrict and Items >= 1 (got %d, %d)", s.TPCC.CustomersPerDistrict, s.TPCC.Items)
	case s.Standbys > 0 && s.ReplMode == standby.ModeArchive && !s.Archive:
		return fmt.Errorf("core: spec %q: ReplMode %v needs Archive", s.Key(), s.ReplMode)
	case s.Control != nil && s.SampleInterval <= 0:
		return fmt.Errorf("core: spec %q: Control needs the workload repository (SampleInterval > 0)", s.Key())
	case s.Standbys < 1 && (s.ReplMode != standby.ModeAsync || s.ReplLink != sim.LinkSpec{} || s.ReplCascade != 0 || s.ReplicaReads != 0):
		return fmt.Errorf("core: spec %q: ReplMode, ReplLink, ReplCascade and ReplicaReads need Standbys > 0", s.Key())
	case s.Fault == nil && s.InjectAt != 0 && s.Duration > 0:
		// A load-only run reads no field of the measured phase; the
		// benchmark's load-only spec keeps its InjectAt (ROADMAP 7(b)).
		return fmt.Errorf("core: spec %q: InjectAt needs a Fault", s.Key())
	}
	return nil
}

// Run executes one experiment end to end: build the simulated platform,
// create and load the database, take the reference backup, run TPC-C for
// the configured duration with the optional fault, then collect measures.
//
// Run is safe for concurrent use: every call builds its own Rig (sim
// kernel, RNG, disks and engine), and the one package-level state it
// touches, the last generated database, is locked and never changed, so
// campaign runners may execute many Runs in parallel (see pool.go) with
// results identical to sequential execution.
func Run(spec Spec) (*Result, error) {
	rig, err := NewRig(spec)
	if err != nil {
		return nil, err
	}
	in, ex, inj, app, drv := rig.In, rig.ex, rig.Inj, rig.App, rig.Drv

	res := &Result{Spec: spec}
	err = rig.Exec("benchmark", func(p *sim.Proc) error {
		// Phase 1: create, load, checkpoint, reference backup, and the
		// replication cluster — N stand-bys instantiated from the same
		// content and fed per ReplMode, the commit gate, and failover as
		// the ShutdownAbort remedy.
		cluster, err := rig.Setup(p)
		if err != nil {
			return err
		}
		if cluster != nil {
			cluster.RegisterProbes(in.Monitor())
			if spec.ReplicaReads > 0 {
				app.Replica = ReplicaOf(cluster.Standbys()[0])
				app.ReplicaShare = spec.ReplicaReads
			}
		}

		// Phase 2: measured run.
		if spec.Control != nil {
			ctl, err := control.New(in, *spec.Control)
			if err != nil {
				return err
			}
			ctl.Start()
			res.Control = ctl
		}
		start := p.Now()
		ckptBase := in.Stats().Checkpoints
		drv.Start()
		if len(spec.Script) > 0 {
			rig.K.Go("DBA-script", func(sp *sim.Proc) {
				for _, s := range spec.Script {
					if at := start.Add(s.At); at > sp.Now() {
						sp.Sleep(at.Sub(sp.Now()))
					}
					if _, err := ex.Execute(sp, s.Stmt); err != nil {
						rig.Fail(fmt.Errorf("core: script %q: %w", s.Stmt, err))
						return
					}
				}
			})
		}

		recoveryPoint := redo.SCN(-1) // -1: complete recovery, nothing lost
		if spec.Fault != nil {
			p.Sleep(spec.InjectAt)
			o, err := inj.Inject(p, *spec.Fault)
			if err != nil {
				return err
			}
			res.Outcome = o
			if recoveryPoint, err = rig.Remedy(p, o); err != nil {
				return err
			}
			if o.FailedOver {
				// A stand-by was promoted instead of the primary recovered:
				// the new incarnation starts at the promoted watermark and
				// acknowledged commits beyond it are lost (the RPO).
				res.RTOEstimate = cluster.LastRTOEstimate()
				res.ReplLagRecords = cluster.PromotedLag()
				res.FailedOver = true
			}
			res.RecoveryTime = o.RecoveryDuration()
		}

		// No recovery can start from here on: drop the recovery side, so
		// the reference backup — a full copy of the database — can be
		// collected now instead of being carried to the end of the run.
		rig.bk, rig.Rm, rig.ex, rig.Inj = nil, nil, nil, nil
		rest := spec.Duration - p.Now().Sub(start)
		if spec.Fault != nil && spec.TailAfterRecovery > 0 && rest > spec.TailAfterRecovery {
			rest = spec.TailAfterRecovery
		}
		if rest > 0 {
			p.Sleep(rest)
		}
		drv.Quiesce(p)
		end := p.Now()
		if full := start.Add(spec.Duration); end > full {
			end = full
		}

		// Phase 3: measures.
		res.TpmC = drv.TpmC(start, end)
		res.Series = drv.ThroughputSeries(start, end, 30*time.Second)
		res.Committed = drv.CountCommitted(0)
		res.Failures = len(drv.Failures())
		res.Checkpoints = int(in.Stats().Checkpoints - ckptBase)
		res.RedoWritten = in.Log().Stats().FlushedBytes
		res.LogStalls = in.Log().Stats().StallTime
		res.Repository = in.Monitor()
		res.ByType = make(map[tpcc.TxnType]int)
		for _, c := range drv.Commits() {
			res.ByType[c.Type]++
		}
		ts := in.Txns().Stats()
		res.LockWaits, res.LockTimeouts = ts.LockWaits, ts.LockTimeouts
		cs := in.Cache().Stats()
		if cs.Hits+cs.Misses > 0 {
			res.CacheHitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		res.DiskBusy = make(map[string]time.Duration)
		for _, d := range in.FS().DiskNames() {
			res.DiskBusy[d] = in.FS().Disk(d).BusyTotal()
		}
		if res.Outcome != nil {
			if back, ok := drv.FirstCommitAfter(res.Outcome.InjectedAt); ok {
				res.UserOutage = back.Sub(res.Outcome.InjectedAt)
			} else {
				res.UserOutage = end.Sub(res.Outcome.InjectedAt)
			}
			availEnd := res.Outcome.RecoveredAt
			if availEnd <= res.Outcome.InjectedAt {
				availEnd = end
			}
			res.Availability = drv.Availability(res.Outcome.InjectedAt, availEnd)
		}
		// Lost transactions from the end-user view: with an incomplete
		// recovery point, count acknowledged commits beyond it (row
		// probing is defeated by order-id reuse after the rollback);
		// otherwise probe every acknowledged order row.
		if recoveryPoint >= 0 {
			// Only commits acknowledged before the recovery started
			// can be lost; later SCNs belong to the new incarnation.
			for _, c := range drv.Commits() {
				if c.SCN > recoveryPoint && c.At <= res.Outcome.DetectedAt {
					res.LostTransactions++
				}
			}
			// The recovery report counts lost commits from the redo
			// stream itself (including the instants between detection
			// and shutdown); take the authoritative larger figure.
			if rep := res.Outcome.Report; rep != nil && rep.LostCommits > res.LostTransactions {
				res.LostTransactions = rep.LostCommits
			}
		} else {
			lost, _, err := app.Missing(p, drv.Commits(), -1)
			if err != nil {
				return fmt.Errorf("core: durability check: %w", err)
			}
			res.LostTransactions = lost
		}
		if cluster != nil {
			res.Replication = cluster.VReplication()
			res.ReplicaServed = app.ReplicaServed
			res.ReplicaFallback = app.ReplicaFallback
		}
		viols, err := app.CheckConsistency(p)
		if err != nil {
			return fmt.Errorf("core: consistency check: %w", err)
		}
		res.IntegrityViolations = viols
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: run %q: %w", spec.Key(), err)
	}
	return res, nil
}
