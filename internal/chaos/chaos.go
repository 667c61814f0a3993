// Package chaos is a deterministic crash-point exploration harness: it
// runs a seeded TPC-C workload on the simulated engine, crashes the
// instance at many randomized-but-seeded virtual-time points — aimed at
// the sensitive windows (mid-checkpoint, mid-log-switch, mid-archive) as
// well as uniformly random instants — drives the standard recovery
// procedure after each crash, and checks a battery of invariants:
//
//	(a) durability — every transaction acknowledged committed before
//	    the crash is present after recovery, judged against a commit
//	    ledger the terminals keep outside the engine;
//	(b) consistency — tpcc.App.CheckConsistency reports zero violations
//	    on the quiesced post-recovery database;
//	(c) idempotence — re-applying the recovered redo range changes
//	    nothing (zero records applied, datafile state hash unchanged);
//	(d) determinism — the whole crash+recovery run is bit-identical
//	    when repeated with the same seed.
//
// The paper's recoverability measures are only as trustworthy as the
// recovery they measure; this harness is the systematic version of the
// hand-picked fault points in internal/core/experiments.go. Because
// everything runs on the discrete-event kernel, a full exploration of
// dozens of crash points costs seconds of wall time and reproduces
// exactly from `-seed`.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"dbench/internal/control"
	"dbench/internal/core"
	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/monitor"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
	"dbench/internal/trace"
)

// Window classifies where in the engine's activity a crash point is
// aimed. Points round-robin over the windows so every exploration
// exercises all of them.
type Window uint8

// Crash windows.
const (
	// WindowRandom crashes at a uniformly random instant.
	WindowRandom Window = iota + 1
	// WindowCheckpoint requests a checkpoint and crashes while the
	// checkpoint procedure is draining the cache.
	WindowCheckpoint
	// WindowLogSwitch forces a log switch and crashes just after it
	// begins.
	WindowLogSwitch
	// WindowArchive forces a switch and crashes while the ARCH process
	// has the resulting group queued or in flight.
	WindowArchive
	// WindowPartition (replicated explorations only) partitions every
	// replication link, lets sync commits pile up against the dark
	// quorum, and crashes the primary while the partition holds.
	WindowPartition
	// WindowLagSpike (replicated explorations only) adds latency to
	// every replication link and crashes amid the induced apply lag.
	WindowLagSpike
)

// windowCount is the round-robin modulus; replicated explorations
// (Standbys > 0) extend the rotation with the two link-fault windows.
const (
	windowCount     = 4
	windowCountRepl = 6
)

func (w Window) String() string {
	switch w {
	case WindowRandom:
		return "random"
	case WindowCheckpoint:
		return "checkpoint"
	case WindowLogSwitch:
		return "log-switch"
	case WindowArchive:
		return "archive"
	case WindowPartition:
		return "partition"
	case WindowLagSpike:
		return "lag-spike"
	default:
		return fmt.Sprintf("window(%d)", uint8(w))
	}
}

// Config scales one exploration campaign.
type Config struct {
	// Spec is the run every crash point makes, on a rig of its own. Its
	// Seed is the campaign seed (each point's is derived from it and the
	// point index) and TailAfterRecovery how long the workload runs after
	// recovery, before the checks; the crash replaces Fault, InjectAt and
	// Duration, and a hash of the point's own trace replaces Tracer. What
	// the spec enables joins the battery: SampleInterval folds the metric
	// stream into the fingerprint and arms the estimator check (f), which
	// is vacuous at zero; Control puts crashes amid ALTER SYSTEM knob
	// changes and folds the controller's decisions in too; Standbys makes
	// promotion the remedy, adds the two link-fault windows, extends
	// served-safety to sync acks against a dark quorum and folds in the
	// stream transport. Each such option, and each RecoveryWorkers count,
	// pins its own fingerprints.
	Spec core.Spec
	// Points is the number of crash points to explore.
	Points int
	// Parallel is the worker count, following core.Workers (0 = one
	// worker per CPU).
	Parallel int
	// CrashMin/CrashMax bound the crash instant, measured from
	// workload start.
	CrashMin, CrashMax time.Duration
}

// DefaultConfig explores 50 points of a deliberately twitchy
// configuration: three 1 MB redo groups put crashes amid the interesting
// machinery. Recovery starts after the injector's default detection time
// (2 s).
func DefaultConfig() Config {
	tc := tpcc.DefaultConfig()
	tc.Warehouses = 1
	tc.CustomersPerDistrict = 60
	tc.Items = 1000
	tc.TerminalsPerWarehouse = 8
	rc, _ := core.ParseConfig("F1G3T15s") // a literal that parses: three 1 MB groups, a 15 s checkpoint timeout
	return Config{
		Spec: core.Spec{
			Name:              "chaos",
			Seed:              1,
			Recovery:          rc,
			Archive:           true,
			TPCC:              tc,
			CacheBlocks:       512,
			Cost:              engine.DefaultCostModel(),
			SampleInterval:    250 * time.Millisecond,
			TailAfterRecovery: 5 * time.Second,
		},
		Points:   50,
		CrashMin: 3 * time.Second,
		CrashMax: 25 * time.Second,
	}
}

// pointSeed derives the i-th point's seed from the campaign seed with a
// splitmix-style mix, so neighbouring points get unrelated streams.
func pointSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Explore runs the campaign: every crash point is executed twice (the
// second run checks determinism) on the shared worker pool, and the
// per-point results are returned in point order. The first point error
// (a crash the recovery machinery could not handle at all) aborts the
// exploration; invariant violations do not — they are reported.
//
// Progress receives one line per point, in point order, emitted after
// the pool completes — not in completion order — so the progress stream
// is byte-identical for every -parallel setting.
func Explore(cfg Config, progress core.Progress) (*Report, error) {
	if cfg.Points <= 0 {
		return nil, fmt.Errorf("chaos: Points must be >= 1 (got %d)", cfg.Points)
	}
	if cfg.CrashMax <= cfg.CrashMin {
		return nil, fmt.Errorf("chaos: CrashMax (%v) must exceed CrashMin (%v)", cfg.CrashMax, cfg.CrashMin)
	}
	points, err := core.RunIndexed(cfg.Points, cfg.Parallel, func(i int) (*PointResult, error) {
		r1, err := runPoint(cfg, i)
		if err != nil {
			return nil, fmt.Errorf("chaos: point %d: %w", i, err)
		}
		r2, err := runPoint(cfg, i)
		if err != nil {
			return nil, fmt.Errorf("chaos: point %d (determinism rerun): %w", i, err)
		}
		r1.Deterministic = r1.Fingerprint == r2.Fingerprint
		return r1, nil
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		for i, r := range points {
			progress(fmt.Sprintf("[%d/%d] window=%s verdict=%s", i+1, cfg.Points, r.Window, r.Verdict()))
		}
	}
	return &Report{Config: cfg, Points: points}, nil
}

// runPoint executes one crash point end to end on a fresh simulated
// platform and returns every measure except the determinism verdict
// (Explore fills that in from the rerun).
func runPoint(cfg Config, index int) (*PointResult, error) {
	spec := cfg.Spec
	spec.Seed = pointSeed(cfg.Spec.Seed, index)
	mod := windowCount
	if spec.Standbys > 0 {
		mod = windowCountRepl
	}
	window := Window(index%mod + 1)
	rng := rand.New(rand.NewSource(spec.Seed))
	crashDelay := cfg.CrashMin + time.Duration(rng.Int63n(int64(cfg.CrashMax-cfg.CrashMin)))
	jitter := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))

	// Every point runs fully traced into a hash sink: the event stream —
	// every span, instant, timestamp and attribute the instrumentation
	// emits — is condensed to one value and compared across the
	// determinism rerun. A scheduling divergence that happens to end in
	// the same final state still trips this.
	hs := trace.NewHashSink()
	spec.Tracer = trace.New(hs)
	rig, err := core.NewRig(spec)
	if err != nil {
		return nil, err
	}
	k, in, rm, app, drv := rig.K, rig.In, rig.Rm, rig.App, rig.Drv
	var ctl *control.Controller
	if spec.Control != nil {
		if ctl, err = control.New(in, *spec.Control); err != nil {
			return nil, err
		}
	}

	res := &PointResult{Index: index, Window: window, Seed: spec.Seed, ReplActive: spec.Standbys > 0}
	var cluster *standby.Cluster
	var reopenAt sim.Time
	// The first instance to (re)open after the crash closes the dark
	// window of the served-safety check.
	noteOpen := func(now sim.Time, s engine.State) {
		if s == engine.StateOpen && reopenAt == 0 {
			reopenAt = now
		}
	}

	err = rig.Exec("chaos", func(p *sim.Proc) error {
		// Phase 1: create, load, checkpoint, reference backup, and (in
		// replicated explorations) the streaming cluster. Only the primary
		// feeds the trace hash and the MMON repository (the rig's
		// stand-bys neither trace nor sample). Every stand-by instance
		// reports its open — after a promotion the primary never reopens,
		// so the dark window closes when the promoted stand-by comes up
		// instead.
		var err error
		if cluster, err = rig.Setup(p); err != nil {
			return err
		}
		if cluster != nil {
			for _, s := range cluster.Standbys() {
				s.Instance().OnStateChange = noteOpen
			}
		}

		// Phase 2: workload, then position the crash inside the
		// requested window. The controller (when enabled) starts with
		// the workload and keeps ticking across the crash, skipping the
		// down window and re-asserting its rung after the reopen.
		if ctl != nil {
			ctl.Start()
		}
		drv.Start()
		p.Sleep(crashDelay)
		var helper *sim.Proc
		var partStart sim.Time
		switcher := func(sp *sim.Proc) { _ = in.ForceLogSwitch(sp) }
		switch window {
		case WindowCheckpoint:
			in.RequestCheckpoint()
			// Wait (in tiny steps, bounded) for the CKPT process to
			// enter the checkpoint procedure, then let it run a little.
			for i := 0; i < 5000 && !in.CheckpointInProgress(); i++ {
				p.Sleep(time.Millisecond)
			}
			p.Sleep(jitter / 4)
		case WindowLogSwitch:
			helper = k.Go("switcher", switcher)
			p.Sleep(jitter / 8)
		case WindowArchive:
			arch := in.Archiver()
			base := arch.Archived()
			helper = k.Go("switcher", switcher)
			for i := 0; i < 5000 && arch.QueueLen() == 0 && arch.Archived() == base; i++ {
				p.Sleep(time.Millisecond)
			}
			p.Sleep(jitter / 2)
		case WindowPartition:
			for _, l := range cluster.Links() {
				l.SetPartitioned(true)
			}
			partStart = p.Now()
			p.Sleep(200*time.Millisecond + jitter)
		case WindowLagSpike:
			for _, l := range cluster.Links() {
				l.SetExtraLatency(200 * time.Millisecond)
			}
			p.Sleep(100*time.Millisecond + jitter)
		}

		preSCN := in.Log().NextSCN() - 1
		in.Crash()
		// Crash() takes a final repository sample at the crash instant,
		// so Last() is exactly the pre-crash V$RECOVERY_ESTIMATE — the
		// prediction invariant (f) holds recovery to.
		var crashEstimate monitor.Estimate
		if last, ok := in.Monitor().Last(); ok {
			crashEstimate = last.Estimate
		}
		if helper != nil {
			// A stalled ForceLogSwitch would otherwise wake up during
			// recovery (when the log restarts) and inject a phantom
			// switch into the recovered instance.
			helper.Kill()
		}
		res.CrashAt = p.Now()
		res.CrashSCN = in.Log().FlushedSCN()
		// Quorum floor for the dark-ack check: everything in flight at
		// the partition start has delivered by now, so any sync commit
		// acked during the partition with an SCN above this was acked
		// by nobody.
		floorAtCrash := redo.SCN(0)
		if cluster != nil {
			floorAtCrash = redo.SCN(int64(1) << 62)
			for _, s := range cluster.Standbys()[:cluster.FirstTier()] {
				if r := s.ReceivedSCN(); r < floorAtCrash {
					floorAtCrash = r
				}
			}
		}
		// The durability ledger: commits the terminals saw acknowledged
		// before the crash, recorded outside the engine.
		ledger := append([]tpcc.CommitRecord(nil), drv.Commits()...)
		res.AckedCommits = len(ledger)
		// Capture the redo recovery is about to replay, for the
		// idempotence check afterwards.
		replay := captureRedo(in)

		// Phase 3: the standard recovery procedure, driven through the
		// fault injector like any operator-fault experiment — stand-by
		// promotion when a cluster is attached, instance recovery
		// otherwise. The reopen instant bounds the dark window for the
		// served-safety check.
		prevState := in.OnStateChange
		in.OnStateChange = func(now sim.Time, s engine.State) {
			if prevState != nil {
				prevState(now, s)
			}
			noteOpen(now, s)
		}
		o := faults.Observed(faults.Fault{Kind: faults.ShutdownAbort}, res.CrashAt, preSCN)
		recoveryPoint, err := rig.Remedy(p, o)
		if err != nil {
			return fmt.Errorf("recovery after crash at %v: %w", res.CrashAt, err)
		}
		res.RecoveryKind = o.Report.Kind
		res.RecoveryTime = o.RecoveryDuration()
		res.RecordsApplied = o.Report.RecordsApplied
		res.BytesReplayed = o.Report.BytesApplied

		// After a promotion the cluster's stand-by is the database: the
		// terminals re-target it (Remedy), every check below runs against
		// it, and the promotion SCN is the durability cut — acknowledged
		// commits beyond it are the failover's RPO, legitimate in async
		// mode only.
		checkIn, reapplier := in, rm
		if o.FailedOver {
			res.FailedOver = true
			checkIn = cluster.ActiveInstance()
			reapplier = recovery.NewManager(checkIn, nil)
			// Trim the idempotence replay to the promoted prefix: redo
			// beyond the promotion SCN never reached the stand-by, so
			// re-applying it would (correctly) change state.
			replay = cutAt(replay, recoveryPoint)
		}

		// Invariant (f): the estimate in force at the remedy decision
		// must bracket the measured repair. For instance recovery that is
		// the crash-instant V$RECOVERY_ESTIMATE redo-replay prediction
		// against the measured replay phase (vacuous when sampling is
		// off); for a failover it is the cluster's live RTO estimate —
		// activation overhead plus the promotion backlog — against the
		// measured promotion duration.
		if o.FailedOver {
			res.EstimatedRedoReplay = cluster.LastRTOEstimate()
			res.MeasuredRedoReplay = res.RecoveryTime
			res.EstimateOK = estimateWithin(res.EstimatedRedoReplay, res.MeasuredRedoReplay)
		} else {
			for _, ph := range o.Report.Phases {
				if ph.Name == recovery.PhaseRedoReplay {
					res.MeasuredRedoReplay += ph.Duration()
				}
			}
			res.EstimatedRedoReplay = crashEstimate.RedoReplay
			if spec.SampleInterval > 0 {
				res.EstimateOK = crashEstimate.Valid &&
					estimateWithin(res.EstimatedRedoReplay, res.MeasuredRedoReplay)
			} else {
				res.EstimateOK = true
			}
		}

		// Invariant (c), checked atomically in virtual time (no sleeps
		// between hash, replay and re-hash, so no other process runs):
		// replaying the recovered redo again must change nothing.
		before := StateHash(checkIn)
		res.ReappliedRecords = reapplier.ReapplyDataRecords(replay)
		res.Idempotent = res.ReappliedRecords == 0 && StateHash(checkIn) == before

		// Phase 4: post-recovery tail, then quiesce and check.
		if spec.TailAfterRecovery > 0 {
			p.Sleep(spec.TailAfterRecovery)
		}
		drv.Quiesce(p)

		// Invariant (a): every ledger entry must be in the database — up
		// to the promotion SCN after a failover. Acknowledged commits
		// beyond the cut are the failover's RPO: the async exposure the
		// replica experiment measures, and a hard violation in sync mode
		// (the commit gate held those acknowledgements for the quorum).
		missing, beyond, err := app.Missing(p, ledger, recoveryPoint)
		if err != nil {
			return fmt.Errorf("durability check: %w", err)
		}
		res.MissingCommits = missing
		res.RPOLost = beyond
		res.Durable = missing == 0 &&
			(!res.FailedOver || spec.ReplMode != standby.ModeSync || beyond == 0)

		// Invariant (e): served traffic is safe. The driver must never
		// have recorded a commit acknowledgement while the instance was
		// dark — between the crash and the reopen no transaction can
		// complete, so any commit timestamped there was acked by nobody.
		g := drv.Availability(0, p.Now().Add(time.Nanosecond)).Global()
		res.Offered, res.Served = g.Offered, g.Served
		for _, c := range drv.Commits() {
			if c.At > res.CrashAt && (reopenAt == 0 || c.At < reopenAt) {
				res.DarkCommits++
			}
		}
		// Extension for sync replication: while the partition held, the
		// quorum was dark — a commit acknowledged in that window whose
		// SCN had not already reached every first-tier stand-by was
		// acked by nobody. The commit gate must have held it instead.
		if cluster != nil && spec.ReplMode == standby.ModeSync && partStart > 0 {
			for _, c := range drv.Commits() {
				if c.At > partStart && c.At <= res.CrashAt && c.SCN > floorAtCrash {
					res.DarkAcks++
				}
			}
		}
		res.ServedSafe = res.DarkCommits == 0 && res.DarkAcks == 0

		// Invariant (b): the TPC-C consistency conditions.
		viols, err := app.CheckConsistency(p)
		if err != nil {
			return fmt.Errorf("consistency check: %w", err)
		}
		res.Violations = len(viols)
		res.Consistent = len(viols) == 0
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The trace stream is only complete once Exec has unwound the
	// background processes (their deferred span Ends emit last), so the
	// hash — and the fingerprint that folds it in — is taken here.
	res.TraceHash = hs.Sum()
	res.TraceEvents = hs.Count()
	// The metric stream joins the fingerprint the same way: a divergence
	// anywhere in the sampled time-series fails determinism even when
	// the final database state agrees. Nil-safe zero when sampling is off.
	res.MetricsHash = in.Monitor().Hash()
	res.MetricSamples = in.Monitor().Len()
	// Replicated points fold the stream transport and the repl.* counters
	// into the fingerprint, and hash the promoted stand-by's state (the
	// database that survives) rather than the dead primary's.
	activeIn := in
	if cluster != nil {
		res.StreamHash = cluster.StreamHash()
		st := cluster.Stats()
		res.ReplFrames, res.ReplBytes, res.ReplRecords = st.Frames, st.Bytes, st.Records
		res.ReplSyncWaits, res.ReplSyncLost, res.ReplResyncs = st.SyncWaits, st.SyncLost, st.Resyncs
		if res.FailedOver {
			activeIn = cluster.ActiveInstance()
		}
	}
	res.Fingerprint = fingerprint(StateHash(activeIn), res)
	return res, nil
}

// Estimator-accuracy tolerance: the crash-instant redo-replay estimate
// must land within ±35% of the measured phase, with an absolute floor
// for tiny phases (a crash seconds after a checkpoint replays almost
// nothing, where fixed per-phase costs dominate any per-record model).
const (
	estimateRelTolerance = 0.35
	estimateAbsFloor     = 400 * time.Millisecond
)

// estimateWithin applies the tolerance band.
func estimateWithin(est, measured time.Duration) bool {
	diff := est - measured
	if diff < 0 {
		diff = -diff
	}
	tol := time.Duration(estimateRelTolerance * float64(measured))
	if tol < estimateAbsFloor {
		tol = estimateAbsFloor
	}
	return diff <= tol
}
