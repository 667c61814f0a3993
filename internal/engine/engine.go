// Package engine implements the database instance: the coordinator that
// wires the redo log, buffer cache, transaction manager, checkpoint and
// archiver processes over the physical database, and exposes the DML and
// administration surface the workload and the fault injector drive.
//
// The architecture mirrors Oracle 8i as described in the paper's §2.1:
// LGWR (redo.Manager), DBWR (cache write-back), CKPT (checkpoint process),
// ARCH (archivelog.Archiver), a control file, datafiles in tablespaces,
// and an SGA-style buffer cache.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dbench/internal/archivelog"
	"dbench/internal/bufcache"
	"dbench/internal/catalog"
	"dbench/internal/monitor"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
	"dbench/internal/trace"
	"dbench/internal/txn"
)

// State is the instance lifecycle state.
type State uint8

// Instance states.
const (
	StateDown State = iota + 1
	StateOpen
)

func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateOpen:
		return "open"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Errors reported by the instance.
var (
	// ErrInstanceDown is returned by DML calls while the instance is not
	// open; clients see it as a lost connection.
	ErrInstanceDown = errors.New("engine: instance down")
	// ErrCrashRecoveryNeeded is returned by Open when the database was
	// not cleanly shut down and has not been recovered.
	ErrCrashRecoveryNeeded = errors.New("engine: crash recovery required")
)

// Stats counts instance activity for the benchmark reports. It is a
// snapshot view over the instance's counter registry.
type Stats struct {
	Checkpoints        int
	SwitchCheckpoints  int
	TimeoutCheckpoints int
	Crashes            int
}

// counters is the engine's own registered counter block; the cache and
// redo blocks register alongside it in the instance registry.
type counters struct {
	checkpoints        *trace.Counter
	switchCheckpoints  *trace.Counter
	timeoutCheckpoints *trace.Counter
	crashes            *trace.Counter
	tsOfflines         *trace.Counter
	tsOnlines          *trace.Counter
	alters             *trace.Counter
}

// Instance is one database server instance plus its database.
type Instance struct {
	k   *sim.Kernel
	fs  *simdisk.FS
	cfg Config

	db    *storage.DB
	cat   *catalog.Catalog
	log   *redo.Manager
	cache *bufcache.Cache
	tm    *txn.Manager
	arch  *archivelog.Archiver
	cpu   *sim.Resource

	state     State
	mounted   bool // instance started (SGA up, control file read), not yet open
	crashed   bool // not cleanly shut down; recovery required before Open
	recovered bool // recovery manager completed instance recovery

	ckpt *ckptProcess
	pmon *sim.Server
	mmon *sim.Server // nil when monitoring is off
	repo *monitor.Repository
	c    counters
	reg  *trace.Registry
	tr   *trace.Tracer

	// tsDown records, per tablespace, when it became unavailable to DML
	// (offlined, dropped, or damaged): the start of the localized outage
	// window. Cleared when the tablespace comes back online.
	tsDown map[string]sim.Time

	// lastDDLSCN/lastDDLAt stamp the most recent DDL redo record at the
	// moment it was durably flushed — the instant a destructive DDL takes
	// effect, which the fault injector uses as its atomic
	// (PreFaultSCN, InjectedAt) capture point.
	lastDDLSCN redo.SCN
	lastDDLAt  sim.Time

	// ckptActive is true while the checkpoint procedure is between its
	// start and its control-file update — the window in which a crash
	// leaves a half-drained cache behind.
	ckptActive bool

	// OnStateChange, when set, observes lifecycle transitions (the
	// benchmark driver uses it to timestamp outages).
	OnStateChange func(now sim.Time, s State)
}

// New builds an instance over fs. The database starts empty and down;
// callers create tablespaces/tables (or restore a backup), then Open.
func New(k *sim.Kernel, fs *simdisk.FS, cfg Config) (*Instance, error) {
	db, err := storage.NewDB(fs, cfg.ControlDisk)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	log, err := redo.NewManager(k, fs, cfg.Redo)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	inst := &Instance{
		k:      k,
		fs:     fs,
		cfg:    cfg,
		db:     db,
		cat:    catalog.New(),
		log:    log,
		cache:  bufcache.New(k, cfg.CacheBlocks),
		cpu:    sim.NewResource(cfg.CPUs),
		state:  StateDown,
		tsDown: make(map[string]sim.Time),
	}
	// One registry per instance: the engine's own counters plus every
	// subsystem block, in construction order. Status() derives its
	// counter fields from here, so a counter added in any subsystem
	// shows up in reports without per-field plumbing.
	inst.reg = trace.NewRegistry()
	inst.tr = cfg.Tracer
	inst.c = counters{
		checkpoints:        inst.reg.Counter("engine.checkpoints"),
		switchCheckpoints:  inst.reg.Counter("engine.switch_checkpoints"),
		timeoutCheckpoints: inst.reg.Counter("engine.timeout_checkpoints"),
		crashes:            inst.reg.Counter("engine.crashes"),
		tsOfflines:         inst.reg.Counter("engine.ts_offlines"),
		tsOnlines:          inst.reg.Counter("engine.ts_onlines"),
		alters:             inst.reg.Counter("engine.alters"),
	}
	inst.reg.Register(inst.cache.Counters()...)
	inst.reg.Register(log.Counters()...)
	inst.cache.Trace = cfg.Tracer
	log.Trace = cfg.Tracer
	inst.cache.FlushLog = func(p *sim.Proc, scn redo.SCN) error {
		if !inst.log.Running() {
			return fmt.Errorf("engine: log writer down")
		}
		return inst.log.WaitFlushed(p, scn)
	}
	inst.cache.FlushableSCN = inst.log.FlushableSCN
	inst.tm = txn.NewManager(k, log, inst.cache, inst.cat, inst.cpu, txn.Config{
		LockTimeout: cfg.Cost.LockTimeout,
		CPUPerOp:    cfg.Cost.CPUPerOp,
	})
	if cfg.Redo.ArchiveMode {
		inst.arch = archivelog.NewArchiver(k, fs, log, cfg.ArchiveDisk)
		inst.arch.Trace = cfg.Tracer
	}
	log.OnSwitch = inst.onLogSwitch
	log.OnFatal = func(err error) { inst.Crash() }
	// The undo floor folds in the flashback retention horizon: group
	// reuse stops at the older of the oldest active transaction and any
	// SCN a logical rewind has pinned (txn.Manager.SetRetention).
	log.UndoFloor = inst.tm.UndoFloor
	inst.tm.OnTxnFinished = log.NotifyUndoFloorChanged
	// A "checkpoint not complete" stall demands a fresh checkpoint: the
	// switch-triggered one can land short of the blocking group's last
	// SCN (a mid-drain re-dirty clamps the position), and waiting for
	// the timer checkpoint would wedge the workload for minutes.
	log.OnCheckpointNeeded = func() {
		if inst.ckpt != nil {
			inst.ckpt.request(reasonSwitch)
		}
	}
	// Monitoring is opt-in: a zero SampleInterval leaves repo nil, and
	// every sampling site is nil-safe at zero cost (same contract as the
	// nil tracer).
	if cfg.SampleInterval > 0 {
		inst.repo = buildRepository(inst)
	}
	return inst, nil
}

// Accessors used by the workload, fault injector, backup and recovery
// layers.

// Kernel returns the simulation kernel.
func (in *Instance) Kernel() *sim.Kernel { return in.k }

// FS returns the simulated file system.
func (in *Instance) FS() *simdisk.FS { return in.fs }

// DB returns the physical database.
func (in *Instance) DB() *storage.DB { return in.db }

// Catalog returns the data dictionary.
func (in *Instance) Catalog() *catalog.Catalog { return in.cat }

// Log returns the redo log manager.
func (in *Instance) Log() *redo.Manager { return in.log }

// Cache returns the buffer cache.
func (in *Instance) Cache() *bufcache.Cache { return in.cache }

// Txns returns the transaction manager.
func (in *Instance) Txns() *txn.Manager { return in.tm }

// CPU returns the instance's CPU slots. Parallel recovery workers charge
// their redo-apply cost through it, so apply concurrency is bounded by
// the configured CPU count just like transaction processing.
func (in *Instance) CPU() *sim.Resource { return in.cpu }

// Archiver returns the ARCH process, or nil when archive mode is off.
func (in *Instance) Archiver() *archivelog.Archiver { return in.arch }

// Config returns the configuration as it stands now: what New was given
// with every ALTER SYSTEM SET since, the redo geometry as far as the log
// manager has landed it.
func (in *Instance) Config() Config {
	c := in.cfg
	c.Redo = in.log.Config()
	return c
}

// Stats returns a snapshot of the instance counters.
func (in *Instance) Stats() Stats {
	return Stats{
		Checkpoints:        int(in.c.checkpoints.Value()),
		SwitchCheckpoints:  int(in.c.switchCheckpoints.Value()),
		TimeoutCheckpoints: int(in.c.timeoutCheckpoints.Value()),
		Crashes:            int(in.c.crashes.Value()),
	}
}

// Registry returns the instance's counter registry (engine + cache +
// redo counter blocks).
func (in *Instance) Registry() *trace.Registry { return in.reg }

// Tracer returns the instance's event bus (nil when tracing is off;
// a nil tracer accepts and drops events).
func (in *Instance) Tracer() *trace.Tracer { return in.tr }

// Monitor returns the MMON workload repository, nil when monitoring is
// disabled (Config.SampleInterval == 0). A nil repository accepts every
// call as a no-op.
func (in *Instance) Monitor() *monitor.Repository { return in.repo }

// State returns the lifecycle state.
func (in *Instance) State() State { return in.state }

// Crashed reports whether the last stop was unclean (recovery needed).
func (in *Instance) Crashed() bool { return in.crashed }

// MarkRecovered is called by the recovery manager once instance recovery
// has completed, unblocking Open.
func (in *Instance) MarkRecovered() { in.recovered = true }

// markTablespaceDown records the start of a tablespace outage (first
// marking wins: a fault followed by a recovery offline keeps the fault's
// timestamp).
func (in *Instance) markTablespaceDown(name string) {
	if _, ok := in.tsDown[name]; ok {
		return
	}
	in.tsDown[name] = in.k.Now()
	in.c.tsOfflines.Inc()
	in.tr.Instant(in.k.Now(), trace.CatEngine, "engine", "tablespace down", trace.S("ts", name))
}

// clearTablespaceDown ends a tablespace outage window.
func (in *Instance) clearTablespaceDown(name string) {
	if _, ok := in.tsDown[name]; !ok {
		return
	}
	delete(in.tsDown, name)
	in.c.tsOnlines.Inc()
	in.tr.Instant(in.k.Now(), trace.CatEngine, "engine", "tablespace up", trace.S("ts", name))
}

// LastDDL returns the SCN and virtual time at which the most recent DDL
// redo record was durably flushed.
func (in *Instance) LastDDL() (redo.SCN, sim.Time) { return in.lastDDLSCN, in.lastDDLAt }

// Mount starts the instance without opening the database: the SGA is
// allocated, background process slots created and the control file read.
// Recovery runs against a mounted instance; Open completes the startup.
func (in *Instance) Mount(p *sim.Proc) error {
	if in.state == StateOpen {
		return fmt.Errorf("engine: already open")
	}
	if in.mounted {
		return nil
	}
	if in.db.Control.Lost() {
		return storage.ErrControlLost
	}
	span := in.tr.Begin(p.Now(), trace.CatEngine, "engine", "mount")
	p.Sleep(in.cfg.Cost.InstanceStartup)
	// A fresh instance starts with a fresh SGA: drop anything a process
	// racing the previous crash may have smuggled into the cache.
	in.cache.InvalidateAll()
	in.tm.AbandonAll()
	in.mounted = true
	in.tr.End(p.Now(), span)
	return nil
}

// Open starts the instance: charges startup cost (unless already
// mounted), verifies the control file, starts background processes and
// accepts work. A crashed database must be recovered first
// (recovery.InstanceRecovery does this and calls MarkRecovered).
func (in *Instance) Open(p *sim.Proc) error {
	if in.state == StateOpen {
		return nil
	}
	if err := in.Mount(p); err != nil {
		return err
	}
	if in.crashed && !in.recovered {
		return ErrCrashRecoveryNeeded
	}
	in.log.Start()
	if in.arch != nil {
		in.arch.Start()
	}
	in.ckpt = &ckptProcess{in: in}
	in.ckpt.start()
	// PMON rolls back the transactions whose own rollback failed (their
	// media offline) once it can; MMON snapshots the counters, gauges and
	// recovery-time estimate into the workload repository.
	in.pmon = in.k.Every("PMON", time.Second, func(p *sim.Proc) {
		if in.tm.ZombieCount() > 0 {
			in.tm.RollbackZombies(p)
		}
	})
	if in.repo != nil {
		in.mmon = in.k.Every("MMON", in.cfg.SampleInterval, func(p *sim.Proc) { in.repo.Sample(p.Now()) })
	}
	in.crashed = false
	in.recovered = false
	in.state = StateOpen
	// Mark the control file "in use": a crash leaves this mark behind.
	in.db.Control.StopSCN = -1
	if err := in.db.Control.Update(p); err != nil {
		return err
	}
	in.tr.Instant(p.Now(), trace.CatEngine, "engine", "open",
		trace.I("scn", int64(in.log.NextSCN())))
	// Whole-instance recovery paths (PIT restore) bring tablespaces back
	// without an explicit ALTER ... ONLINE; close their outage windows
	// here. Sorted for deterministic trace/counter order.
	var reopened []string
	for name := range in.tsDown {
		if t, err := in.db.Tablespace(name); err == nil && t.Online() {
			reopened = append(reopened, name)
		}
	}
	sort.Strings(reopened)
	for _, name := range reopened {
		in.clearTablespaceDown(name)
	}
	// Baseline sample at the open instant, so the repository always has a
	// "window start" snapshot even before the first MMON tick.
	in.repo.Sample(in.k.Now())
	if in.OnStateChange != nil {
		in.OnStateChange(in.k.Now(), StateOpen)
	}
	return nil
}

// Crash kills the instance without any cleanup: SHUTDOWN ABORT and fatal
// internal errors land here. The buffer cache and redo buffer vanish;
// in-flight transactions are abandoned to recovery.
func (in *Instance) Crash() {
	if in.state == StateDown {
		return
	}
	// Final sample at the crash instant, before the crash mutates any
	// state: the repository's last sample is exactly the pre-crash
	// picture, which is what the chaos estimator invariant compares the
	// measured recovery against.
	in.repo.Sample(in.k.Now())
	in.c.crashes.Inc()
	in.tr.Instant(in.k.Now(), trace.CatEngine, "engine", "crash",
		trace.I("scn", int64(in.log.NextSCN())))
	in.stop(true)
}

// stop takes the instance down: the state flips, the background processes
// end, the cache content is dropped (lost in a crash, clean after the
// shutdown checkpoint) and — only a crash leaves any — in-flight
// transactions are abandoned to recovery.
func (in *Instance) stop(crashed bool) {
	in.state = StateDown
	in.mounted = false
	in.crashed = crashed
	in.log.Stop()
	if in.arch != nil {
		in.arch.Stop()
	}
	if in.ckpt != nil {
		in.ckpt.stop()
	}
	in.pmon.Stop()
	in.mmon.Stop()
	in.cache.InvalidateAll()
	if crashed {
		in.tm.AbandonAll()
	}
	if in.OnStateChange != nil {
		in.OnStateChange(in.k.Now(), StateDown)
	}
}

// ShutdownImmediate closes the instance cleanly: active transactions are
// rolled back, a final checkpoint is taken, and the control file is marked
// clean so the next Open skips recovery.
func (in *Instance) ShutdownImmediate(p *sim.Proc) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	span := in.tr.Begin(p.Now(), trace.CatEngine, "engine", "shutdown immediate")
	defer func() { in.tr.End(p.Now(), span) }()
	if err := in.tm.RollbackAllActive(p); err != nil {
		return fmt.Errorf("engine: shutdown: %w", err)
	}
	if err := in.checkpoint(p); err != nil {
		return fmt.Errorf("engine: shutdown checkpoint: %w", err)
	}
	in.db.Control.StopSCN = in.log.FlushedSCN()
	if err := in.db.Control.Update(p); err != nil {
		return err
	}
	in.stop(false)
	return nil
}

// onLogSwitch runs on the LGWR process at every log switch: it hands the
// switched-out group to the archiver and requests a checkpoint so the
// group can be reused.
func (in *Instance) onLogSwitch(p *sim.Proc, old *redo.Group) {
	if in.arch != nil && in.cfg.Redo.ArchiveMode {
		in.arch.Enqueue(old)
	}
	if in.ckpt != nil {
		in.ckpt.request(reasonSwitch)
	}
}

// RequestCheckpoint asks the CKPT process for an asynchronous checkpoint.
func (in *Instance) RequestCheckpoint() {
	if in.ckpt != nil {
		in.ckpt.request(reasonManual)
	}
}

// CheckpointInProgress reports whether a checkpoint procedure is
// currently executing (between its start and its control-file update).
// The chaos harness uses it to place crashes inside the checkpoint
// window.
func (in *Instance) CheckpointInProgress() bool { return in.ckptActive }

// Checkpoint performs a full synchronous checkpoint on the calling
// process.
func (in *Instance) Checkpoint(p *sim.Proc) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.checkpoint(p)
}

// checkpoint is the core procedure: force the log, drain dirty buffers,
// log the checkpoint record, persist the checkpoint SCN and release log
// groups for reuse.
func (in *Instance) checkpoint(p *sim.Proc) error {
	in.ckptActive = true
	// The deferred reset also runs when the checkpointing process is
	// killed mid-procedure (a kill unwinds the process stack), so the
	// flag never sticks across a crash.
	defer func() { in.ckptActive = false }()
	// Capture the checkpoint position and the undo low-watermark first:
	// all changes at or below scn are covered by the dirty-buffer
	// snapshot written below.
	scn := in.log.NextSCN() - 1
	undoSCN := in.tm.OldestActiveFirstSCN()
	if undoSCN == 0 {
		undoSCN = scn + 1
	}
	span := in.tr.Begin(p.Now(), trace.CatCkpt, "CKPT", "checkpoint")
	written, err := in.cache.Checkpoint(p)
	if err != nil {
		in.tr.End(p.Now(), span, trace.I("written", int64(written)), trace.S("error", err.Error()))
		return err
	}
	// The durable checkpoint position cannot exceed what is flushed:
	// redo beyond FlushedSCN would be lost in a crash, so recovery must
	// still scan from there. (Oracle records the position in the file
	// headers and control file; no redo record is needed, which also
	// keeps checkpoints deadlock-free while the log is stalled.)
	if flushed := in.log.FlushedSCN(); flushed < scn {
		scn = flushed
	}
	// Nor can it reach past a change still only in the cache: buffers the
	// drain left dirty (skipped because their redo was not yet flushable,
	// re-dirtied mid-write, or on an unwritable file) must stay inside
	// the recovery scan.
	if md := in.cache.MinDirtySCN(); md >= 0 && md <= scn {
		scn = md - 1
	}
	if undoSCN > scn+1 {
		undoSCN = scn + 1
	}
	in.db.Control.CheckpointSCN = scn
	in.db.Control.UndoSCN = undoSCN
	for _, f := range in.db.Datafiles() {
		if f.Online() && !f.Lost() {
			f.CkptSCN = scn
			f.UndoSCN = undoSCN
		}
	}
	if err := in.db.Control.Update(p); err != nil {
		// Losing the control file kills the instance.
		in.tr.End(p.Now(), span, trace.I("written", int64(written)), trace.S("error", err.Error()))
		in.Crash()
		return err
	}
	in.log.CheckpointCompleted(scn)
	in.c.checkpoints.Inc()
	// Sample right after the checkpoint lands: the recovery-scan window
	// (and so the live recovery estimate) just shrank, and a crash before
	// the next MMON tick must not be compared against the stale pre-
	// checkpoint estimate. Pure reads — no virtual time is consumed.
	in.repo.Sample(p.Now())
	in.tr.End(p.Now(), span, trace.I("written", int64(written)), trace.I("scn", int64(scn)))
	return nil
}
