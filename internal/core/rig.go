package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/sqladmin"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

// Rig is one experiment's simulated platform: a kernel, the primary
// server and the TPC-C application with its terminal driver. It is the
// single place a Spec becomes a platform that is built, loaded and wired to
// stand-bys — Run, the chaos harness and RunCatalogScan all start here. A
// Rig shares nothing with any other Rig but a generated database, which
// nobody changes, so many can run concurrently.
type Rig struct {
	K   *sim.Kernel
	In  *engine.Instance
	Rm  *recovery.Manager
	Inj *faults.Injector
	App *tpcc.App
	Drv *tpcc.Driver

	spec    Spec
	bk      *backup.Manager
	ex      *sqladmin.Executor
	cluster *standby.Cluster
	// backupSCN is the reference backup's SCN (set by Load): the content
	// every stand-by is instantiated from and starts managed recovery at.
	backupSCN redo.SCN
	// set is the generated database: found or drawn by the first populate
	// (the primary's) and installed as it is into every stand-by.
	set       tpcc.LoadSet
	dataDisks []string
	// sbCfg configures every stand-by: the primary's configuration
	// without its tracer and sampler (see Standby).
	sbCfg engine.Config
	err   error
}

// NewRig validates spec and builds its platform in a fixed order (the
// counter registry and the trace stream depend on it). The spec's seed
// drives the kernel and the data load; its recovery configuration, cache,
// CPUs, cost model, tracer and sampler configure the primary; its
// Detection, ForcePhysical and Phases the injector and the driver.
func NewRig(spec Spec) (*Rig, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = spec.Recovery.FileSize
	ecfg.Redo.Groups = spec.Recovery.Groups
	ecfg.Redo.ArchiveMode = spec.Archive
	ecfg.CheckpointTimeout = spec.Recovery.CheckpointTimeout
	ecfg.CacheBlocks = spec.CacheBlocks
	ecfg.CPUs = spec.CPUs
	ecfg.RecoveryParallelism = spec.RecoveryWorkers
	ecfg.Cost = spec.Cost
	ecfg.Tracer = spec.Tracer
	ecfg.SampleInterval = spec.SampleInterval
	r := &Rig{K: sim.NewKernel(spec.Seed), spec: spec, dataDisks: dataDiskNames(spec.DataDisks), sbCfg: ecfg}
	r.sbCfg.Tracer, r.sbCfg.SampleInterval = nil, 0
	in, err := r.machine(ecfg)
	if err != nil {
		return nil, err
	}
	r.In = in
	r.bk = backup.NewManager(r.K, in.FS(), engine.DiskArch)
	r.Rm = recovery.NewManager(in, r.bk)
	r.ex = sqladmin.NewExecutor(in, r.Rm, r.bk)
	r.Inj = faults.NewInjector(in, r.Rm, r.ex)
	if spec.Detection > 0 {
		r.Inj.Detection = spec.Detection
	}
	r.Inj.ForcePhysical = spec.ForcePhysical
	r.App = tpcc.NewApp(in, spec.TPCC)
	r.Drv = tpcc.NewDriver(r.App, tpcc.DriverConfig{Phases: spec.Phases})
	return r, nil
}

// dataDiskNames returns data1..dataN (n < 2 means the paper's two-disk
// layout; the control file stays on data1).
func dataDiskNames(n int) []string {
	if n < 2 {
		n = 2
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("data%d", i+1)
	}
	return names
}

// machine builds one simulated server on the rig's kernel — the data
// disks plus the dedicated redo and archive disks, and an engine instance
// on them. The primary and every stand-by are built here.
func (r *Rig) machine(ecfg engine.Config) (*engine.Instance, error) {
	specs := make([]simdisk.DiskSpec, 0, len(r.dataDisks)+2)
	for _, d := range r.dataDisks {
		specs = append(specs, simdisk.DefaultSpec(d))
	}
	specs = append(specs, simdisk.DefaultSpec(engine.DiskRedo), simdisk.DefaultSpec(engine.DiskArch))
	return engine.New(r.K, simdisk.NewFS(specs...), ecfg)
}

// populate creates the schema in an instance and installs the rig's generated
// database into it, finding or drawing it first if the rig has none: once,
// with the primary's App, which also gets the driver-side indexes. The set is
// a pure function of the seed and the layout, and an install hands over its
// images themselves, so every instance populated here holds the same block
// images — not equal ones — until it changes a block, in a copy of its own.
func (r *Rig) populate(p *sim.Proc, app *tpcc.App) error {
	if err := app.CreateSchema(p, r.dataDisks); err != nil {
		return err
	}
	if r.set == nil {
		g, err := r.generated(app)
		if err != nil {
			return err
		}
		r.set = g.Set
	}
	return app.Install(p, r.set)
}

// drawn is the database this process generated last, kept for the next rig
// that would draw the same one: a campaign's runs, a benchmark repetition's
// load-only and measured runs, and tests share a seed, a scale and a layout.
// It holds one entry, so it keeps at most one set reachable.
var drawn struct {
	sync.Mutex
	key drawKey
	g   *tpcc.Generated
}

// drawKey is everything Generate reads: the seed, the TPC-C scale and the
// number of data disks, which fixes the schema layout.
type drawKey struct {
	seed  int64
	tpcc  tpcc.Config
	disks int
}

// generated gives app the rig's generated database and its driver-side
// indexes: the drawn one when it has the rig's key, else a fresh draw, which
// becomes the drawn one. Two rigs that miss at once both draw; the later
// publication wins, and both sets are the same database.
func (r *Rig) generated(app *tpcc.App) (*tpcc.Generated, error) {
	key := drawKey{seed: r.spec.Seed, tpcc: app.Cfg, disks: len(r.dataDisks)}
	drawn.Lock()
	g, hit := drawn.g, drawn.g != nil && drawn.key == key
	drawn.Unlock()
	if hit {
		app.Adopt(g)
		return g, nil
	}
	g, err := app.Generate(rand.New(rand.NewSource(r.spec.Seed)))
	if err != nil {
		return nil, err
	}
	drawn.Lock()
	drawn.key, drawn.g = key, g
	drawn.Unlock()
	return g, nil
}

// Load is the set-up procedure: open, create and load the database, then
// take the reference backup the way a DBA does, with BACKUP DATABASE.
func (r *Rig) Load(p *sim.Proc) error {
	if err := r.In.Open(p); err != nil {
		return err
	}
	if err := r.populate(p, r.App); err != nil {
		return err
	}
	if _, err := r.ex.Execute(p, "BACKUP DATABASE"); err != nil {
		return err
	}
	b, err := r.bk.Latest()
	if err != nil {
		return err
	}
	r.backupSCN = b.SCN
	return nil
}

// Setup is the set-up every run starts with: Load, then the spec's
// replication cluster — Standbys first-tier stand-bys plus ReplCascade
// cascaded ones, fed per ReplMode over ReplLink. It returns the cluster (nil
// without stand-bys). The controller and the terminals are the caller's to
// start.
func (r *Rig) Setup(p *sim.Proc) (*standby.Cluster, error) {
	if err := r.Load(p); err != nil {
		return nil, err
	}
	if s := r.spec; s.Standbys > 0 {
		var err error
		r.cluster, err = r.StartCluster(p, s.Standbys+s.ReplCascade, standby.ClusterConfig{
			Mode:    s.ReplMode,
			Link:    s.ReplLink,
			Cascade: s.ReplCascade,
		})
		if err != nil {
			return nil, err
		}
	}
	return r.cluster, nil
}

// Remedy recovers from o through the injector and returns the recovery
// point: -1 after a complete recovery, where nothing acknowledged may be
// missing; the pre-fault SCN after a point-in-time recovery; the promoted
// SCN after a failover, when the terminals re-target the new primary (and
// stop routing reads to stand-bys).
func (r *Rig) Remedy(p *sim.Proc, o *faults.Outcome) (redo.SCN, error) {
	if err := r.Inj.Recover(p, o); err != nil {
		return 0, err
	}
	switch {
	case o.FailedOver:
		r.App.In = r.cluster.ActiveInstance()
		r.App.Replica = nil
		return r.cluster.PromotedSCN(), nil
	case o.Report != nil && !o.Report.Complete:
		return o.PreFaultSCN, nil
	}
	return -1, nil
}

// Standby creates one stand-by server: its own simulated machine with an
// identical schema, and the primary's loaded block images installed into it
// at the I/O cost of a load — the standard "instantiate from a backup of
// the primary" procedure: nothing is generated again. It is left unopened for
// managed recovery from the reference backup. Its configuration is the
// primary's, minus the tracer and the sampler: the stand-by shares the
// primary's kernel but is a second database, whose events would interleave
// with the primary's on the same tracks, and whose repository — a promoted
// stand-by starts MMON at Open — nobody reads. Call after Load.
func (r *Rig) Standby(p *sim.Proc, name string) (*standby.Standby, error) {
	ecfg := r.sbCfg
	ecfg.Name = name
	in, err := r.machine(ecfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	if err := r.populate(p, tpcc.NewApp(in, r.App.Cfg)); err != nil {
		return nil, fmt.Errorf("core: %s load: %w", name, err)
	}
	return standby.New(in, standby.DefaultConfig(), r.backupSCN), nil
}

// StartCluster instantiates n stand-bys (standby1..standbyN), starts the
// replication cluster over them and wires it to the primary: the redo tap
// (durable records, or archived logs in archive mode), the commit gate,
// the lifecycle observer (chained behind any observer already set) and
// failover as the injector's ShutdownAbort remedy. It is the only
// stand-by wiring there is. A zero ccfg.Link means LinkLAN.
func (r *Rig) StartCluster(p *sim.Proc, n int, ccfg standby.ClusterConfig) (*standby.Cluster, error) {
	sbs := make([]*standby.Standby, n)
	for i := range sbs {
		var err error
		if sbs[i], err = r.Standby(p, fmt.Sprintf("standby%d", i+1)); err != nil {
			return nil, err
		}
	}
	if ccfg.Link == (sim.LinkSpec{}) {
		ccfg.Link = LinkLAN
	}
	cluster, err := standby.NewCluster(r.In, sbs, ccfg)
	if err != nil {
		return nil, err
	}
	if err := cluster.Start(p); err != nil {
		return nil, err
	}
	if ccfg.Mode == standby.ModeArchive {
		r.In.Archiver().OnArchived = cluster.OnArchived
	} else {
		r.In.Log().OnDurable = cluster.OnDurable
	}
	r.In.Txns().CommitGate = cluster.CommitGate
	prevState := r.In.OnStateChange
	r.In.OnStateChange = func(now sim.Time, st engine.State) {
		if prevState != nil {
			prevState(now, st)
		}
		cluster.OnPrimaryState(now, st)
	}
	r.Inj.Failover = cluster
	return cluster, nil
}

// Exec runs body as the experiment's main simulated process, drives the
// kernel until body returns (or Fail is called) and returns the first
// error either reported. A panic in any simulated process — sim names the
// process and the virtual time — comes back as that error too, so a bad
// spec fails its own campaign job instead of the whole campaign process.
func (r *Rig) Exec(name string, body func(p *sim.Proc) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r.Fail(fmt.Errorf("experiment aborted: %v", rec))
		}
		r.teardown()
		err = r.err
	}()
	r.K.Go(name, func(p *sim.Proc) {
		if err := body(p); err != nil {
			r.Fail(err)
		}
		r.K.Stop()
	})
	r.K.Run(sim.Time(200 * time.Hour))
	return nil
}

// teardown ends the simulation completely: parked background processes
// (LGWR waiting for work, PMON sleeping, stand-by MRP, ...) would otherwise
// leak their coroutines' goroutines and keep the whole run's state
// reachable — across a campaign of dozens of runs that is an OOM. A process
// killed before its first step still runs its body up to its first block;
// a panic there (sim.ErrKilledUnstarted) belongs to the teardown, not to
// the run, and is dropped. Any other panic is the run's and goes through
// Fail. Either way the processes left are killed again.
func (r *Rig) teardown() {
	for panicked := true; panicked; {
		func() {
			defer func() {
				rec := recover()
				panicked = rec != nil
				if err, ok := rec.(error); panicked && !(ok && errors.Is(err, sim.ErrKilledUnstarted)) {
					r.Fail(fmt.Errorf("experiment aborted: %v", rec))
				}
			}()
			r.K.KillAll()
		}()
	}
}

// Fail aborts the experiment from any simulated process; the first error
// wins and Exec returns it.
func (r *Rig) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.K.Stop()
}
