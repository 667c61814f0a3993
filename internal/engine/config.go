package engine

import (
	"time"

	"dbench/internal/redo"
	"dbench/internal/trace"
)

// Disk-layout names; the paper's platform had four disks per server. The
// control file always lives on DiskData1 and archived logs on DiskArch.
const (
	DiskData1 = "data1"
	DiskData2 = "data2"
	DiskRedo  = "redo"
	DiskArch  = "arch"
)

// CostModel carries the simulated hardware/software costs that drive both
// the performance and the recovery-time results. Defaults (see
// DefaultCostModel) land the simulation in the paper's order of magnitude.
type CostModel struct {
	// CPUPerOp is the processing cost of one row operation.
	CPUPerOp time.Duration
	// LockTimeout bounds lock waits.
	LockTimeout time.Duration

	// InstanceStartup is the fixed cost of starting the instance (SGA
	// allocation, process spawn, file header reads).
	InstanceStartup time.Duration
	// RedoApplyPerRecord is the CPU cost of applying one redo record
	// during recovery.
	RedoApplyPerRecord time.Duration
	// ArchiveOpenOverhead is the per-archived-log cost of opening,
	// validating and repositioning a log during media recovery; it is
	// why many small archive files recover slower than few large ones.
	ArchiveOpenOverhead time.Duration
	// BackupRestoreOverhead is the fixed cost of initiating a restore
	// (cataloguing, tape/file positioning).
	BackupRestoreOverhead time.Duration
}

// DefaultCostModel returns costs calibrated for the paper's 2001-era
// platform (Pentium III servers, IDE/SCSI disks).
func DefaultCostModel() CostModel {
	return CostModel{
		CPUPerOp:              180 * time.Microsecond,
		LockTimeout:           10 * time.Second,
		InstanceStartup:       12 * time.Second,
		RedoApplyPerRecord:    110 * time.Microsecond,
		ArchiveOpenOverhead:   1200 * time.Millisecond,
		BackupRestoreOverhead: 5 * time.Second,
	}
}

// Config configures an instance. Redo carries the paper's Table 3 knobs.
// Every field an operator can see or set is one row of the parameter table
// (parameters.go); the instance keeps its Config live — ALTER SYSTEM SET
// writes the dynamic fields in place.
type Config struct {
	// Name identifies the instance (e.g. "primary", "standby").
	Name string
	// Redo is the online redo log configuration.
	Redo redo.Config
	// CacheBlocks sizes the buffer cache (in 8 KB blocks).
	CacheBlocks int
	// CPUs is the number of CPU slots serving per-row-operation costs
	// (0 = 1). The scaling experiment grows it with the warehouse count
	// to model a platform provisioned for the load.
	CPUs int
	// RecoveryParallelism is the number of redo-apply workers the
	// recovery paths fan out to (<=1 = serial, the default). Workers
	// charge their apply CPU against the instance's CPU slots, so the
	// effective speedup is bounded by CPUs; results (datafile images,
	// report counts) are identical for every value.
	RecoveryParallelism int
	// CheckpointTimeout is Oracle's log_checkpoint_timeout: a periodic
	// checkpoint trigger. Zero disables timeout checkpoints.
	CheckpointTimeout time.Duration
	// Cost is the simulated cost model.
	Cost CostModel
	// Tracer, when set, receives the instance's structured events
	// (engine lifecycle, LGWR/DBWR/CKPT/ARCH activity, recovery
	// phases). Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// SampleInterval enables the MMON workload repository: a background
	// sampler snapshots the counter registry, gauge probes and the live
	// recovery-time estimate every SampleInterval of virtual time. Zero
	// disables monitoring entirely (nil repository, zero cost).
	SampleInterval time.Duration
}

// DefaultConfig returns a ready-to-run configuration with a 100 MB / 3
// group / 600 s-timeout recovery setup (the paper's F100G3T10).
func DefaultConfig() Config {
	return Config{
		Name: "primary",
		Redo: redo.Config{
			GroupSizeBytes: 100 << 20,
			Groups:         3,
			Disk:           DiskRedo,
		},
		CacheBlocks:       4096,
		CheckpointTimeout: 600 * time.Second,
		Cost:              DefaultCostModel(),
	}
}
