package engine

import (
	"sort"

	"dbench/internal/monitor"
	"dbench/internal/storage"
)

// buildRepository wires the workload repository for an instance:
// registry binding, the gauge probes, and the recovery-time estimator
// with its physical model and input closure. Called from New when
// Config.SampleInterval > 0; everything it registers is a pure read of
// instance state, so sampling never advances virtual time.
func buildRepository(in *Instance) *monitor.Repository {
	repo := monitor.New(monitor.Config{})
	repo.Bind(in.reg)

	repo.AddProbe("db.current_scn", func() int64 { return int64(in.log.NextSCN() - 1) })
	repo.AddProbe("db.flushed_scn", func() int64 { return int64(in.log.FlushedSCN()) })
	repo.AddProbe("db.checkpoint_scn", func() int64 { return int64(in.db.Control.CheckpointSCN) })
	repo.AddProbe("db.undo_scn", func() int64 { return int64(in.db.Control.UndoSCN) })
	repo.AddProbe("cache.dirty", func() int64 { return int64(in.cache.DirtyCount()) })
	// Checkpoint lag: how far the oldest dirty change trails the head of
	// the log — the redo span a crash-now recovery must reapply because
	// of buffers DBWR has not written back yet.
	repo.AddProbe("ckpt.lag", func() int64 {
		md := in.cache.MinDirtySCN()
		if md < 0 {
			return 0
		}
		return int64(in.log.NextSCN()-1) - int64(md)
	})
	repo.AddProbe("txn.active", func() int64 { return int64(in.tm.ActiveCount()) })
	repo.AddProbe("txn.committed", func() int64 { return int64(in.tm.Stats().Committed) })
	// One gauge per currently-offline tablespace: its outage duration so
	// far, in virtual nanoseconds. Sorted for deterministic emission.
	repo.AddMultiProbe(func(emit func(name string, v int64)) {
		if len(in.tsDown) == 0 {
			return
		}
		names := make([]string, 0, len(in.tsDown))
		for name := range in.tsDown {
			names = append(names, name)
		}
		sort.Strings(names)
		now := in.k.Now()
		for _, name := range names {
			emit("ts.offline_ns."+name, int64(now.Sub(in.tsDown[name])))
		}
	})

	spec := in.fs.Disk(in.cfg.Redo.Disk).Spec()
	est := monitor.NewEstimator(monitor.Model{
		ApplyPerRecord:  in.cfg.Cost.RedoApplyPerRecord,
		ScanBytesPerSec: spec.TransferBytesPerSec,
		SeekOverhead:    spec.Position,
		MountOverhead:   in.cfg.Cost.InstanceStartup,
		Parallel:        min(in.RecoveryParallelism(), max(in.cfg.CPUs, 1)),
	})
	repo.SetEstimator(est, func() (scanStartSCN, flushedSCN, flushedBytes int64) {
		ctl := in.db.Control
		return int64(storage.ScanStart(ctl.CheckpointSCN, ctl.UndoSCN)), int64(in.log.FlushedSCN()), in.reg.Value("redo.flushed_bytes")
	})
	return repo
}
