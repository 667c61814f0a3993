package monitor

import "time"

// Estimator models the cost of the redo-replay phase of a hypothetical
// crash recovery starting "now": the records the recovery scan would
// cover (from the durable checkpoint position to the end of flushed
// redo), charged with the same cost structure recovery itself uses — a
// sequential log read plus a per-record apply cost.
//
// Cold, the estimator runs on a physical prior derived from the engine's
// cost model; every completed recovery then calibrates the per-record
// cost from the measured redo-replay phase (Observe), so the estimate
// tightens as the instance accumulates recovery history. The chaos
// harness asserts the cold prior alone brackets the measured phase
// within a tolerance band, which keeps the model honest — the estimate
// is a tested oracle, not a dashboard number.
type Estimator struct {
	m Model

	// fitted is the calibrated wall-seconds per scanned record (CPU +
	// amortized I/O, at the instance's recovery fan-out); zero until the
	// first Observe.
	fitted       float64
	calibrations int
}

// Model carries the physical constants the cold estimate is built from.
// The engine derives them from its cost model and the redo disk's spec.
type Model struct {
	// ApplyPerRecord is the full per-record apply cost (the engine's
	// CostModel.RedoApplyPerRecord).
	ApplyPerRecord time.Duration
	// ScanBytesPerSec is the redo disk's sequential transfer rate;
	// SeekOverhead its initial positioning cost.
	ScanBytesPerSec int64
	SeekOverhead    time.Duration
	// MountOverhead is the fixed instance-restart cost folded into the
	// Total estimate (the engine's CostModel.InstanceStartup).
	MountOverhead time.Duration
	// Parallel is the effective recovery fan-out — min(recovery workers,
	// CPU slots), at least 1. The prior divides the per-record CPU cost
	// by it; calibrated estimates already reflect it.
	Parallel int
}

// DefaultPriorApplyFraction is the share of ApplyPerRecord the cold prior
// charges per *scanned* record. Not every scanned record pays the full apply
// cost: commit/abort records cost a quarter, and data-change records whose
// block image is already current (written back by DBWR or a checkpoint
// before the crash) cost nothing. It is calibrated against the chaos
// harness's measured redo-replay phases (see internal/chaos: the
// estimator-accuracy invariant).
const DefaultPriorApplyFraction = 0.55

// Estimate is one instant's recovery-cost prediction.
type Estimate struct {
	// Valid is false when no estimator is bound (monitoring without an
	// engine, or a zero sample).
	Valid bool
	// ScanRecords is the number of redo records a crash-now recovery
	// would scan: flushed SCN minus the recovery start position.
	ScanRecords int64
	// RedoBytes is the estimated scan volume (ScanRecords times the
	// observed average record size).
	RedoBytes int64
	// RedoReplay is the estimated redo-replay phase duration: log scan
	// plus per-record apply.
	RedoReplay time.Duration
	// Total adds the fixed instance-restart overhead — the "if it
	// crashed now, how long until reopen" headline (undo rollback and
	// block write-back, usually small, are not modelled).
	Total time.Duration
	// Calibrations counts the completed recoveries folded in (0 = the
	// estimate is the physical prior).
	Calibrations int
}

// NewEstimator returns an estimator over the given physical model.
func NewEstimator(m Model) *Estimator {
	if m.Parallel < 1 {
		m.Parallel = 1
	}
	if m.ScanBytesPerSec <= 0 {
		m.ScanBytesPerSec = 20 << 20
	}
	return &Estimator{m: m}
}

// SetParallel updates the model's effective recovery fan-out (callers
// pass min(workers, CPU slots), at least 1). The cold prior scales
// immediately; a calibrated fit keeps its learned value and re-learns
// at the new fan-out from the next observed recovery.
func (e *Estimator) SetParallel(n int) {
	if e == nil || n < 1 {
		return
	}
	e.m.Parallel = n
}

// PredictReplay is the controller's what-if query: the redo-replay
// duration of a hypothetical scan of records/bytes at the current
// calibration, using the same cost structure as Estimate.
func (e *Estimator) PredictReplay(records, bytes int64) time.Duration {
	if e == nil || records <= 0 {
		return 0
	}
	scan := e.m.SeekOverhead.Seconds() + float64(bytes)/float64(e.m.ScanBytesPerSec)
	apply := float64(records) * e.secPerRecord()
	return time.Duration((scan + apply) * float64(time.Second))
}

// PredictTotal adds the fixed instance-restart overhead to PredictReplay.
func (e *Estimator) PredictTotal(records, bytes int64) time.Duration {
	if e == nil {
		return 0
	}
	return e.m.MountOverhead + e.PredictReplay(records, bytes)
}

// Calibrations counts the recoveries observed so far.
func (e *Estimator) Calibrations() int {
	if e == nil {
		return 0
	}
	return e.calibrations
}

// secPerRecord is the current per-scanned-record wall cost.
func (e *Estimator) secPerRecord() float64 {
	if e.calibrations > 0 {
		return e.fitted
	}
	prior := DefaultPriorApplyFraction * e.m.ApplyPerRecord.Seconds()
	return prior / float64(e.m.Parallel)
}

// Estimate predicts the redo-replay cost of a crash at this instant.
// scanStartSCN is the SCN recovery would scan from (checkpoint position
// plus one, lowered to the undo low-watermark); flushedSCN the highest
// durably flushed SCN; flushedBytes the cumulative flushed redo volume,
// used for the average record size.
func (e *Estimator) Estimate(scanStartSCN, flushedSCN, flushedBytes int64) Estimate {
	if e == nil {
		return Estimate{}
	}
	n := flushedSCN - scanStartSCN + 1
	if n < 0 {
		n = 0
	}
	var avg float64
	if flushedSCN > 0 && flushedBytes > 0 {
		avg = float64(flushedBytes) / float64(flushedSCN)
	}
	bytes := int64(float64(n) * avg)
	return Estimate{
		Valid:        true,
		ScanRecords:  n,
		RedoBytes:    bytes,
		RedoReplay:   e.PredictReplay(n, bytes),
		Total:        e.PredictTotal(n, bytes),
		Calibrations: e.calibrations,
	}
}

// RecoveryObservation is one completed recovery's measured redo-replay
// phase, as the recovery manager reports it.
type RecoveryObservation struct {
	// RedoReplay is the measured phase duration.
	RedoReplay time.Duration
	// Scanned/Applied/Bytes are the phase's record counts and applied
	// byte volume.
	Scanned int
	Applied int
	Bytes   int64
	// Workers is the fan-out the phase ran at.
	Workers int
}

// Observe calibrates the per-record cost from a measured phase: the
// scan-side disk cost is subtracted and the remainder attributed evenly
// to the scanned records, then folded into the fit with an exponential
// moving average. Observations are clamped to a plausible band around
// the cost-model prior so one odd phase (e.g. an archive-heavy scan)
// cannot wreck the fit.
func (e *Estimator) Observe(obs RecoveryObservation) {
	if e == nil || obs.Scanned <= 0 || obs.RedoReplay <= 0 {
		return
	}
	disk := e.m.SeekOverhead.Seconds() + float64(obs.Bytes)/float64(e.m.ScanBytesPerSec)
	cpu := obs.RedoReplay.Seconds() - disk
	if cpu < 0 {
		cpu = 0
	}
	x := cpu / float64(obs.Scanned)
	full := e.m.ApplyPerRecord.Seconds()
	if lo := full / 16; x < lo {
		x = lo
	}
	if hi := full * 4; x > hi {
		x = hi
	}
	if e.calibrations == 0 {
		e.fitted = x
	} else {
		e.fitted = 0.5*e.fitted + 0.5*x
	}
	e.calibrations++
}
