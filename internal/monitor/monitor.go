// Package monitor implements the engine's MMON-style workload
// repository: a bounded, deterministic time-series of metric samples
// taken on the simulation's virtual clock.
//
// The paper's whole argument is a trade-off curve — recovery time versus
// throughput across checkpoint/redo configurations — but measuring the
// recovery side traditionally requires running a fault. The repository is
// the continuous-sensing alternative: a background sampler process (the
// engine's MMON) snapshots the instance's counter registry every
// SampleInterval of virtual time, folds in gauge probes (dirty-buffer
// depth, checkpoint lag, per-tablespace offline time), and maintains a
// live recovery-time estimate — "if the instance crashed at this instant,
// redo replay would cost ~X seconds" (see Estimator). Everything is
// driven by virtual time and registration-order iteration, so the sample
// stream is byte-identical across reruns of the same seed.
//
// A nil *Repository is valid and free: every method is nil-safe and the
// disabled hot paths allocate nothing, the same contract as the trace
// package's nil Tracer.
package monitor

import (
	"encoding/binary"
	"hash/fnv"

	"dbench/internal/sim"
	"dbench/internal/trace"
)

// DefaultDepth bounds every repository: at the default one-second sample
// interval it retains over an hour of virtual time, far beyond any
// campaign's run length. When the ring is full the oldest sample is
// evicted (and counted in Dropped).
const DefaultDepth = 4096

// Gauge is one point-in-time measurement supplied by a probe: unlike the
// registry's counters, gauges can move both ways (dirty-buffer depth) or
// appear and disappear (per-tablespace offline time).
type Gauge struct {
	Name  string
	Value int64
}

// probe is a registered single-value gauge closure.
type probe struct {
	name string
	fn   func() int64
}

// MultiProbe emits a dynamic gauge set at sample time (e.g. one
// ts.offline_ns.<name> gauge per currently-offline tablespace). Emission
// order must be deterministic — callers sort before emitting.
type MultiProbe func(emit func(name string, v int64))

// Sample is one MMON tick: the full counter registry, every gauge, and
// the recovery-time estimate, frozen at one virtual instant.
type Sample struct {
	// Seq numbers samples from 0 monotonically; it keeps counting when
	// the ring evicts, so Seq identifies a sample across exports even
	// after the early ones are gone.
	Seq int
	// At is the virtual sample instant.
	At sim.Time
	// Counters is the registry snapshot, in registration order.
	Counters []trace.CounterSnapshot
	// Gauges holds the probe results: fixed probes in registration
	// order, then multi-probe emissions.
	Gauges []Gauge
	// Estimate is the live recovery-time estimate at this instant
	// (Valid=false when no estimator is bound).
	Estimate Estimate
}

// Gauge returns the named gauge value, or 0 when absent.
func (s *Sample) Gauge(name string) int64 {
	for i := range s.Gauges {
		if s.Gauges[i].Name == name {
			return s.Gauges[i].Value
		}
	}
	return 0
}

// Counter returns the named counter value, or 0 when absent.
func (s *Sample) Counter(name string) int64 {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Value
		}
	}
	return 0
}

// Repository is the bounded in-memory workload repository. It is not
// safe for host-level concurrency, matching the rest of the simulation:
// the kernel runs exactly one process at a time.
type Repository struct {
	depth  int
	reg    *trace.Registry
	probes []probe
	multi  []MultiProbe
	est    *Estimator
	// estInputs supplies the estimator's instantaneous inputs: the SCN
	// recovery would scan from if the instance crashed now, the flushed
	// SCN it would scan to, and the total flushed byte count (for the
	// average record size).
	estInputs func() (scanStartSCN, flushedSCN, flushedBytes int64)

	ring    []Sample
	head, n int
	seq     int
	dropped int

	// cur/emit let multi-probes append into the in-progress sample via a
	// closure allocated once at construction, keeping the steady-state
	// Sample path allocation-free.
	cur  *Sample
	emit func(name string, v int64)
}

// New returns an empty repository of DefaultDepth samples.
func New() *Repository { return newRepository(DefaultDepth) }

// newRepository returns an empty repository retaining at most depth
// samples (the ring-eviction tests build shallow ones).
func newRepository(depth int) *Repository {
	r := &Repository{depth: depth}
	r.emit = func(name string, v int64) {
		r.cur.Gauges = append(r.cur.Gauges, Gauge{Name: name, Value: v})
	}
	return r
}

// Bind attaches the counter registry snapshots are taken from. The
// engine calls it once at instance construction.
func (r *Repository) Bind(reg *trace.Registry) {
	if r == nil {
		return
	}
	r.reg = reg
}

// AddProbe registers a named gauge closure, sampled on every tick in
// registration order.
func (r *Repository) AddProbe(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.probes = append(r.probes, probe{name: name, fn: fn})
}

// AddMultiProbe registers a dynamic gauge emitter, sampled after the
// fixed probes.
func (r *Repository) AddMultiProbe(fn MultiProbe) {
	if r == nil {
		return
	}
	r.multi = append(r.multi, fn)
}

// SetEstimator binds the recovery-time estimator and its input closure;
// every subsequent sample carries a live estimate.
func (r *Repository) SetEstimator(e *Estimator, inputs func() (scanStartSCN, flushedSCN, flushedBytes int64)) {
	if r == nil {
		return
	}
	r.est = e
	r.estInputs = inputs
}

// Estimator returns the bound estimator (nil when none, or on a nil
// repository).
func (r *Repository) Estimator() *Estimator {
	if r == nil {
		return nil
	}
	return r.est
}

// ObserveRecovery calibrates the bound estimator from a completed
// recovery's measured redo-replay phase. Nil-safe: the recovery manager
// calls it unconditionally.
func (r *Repository) ObserveRecovery(obs RecoveryObservation) {
	if r == nil || r.est == nil {
		return
	}
	r.est.Observe(obs)
}

// Sample takes one snapshot at the given virtual instant. When the ring
// is full the oldest sample's slot (and its slices) is reused, so a
// steady-state sampler does not grow the heap. Nil-safe and free when
// the repository is disabled.
func (r *Repository) Sample(now sim.Time) {
	if r == nil {
		return
	}
	var s *Sample
	if r.n < r.depth {
		r.ring = append(r.ring, Sample{})
		s = &r.ring[r.n]
		r.n++
	} else {
		s = &r.ring[r.head]
		r.head = (r.head + 1) % r.depth
		r.dropped++
	}
	s.Seq = r.seq
	r.seq++
	s.At = now
	if r.reg != nil {
		s.Counters = r.reg.SnapshotInto(s.Counters[:0])
	} else {
		s.Counters = s.Counters[:0]
	}
	s.Gauges = s.Gauges[:0]
	for i := range r.probes {
		s.Gauges = append(s.Gauges, Gauge{Name: r.probes[i].name, Value: r.probes[i].fn()})
	}
	r.cur = s
	for _, m := range r.multi {
		m(r.emit)
	}
	r.cur = nil
	s.Estimate = Estimate{}
	if r.est != nil && r.estInputs != nil {
		start, flushed, bytes := r.estInputs()
		s.Estimate = r.est.Estimate(start, flushed, bytes)
	}
}

// Len returns the number of retained samples.
func (r *Repository) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Depth returns the configured ring bound.
func (r *Repository) Depth() int {
	if r == nil {
		return 0
	}
	return r.depth
}

// Dropped counts samples evicted by the ring bound.
func (r *Repository) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// At returns the i-th retained sample, oldest first (i in [0, Len)).
// The pointer is into the ring: it is invalidated by the next Sample.
func (r *Repository) At(i int) *Sample {
	return &r.ring[(r.head+i)%r.depth]
}

// First returns the oldest retained sample, if any.
func (r *Repository) First() (Sample, bool) {
	if r.Len() == 0 {
		return Sample{}, false
	}
	return *r.At(0), true
}

// Last returns the most recent sample, if any. Nil-safe: the chaos
// harness reads the pre-crash estimate through it unconditionally.
func (r *Repository) Last() (Sample, bool) {
	if r.Len() == 0 {
		return Sample{}, false
	}
	return *r.At(r.n - 1), true
}

// Rate returns the named counter's (or cumulative gauge's) per-second
// rate between the last two samples. ok is false with fewer than two
// samples, a zero interval, or an unknown name.
func (r *Repository) Rate(name string) (perSec float64, ok bool) {
	if r.Len() < 2 {
		return 0, false
	}
	a, b := r.At(r.n-2), r.At(r.n-1)
	dt := b.At.Sub(a.At).Seconds()
	if dt <= 0 {
		return 0, false
	}
	for i := range b.Counters {
		if b.Counters[i].Name == name {
			return float64(b.Counters[i].Value-a.Counter(name)) / dt, true
		}
	}
	for i := range b.Gauges {
		if b.Gauges[i].Name == name {
			return float64(b.Gauges[i].Value-a.Gauge(name)) / dt, true
		}
	}
	return 0, false
}

// Hash condenses every retained sample — sequence numbers, timestamps,
// counters, gauges and estimates — into one FNV-1a value. The chaos
// harness folds it into the per-point determinism fingerprint, so a
// divergence anywhere in the metric stream fails the determinism
// invariant even when the final database state agrees.
func (r *Repository) Hash() uint64 {
	if r == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(r.seq))
	writeInt(int64(r.dropped))
	for i := 0; i < r.n; i++ {
		s := r.At(i)
		writeInt(int64(s.Seq))
		writeInt(int64(s.At))
		for _, c := range s.Counters {
			h.Write([]byte(c.Name))
			writeInt(c.Value)
		}
		for _, g := range s.Gauges {
			h.Write([]byte(g.Name))
			writeInt(g.Value)
		}
		writeInt(int64(s.Estimate.ScanRecords))
		writeInt(s.Estimate.RedoBytes)
		writeInt(int64(s.Estimate.RedoReplay))
		writeInt(int64(s.Estimate.Total))
		if s.Estimate.Valid {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}
