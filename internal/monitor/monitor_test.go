package monitor

import (
	"testing"
	"time"

	"dbench/internal/sim"
	"dbench/internal/trace"
)

// fixtureCounters is the synthetic registry's storage.
type fixtureCounters struct{ commits, redoBytes int64 }

// fixtureRepo builds a small repository over a synthetic registry with
// two counters, one fixed probe, one multi-probe and a bound estimator,
// then advances it through n samples with a deterministic workload shape.
// The commits counter advances 10/tick and redo 5000 bytes/tick so rates
// and diffs have known values.
func fixtureRepo(depth, n int) (*Repository, *fixtureCounters) {
	fc := &fixtureCounters{}
	reg := trace.NewRegistry()
	reg.Register([]trace.Counter{
		{Name: "txn.committed", V: &fc.commits},
		{Name: "redo.flushed_bytes", V: &fc.redoBytes},
	}...)
	r := newRepository(depth)
	r.Bind(reg)
	dirty := int64(0)
	r.AddProbe("cache.dirty", func() int64 { return dirty })
	offline := map[string]int64{}
	r.AddMultiProbe(func(emit func(string, int64)) {
		// Single key keeps emission order trivially deterministic.
		if v, ok := offline["users"]; ok {
			emit("ts.offline_ns.users", v)
		}
	})
	flushed := int64(0)
	est := NewEstimator(Model{
		ApplyPerRecord:  110 * time.Microsecond,
		ScanBytesPerSec: 20 << 20,
		SeekOverhead:    9 * time.Millisecond,
		MountOverhead:   time.Second,
		Parallel:        1,
	})
	r.SetEstimator(est, func() (int64, int64, int64) {
		return 1, flushed, fc.redoBytes
	})
	for i := 0; i < n; i++ {
		fc.commits += 10
		fc.redoBytes += 5000
		flushed += 10
		dirty = int64(i % 7)
		if i%2 == 1 {
			offline["users"] = int64(i) * 1e6
		} else {
			delete(offline, "users")
		}
		r.Sample(sim.Time(i+1) * sim.Time(time.Second))
	}
	return r, fc
}

func TestRepositoryRingEviction(t *testing.T) {
	r, _ := fixtureRepo(4, 10)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	first, _ := r.First()
	last, _ := r.Last()
	if first.Seq != 6 || last.Seq != 9 {
		t.Errorf("retained window [%d..%d], want [6..9]", first.Seq, last.Seq)
	}
	// Oldest-first iteration must stay monotone across the wrap.
	for i := 1; i < r.Len(); i++ {
		if r.At(i).Seq != r.At(i-1).Seq+1 {
			t.Fatalf("sample order broken at %d: %d then %d", i, r.At(i-1).Seq, r.At(i).Seq)
		}
	}
}

func TestRepositorySampleContents(t *testing.T) {
	r, _ := fixtureRepo(16, 3)
	last, ok := r.Last()
	if !ok {
		t.Fatal("no samples")
	}
	if got := last.Counter("txn.committed"); got != 30 {
		t.Errorf("txn.committed = %d, want 30", got)
	}
	if got := last.Counter("redo.flushed_bytes"); got != 15000 {
		t.Errorf("redo.flushed_bytes = %d, want 15000", got)
	}
	if got := last.Gauge("cache.dirty"); got != 2 {
		t.Errorf("cache.dirty = %d, want 2", got)
	}
	// i=2 is even: the multi-probe gauge must be absent (reads as 0).
	if got := last.Gauge("ts.offline_ns.users"); got != 0 {
		t.Errorf("ts.offline_ns.users = %d, want 0 (absent)", got)
	}
	if !last.Estimate.Valid {
		t.Fatal("estimate not valid with estimator bound")
	}
	if last.Estimate.ScanRecords != 30 {
		t.Errorf("ScanRecords = %d, want 30", last.Estimate.ScanRecords)
	}
	if got := last.Counter("nope"); got != 0 {
		t.Errorf("unknown counter = %d, want 0", got)
	}
}

func TestRepositoryRate(t *testing.T) {
	r, _ := fixtureRepo(16, 4)
	if v, ok := r.Rate("txn.committed"); !ok || v != 10 {
		t.Errorf("Rate(txn.committed) = %v,%v, want 10,true", v, ok)
	}
	if v, ok := r.Rate("redo.flushed_bytes"); !ok || v != 5000 {
		t.Errorf("Rate(redo.flushed_bytes) = %v,%v, want 5000,true", v, ok)
	}
	// Gauge rate: dirty goes 2 -> 3 over one second.
	if v, ok := r.Rate("cache.dirty"); !ok || v != 1 {
		t.Errorf("Rate(cache.dirty) = %v,%v, want 1,true", v, ok)
	}
	if _, ok := r.Rate("nope"); ok {
		t.Error("Rate(nope) ok, want false")
	}
	one, _ := fixtureRepo(16, 1)
	if _, ok := one.Rate("txn.committed"); ok {
		t.Error("Rate with one sample ok, want false")
	}
}

func TestRepositoryHashDeterministicAndSensitive(t *testing.T) {
	a, _ := fixtureRepo(8, 6)
	b, _ := fixtureRepo(8, 6)
	if a.Hash() != b.Hash() {
		t.Fatalf("identical runs hash differently: %#x vs %#x", a.Hash(), b.Hash())
	}
	c, _ := fixtureRepo(8, 7)
	if a.Hash() == c.Hash() {
		t.Error("extra sample did not change the hash")
	}
	// A single counter divergence must flip the hash.
	d, dc := fixtureRepo(8, 6)
	dc.commits++
	d.Sample(sim.Time(100) * sim.Time(time.Second))
	e, ec := fixtureRepo(8, 6)
	ec.commits += 2
	e.Sample(sim.Time(100) * sim.Time(time.Second))
	if d.Hash() == e.Hash() {
		t.Error("counter divergence did not change the hash")
	}
}

func TestRepositoryNilSafe(t *testing.T) {
	var r *Repository
	r.Bind(nil)
	r.AddProbe("x", func() int64 { return 1 })
	r.AddMultiProbe(func(emit func(string, int64)) {})
	r.SetEstimator(nil, nil)
	r.ObserveRecovery(RecoveryObservation{})
	r.Sample(0)
	if r.Len() != 0 || r.Depth() != 0 || r.Dropped() != 0 {
		t.Error("nil repository reports non-zero sizes")
	}
	if _, ok := r.Last(); ok {
		t.Error("nil repository has a last sample")
	}
	if _, ok := r.First(); ok {
		t.Error("nil repository has a first sample")
	}
	if _, ok := r.Rate("x"); ok {
		t.Error("nil repository has a rate")
	}
	if r.Hash() != 0 {
		t.Errorf("nil repository Hash = %#x, want 0", r.Hash())
	}
	if r.Estimator() != nil {
		t.Error("nil repository has an estimator")
	}
}

func TestRepositorySlotReuseNoGrowth(t *testing.T) {
	r, _ := fixtureRepo(4, 4) // fill the ring exactly
	allocs := testing.AllocsPerRun(100, func() {
		r.Sample(sim.Time(3600) * sim.Time(time.Second))
	})
	// Steady-state sampling reuses ring slots and their slices; the only
	// tolerated allocation would be map iteration noise, and there is none.
	if allocs > 0 {
		t.Errorf("steady-state Sample allocates %.1f/op, want 0", allocs)
	}
}

func TestEstimatorColdPrior(t *testing.T) {
	e := NewEstimator(Model{
		ApplyPerRecord:  100 * time.Microsecond,
		ScanBytesPerSec: 1 << 20,
		SeekOverhead:    10 * time.Millisecond,
		MountOverhead:   2 * time.Second,
		Parallel:        2,
	})
	// 1000 records, 1MB flushed over 1000 SCNs -> avg 1049B -> ~1MB scan.
	est := e.Estimate(1, 1000, 1<<20)
	if !est.Valid {
		t.Fatal("estimate not valid")
	}
	if est.ScanRecords != 1000 {
		t.Errorf("ScanRecords = %d, want 1000", est.ScanRecords)
	}
	// scan = 10ms + 1MB/1MBps = 1.01s; apply = 1000 * (0.55*100µs/2) = 27.5ms
	want := 10*time.Millisecond + time.Second + 1000*time.Duration(0.55*100_000/2)*time.Nanosecond
	if diff := est.RedoReplay - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("RedoReplay = %v, want ~%v", est.RedoReplay, want)
	}
	if est.Total != est.RedoReplay+2*time.Second {
		t.Errorf("Total = %v, want RedoReplay+2s", est.Total)
	}
	if est.Calibrations != 0 {
		t.Errorf("Calibrations = %d, want 0", est.Calibrations)
	}
}

func TestEstimatorEmptyWindow(t *testing.T) {
	e := NewEstimator(Model{ApplyPerRecord: 100 * time.Microsecond, MountOverhead: time.Second})
	est := e.Estimate(11, 10, 5000) // start beyond flushed: nothing to scan
	if est.ScanRecords != 0 || est.RedoReplay != 0 {
		t.Errorf("empty window: records=%d replay=%v, want 0,0", est.ScanRecords, est.RedoReplay)
	}
	if est.Total != time.Second {
		t.Errorf("empty window Total = %v, want the mount overhead alone", est.Total)
	}
}

func TestEstimatorObserveCalibrates(t *testing.T) {
	m := Model{
		ApplyPerRecord:  100 * time.Microsecond,
		ScanBytesPerSec: 1 << 30, // disk cost negligible
		Parallel:        1,
	}
	e := NewEstimator(m)
	// Measured: 1000 records in 50ms CPU -> 50µs/record.
	e.Observe(RecoveryObservation{RedoReplay: 50 * time.Millisecond, Scanned: 1000})
	if e.Calibrations() != 1 {
		t.Fatalf("Calibrations = %d, want 1", e.Calibrations())
	}
	est := e.Estimate(1, 1000, 0)
	want := 1000 * 50 * time.Microsecond
	if diff := est.RedoReplay - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("calibrated RedoReplay = %v, want ~%v", est.RedoReplay, want)
	}
	// Second observation folds in with 0.5/0.5 EWMA: 50µs, 100µs -> 75µs.
	e.Observe(RecoveryObservation{RedoReplay: 100 * time.Millisecond, Scanned: 1000})
	est = e.Estimate(1, 1000, 0)
	want = 1000 * 75 * time.Microsecond
	if diff := est.RedoReplay - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("EWMA RedoReplay = %v, want ~%v", est.RedoReplay, want)
	}
}

func TestEstimatorObserveClamps(t *testing.T) {
	m := Model{ApplyPerRecord: 100 * time.Microsecond, ScanBytesPerSec: 1 << 30, Parallel: 1}
	// Absurdly slow phase: clamped to 4x the full apply cost.
	e := NewEstimator(m)
	e.Observe(RecoveryObservation{RedoReplay: time.Hour, Scanned: 10})
	est := e.Estimate(1, 10, 0)
	if want := 10 * 400 * time.Microsecond; est.RedoReplay > want+time.Millisecond {
		t.Errorf("slow-phase fit %v exceeds 4x clamp %v", est.RedoReplay, want)
	}
	// Absurdly fast phase: clamped to 1/16 the full apply cost.
	e = NewEstimator(m)
	e.Observe(RecoveryObservation{RedoReplay: time.Nanosecond, Scanned: 1000})
	est = e.Estimate(1, 1000, 0)
	if want := 1000 * time.Duration(100_000.0/16) * time.Nanosecond; est.RedoReplay < want-time.Millisecond {
		t.Errorf("fast-phase fit %v below 1/16 clamp %v", est.RedoReplay, want)
	}
	// Garbage observations are ignored.
	e = NewEstimator(m)
	e.Observe(RecoveryObservation{RedoReplay: 0, Scanned: 100})
	e.Observe(RecoveryObservation{RedoReplay: time.Second, Scanned: 0})
	if e.Calibrations() != 0 {
		t.Errorf("garbage observations calibrated: %d", e.Calibrations())
	}
	// Nil estimator: everything is a no-op.
	var nilE *Estimator
	nilE.Observe(RecoveryObservation{RedoReplay: time.Second, Scanned: 1})
	if nilE.Calibrations() != 0 {
		t.Error("nil estimator calibrated")
	}
	if est := nilE.Estimate(1, 10, 0); est.Valid {
		t.Error("nil estimator produced a valid estimate")
	}
}

func BenchmarkSamplerTick(b *testing.B) {
	r, _ := fixtureRepo(64, 64) // steady state: ring full, slots reused
	now := sim.Time(1000) * sim.Time(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Sample(now + sim.Time(i))
	}
}

// BenchmarkSamplerDisabled pins the disabled-state contract: with no
// repository configured the per-tick cost is a nil check — zero
// allocations, a handful of nanoseconds.
func BenchmarkSamplerDisabled(b *testing.B) {
	var r *Repository
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Sample(sim.Time(i))
	}
}
