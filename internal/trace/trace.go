// Package trace is the simulator's structured, virtual-time event bus.
//
// Subsystems emit spans (Begin/End with parent linkage) and instant
// events into a Tracer; each event carries the sim.Time virtual clock, a
// category (lgwr, dbwr, ckpt, arch, recovery, txn, fault, ctl), and up
// to MaxAttrs key/value attributes. A Tracer fans events out to a Sink —
// an in-memory ring for tests, a Chrome trace_event JSON exporter for
// chrome://tracing / Perfetto, a recovery-timeline text report, or an
// FNV-1a hash used by the chaos harness as a determinism oracle.
//
// Two properties are load-bearing:
//
//   - Zero allocation when disabled. Every emit method is nil-safe and
//     returns before touching its arguments when the Tracer or its sink
//     is nil, and attribute slices are only copied element-wise, so the
//     variadic slice never escapes and callers pay nothing when tracing
//     is off (benchmarked in bench_test.go at the repo root).
//
//   - Determinism. Emitting never touches the simulation kernel (no
//     sleeps, no RNG, no wall clock), timestamps are the caller's
//     explicit sim.Time, and span IDs are a per-Tracer counter — so the
//     event stream of a seeded run is byte-identical across reruns.
//
// The package is single-goroutine by design, matching the simulation
// kernel's exactly-one-process-runs-at-a-time discipline: a Tracer (and
// its counters) must only be used from the goroutines of one kernel.
package trace

import "dbench/internal/sim"

// Category classifies an event by the subsystem that emitted it.
type Category uint8

const (
	CatEngine Category = iota + 1
	CatLGWR
	CatDBWR
	CatCkpt
	CatArch
	CatRecovery
	CatTxn
	CatFault
	// CatChaos has no emitter left, but keeps its value: HashSink folds
	// the category byte into every chaos fingerprint, so renumbering
	// CatCtl would move them all.
	CatChaos
	CatCtl
)

// Categories lists every category in declaration order.
var Categories = []Category{
	CatEngine, CatLGWR, CatDBWR, CatCkpt, CatArch,
	CatRecovery, CatTxn, CatFault, CatChaos, CatCtl,
}

func (c Category) String() string {
	switch c {
	case CatEngine:
		return "engine"
	case CatLGWR:
		return "lgwr"
	case CatDBWR:
		return "dbwr"
	case CatCkpt:
		return "ckpt"
	case CatArch:
		return "arch"
	case CatRecovery:
		return "recovery"
	case CatTxn:
		return "txn"
	case CatFault:
		return "fault"
	case CatChaos:
		return "chaos"
	case CatCtl:
		return "ctl"
	}
	return "unknown"
}

// Attr is one key/value attribute on an event: either an int64 or a
// string payload, chosen by IsStr. The flat struct (no interface{})
// keeps attribute passing allocation-free.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// I builds an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// S builds a string attribute.
func S(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// Kind distinguishes complete spans from instant events.
type Kind uint8

const (
	KindSpan    Kind = iota + 1 // a closed Begin/End pair: Start + Dur
	KindInstant                 // a point event at Start
)

// MaxAttrs is the attribute capacity of one event; extras are dropped.
const MaxAttrs = 4

// SpanID identifies an open span. 0 is the zero/disabled ID: Begin on a
// disabled Tracer returns 0 and End(., 0) is a no-op, so callers never
// need to branch on whether tracing is on.
type SpanID uint64

// Event is one emitted record, passed to sinks by value. Spans are
// emitted once, at End time, already closed (Start + Dur) — sinks never
// pair begin/end markers.
type Event struct {
	Kind   Kind
	Cat    Category
	Name   string
	Track  string       // display track / Chrome thread (e.g. "LGWR")
	Start  sim.Time     // virtual timestamp (span start or instant time)
	Dur    sim.Duration // span duration; 0 for instants
	ID     SpanID       // span ID; 0 for instants
	Parent SpanID       // enclosing span, 0 if top-level
	NAttrs int
	Attrs  [MaxAttrs]Attr
}

// Sink receives completed events. Implementations must not retain
// pointers into the event (it is a value; retaining a copy is fine).
type Sink interface {
	Emit(ev Event)
}

// openSpan is the state held between Begin and End.
type openSpan struct {
	cat    Category
	name   string
	track  string
	start  sim.Time
	parent SpanID
	nattrs int
	attrs  [MaxAttrs]Attr
}

// Tracer is the event bus handle subsystems emit into. A nil *Tracer is
// a valid, permanently-disabled tracer; all methods are nil-safe.
type Tracer struct {
	sink   Sink
	nextID SpanID
	open   map[SpanID]openSpan
}

// New returns a Tracer emitting into sink. A nil sink yields a disabled
// (but non-nil) tracer.
func New(sink Sink) *Tracer {
	return &Tracer{sink: sink, open: make(map[SpanID]openSpan)}
}

// Enabled reports whether emitted events reach a sink.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Instant emits a point event at virtual time `at`.
func (t *Tracer) Instant(at sim.Time, cat Category, track, name string, attrs ...Attr) {
	if t == nil || t.sink == nil {
		return
	}
	ev := Event{Kind: KindInstant, Cat: cat, Name: name, Track: track, Start: at}
	ev.NAttrs = copy(ev.Attrs[:], attrs)
	t.sink.Emit(ev)
}

// Begin opens a top-level span at virtual time `at` and returns its ID
// (0 when disabled).
func (t *Tracer) Begin(at sim.Time, cat Category, track, name string, attrs ...Attr) SpanID {
	return t.BeginChild(at, cat, track, name, 0, attrs...)
}

// BeginChild opens a span nested under parent. The span is emitted as a
// single complete event when End is called.
func (t *Tracer) BeginChild(at sim.Time, cat Category, track, name string, parent SpanID, attrs ...Attr) SpanID {
	if t == nil || t.sink == nil {
		return 0
	}
	t.nextID++
	id := t.nextID
	sp := openSpan{cat: cat, name: name, track: track, start: at, parent: parent}
	sp.nattrs = copy(sp.attrs[:], attrs)
	t.open[id] = sp
	return id
}

// End closes span id at virtual time `at`, appending any extra attrs to
// those given at Begin, and emits the complete span. Ending an unknown
// or zero ID is a no-op.
func (t *Tracer) End(at sim.Time, id SpanID, attrs ...Attr) {
	if t == nil || t.sink == nil || id == 0 {
		return
	}
	sp, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	ev := Event{
		Kind:  KindSpan,
		Cat:   sp.cat,
		Name:  sp.name,
		Track: sp.track,
		Start: sp.start,
		Dur:   at.Sub(sp.start),
		ID:    id, Parent: sp.parent,
		NAttrs: sp.nattrs,
		Attrs:  sp.attrs,
	}
	for _, a := range attrs {
		if ev.NAttrs >= MaxAttrs {
			break
		}
		ev.Attrs[ev.NAttrs] = a
		ev.NAttrs++
	}
	t.sink.Emit(ev)
}

// OpenSpans reports how many spans are begun but not yet ended (crashed
// processes may abandon spans; the count is bounded by instrumentation
// sites, not workload).
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// multiSink fans one event out to several sinks in order.
type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// MultiSink combines sinks into one; nil entries are dropped. With zero
// live sinks it returns nil (a disabled tracer), with one it returns
// that sink unwrapped.
func MultiSink(sinks ...Sink) Sink {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
