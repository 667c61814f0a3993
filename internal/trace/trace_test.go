package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dbench/internal/sim"
)

func at(s int) sim.Time { return sim.Time(time.Duration(s) * time.Second) }

// A nil *Tracer (and a Tracer with a nil sink) must accept every call,
// return the disabled SpanID, and allocate nothing.
func TestDisabledTracerIsNoOpAndAllocationFree(t *testing.T) {
	for name, tr := range map[string]*Tracer{"nil": nil, "nil-sink": New(nil)} {
		if tr.Enabled() {
			t.Errorf("%s: Enabled() = true", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			id := tr.Begin(at(1), CatLGWR, "LGWR", "flush", I("bytes", 42))
			tr.Instant(at(2), CatDBWR, "DBWR", "evict", S("file", "x.dbf"), I("block", 7))
			tr.End(at(3), id, I("scn", 9))
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op when disabled, want 0", name, allocs)
		}
		if id := tr.Begin(at(1), CatEngine, "engine", "x"); id != 0 {
			t.Errorf("%s: disabled Begin returned span %d, want 0", name, id)
		}
		if n := tr.OpenSpans(); n != 0 {
			t.Errorf("%s: OpenSpans = %d, want 0", name, n)
		}
	}
}

func TestSpanLifecycle(t *testing.T) {
	rs := &RingSink{}
	tr := New(rs)
	if !tr.Enabled() {
		t.Fatal("Enabled() = false with a live sink")
	}

	root := tr.Begin(at(1), CatRecovery, "recovery", "recovery:instance", I("a", 1))
	child := tr.BeginChild(at(2), CatRecovery, "recovery", "redo replay", root)
	if root == 0 || child == 0 || root == child {
		t.Fatalf("bad span IDs: root=%d child=%d", root, child)
	}
	if n := tr.OpenSpans(); n != 2 {
		t.Fatalf("OpenSpans = %d, want 2", n)
	}
	tr.Instant(at(3), CatFault, "fault", "inject", S("fault", "Shutdown abort"))
	tr.End(at(4), child, I("records", 12))
	tr.End(at(5), root, I("b", 2))
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("OpenSpans = %d after both Ends, want 0", n)
	}

	evs := rs.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (instant, child span, root span)", len(evs))
	}
	// Spans are emitted at End time, so the instant comes first.
	if evs[0].Kind != KindInstant || evs[0].Name != "inject" {
		t.Errorf("event 0 = %+v, want the inject instant", evs[0])
	}
	ch := evs[1]
	if ch.Kind != KindSpan || ch.Name != "redo replay" || ch.Parent != root {
		t.Errorf("child span = %+v, want name=redo replay parent=%d", ch, root)
	}
	if ch.Start != at(2) || ch.Dur != 2*time.Second {
		t.Errorf("child span time = start %v dur %v, want start 2s dur 2s", ch.Start, ch.Dur)
	}
	// Attrs given at End append to those given at Begin.
	rt := evs[2]
	if rt.NAttrs != 2 || rt.Attrs[0].Key != "a" || rt.Attrs[1].Key != "b" {
		t.Errorf("root attrs = %v (n=%d), want [a b]", rt.Attrs, rt.NAttrs)
	}

	// Ending an unknown or zero ID must be a no-op, not a panic.
	tr.End(at(6), 0)
	tr.End(at(6), 9999)
	if rs.Total() != 3 {
		t.Errorf("no-op Ends emitted events: total = %d, want 3", rs.Total())
	}
}

func TestEndAttrOverflowIsDropped(t *testing.T) {
	rs := &RingSink{}
	tr := New(rs)
	id := tr.Begin(at(1), CatCkpt, "CKPT", "checkpoint", I("a", 1), I("b", 2), I("c", 3))
	tr.End(at(2), id, I("d", 4), I("e", 5)) // e exceeds MaxAttrs
	ev := rs.Events()[0]
	if ev.NAttrs != MaxAttrs {
		t.Fatalf("NAttrs = %d, want %d", ev.NAttrs, MaxAttrs)
	}
	if ev.Attrs[MaxAttrs-1].Key != "d" {
		t.Errorf("last attr = %q, want d (e dropped)", ev.Attrs[MaxAttrs-1].Key)
	}
}

// Emitting with attribute arguments must not allocate even when enabled:
// the variadic slice is copied element-wise into the event's fixed array.
func TestEnabledEmitDoesNotAllocatePerAttr(t *testing.T) {
	rs := &RingSink{Cap: 4}
	tr := New(rs)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Instant(at(1), CatLGWR, "redo", "reserve stall", I("bytes", 128), I("wait_ns", 5))
	})
	// The ring sink itself retains nothing new once warmed up; one event
	// value is copied into pre-grown storage.
	if allocs > 0 {
		t.Errorf("enabled Instant = %v allocs/op, want 0", allocs)
	}
}

func TestRingSinkWraps(t *testing.T) {
	rs := &RingSink{Cap: 3}
	for i := 0; i < 5; i++ {
		rs.Emit(Event{Kind: KindInstant, Start: at(i)})
	}
	if rs.Total() != 5 {
		t.Errorf("Total = %d, want 5", rs.Total())
	}
	evs := rs.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := at(i + 2); ev.Start != want {
			t.Errorf("event %d start = %v, want %v (oldest evicted first)", i, ev.Start, want)
		}
	}
}

func TestHashSinkIsOrderAndPayloadSensitive(t *testing.T) {
	mk := func(evs ...Event) uint64 {
		hs := NewHashSink()
		for _, ev := range evs {
			hs.Emit(ev)
		}
		return hs.Sum()
	}
	a := Event{Kind: KindInstant, Cat: CatLGWR, Name: "flush", Track: "LGWR", Start: at(1)}
	b := Event{Kind: KindInstant, Cat: CatDBWR, Name: "evict", Track: "DBWR", Start: at(2)}

	if mk(a, b) != mk(a, b) {
		t.Error("same stream hashed differently")
	}
	if mk(a, b) == mk(b, a) {
		t.Error("hash blind to emission order")
	}
	shifted := a
	shifted.Start++
	if mk(a) == mk(shifted) {
		t.Error("hash blind to a 1ns timestamp shift")
	}
	attr := a
	attr.NAttrs = 1
	attr.Attrs[0] = I("bytes", 1)
	attr2 := attr
	attr2.Attrs[0].Int = 2
	if mk(attr) == mk(attr2) {
		t.Error("hash blind to an attribute value change")
	}
	hs := NewHashSink()
	hs.Emit(a)
	if hs.Count() != 1 {
		t.Errorf("Count = %d, want 1", hs.Count())
	}
}

func TestChromeSinkProducesValidDeterministicJSON(t *testing.T) {
	render := func() string {
		cs := NewChromeSink()
		tr := New(cs)
		id := tr.Begin(at(1), CatRecovery, "recovery", "recovery:instance")
		ch := tr.BeginChild(at(1), CatRecovery, "recovery", "redo replay", id)
		tr.Instant(at(2), CatFault, "fault", "inject", S("fault", `Delete "datafile"`), I("pre_scn", 7))
		tr.End(at(3), ch, I("records", 5))
		tr.End(at(4), id)
		var buf bytes.Buffer
		if _, err := cs.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	doc := render()
	var records []map[string]any
	if err := json.Unmarshal([]byte(doc), &records); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, doc)
	}
	// 2 thread_name metadata (recovery, fault) + 1 instant + 2 spans.
	if len(records) != 5 {
		t.Fatalf("got %d records, want 5:\n%s", len(records), doc)
	}
	phases := map[string]int{}
	for _, r := range records {
		phases[r["ph"].(string)]++
	}
	if phases["M"] != 2 || phases["X"] != 2 || phases["i"] != 1 {
		t.Errorf("record mix = %v, want 2 M, 2 X, 1 i", phases)
	}
	for _, r := range records {
		if r["ph"] == "X" && r["name"] == "redo replay" {
			// 1 s virtual = 1e6 µs in the trace timebase, ns precision.
			if ts := r["ts"].(float64); ts != 1e6 {
				t.Errorf("child ts = %v, want 1e6 µs", ts)
			}
			if dur := r["dur"].(float64); dur != 2e6 {
				t.Errorf("child dur = %v, want 2e6 µs", dur)
			}
			args := r["args"].(map[string]any)
			if args["records"].(float64) != 5 {
				t.Errorf("child args = %v, want records=5", args)
			}
		}
	}

	if doc2 := render(); doc != doc2 {
		t.Error("same event stream produced different bytes")
	}
}

func TestChromeUsecFormatting(t *testing.T) {
	cases := map[int64]string{
		0:       "0.000",
		1:       "0.001",
		999:     "0.999",
		1000:    "1.000",
		1234567: "1234.567",
		-1500:   "-1.500",
	}
	for ns, want := range cases {
		if got := usec(ns); got != want {
			t.Errorf("usec(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestTimelineSinkRendersPhases(t *testing.T) {
	ts := NewTimelineSink()
	tr := New(ts)
	root := tr.Begin(at(10), CatRecovery, "recovery", "recovery:instance")
	m := tr.BeginChild(at(10), CatRecovery, "recovery", "mount", root)
	tr.End(at(12), m)
	rr := tr.BeginChild(at(12), CatRecovery, "recovery", "redo replay", root)
	tr.End(at(19), rr, I("records", 3))
	tr.End(at(20), root)
	// Non-recovery events must be ignored.
	tr.Instant(at(21), CatLGWR, "LGWR", "flush")
	lg := tr.Begin(at(21), CatLGWR, "LGWR", "flush")
	tr.End(at(22), lg)

	if n := ts.Recoveries(); n != 1 {
		t.Fatalf("Recoveries = %d, want 1", n)
	}
	out := ts.Render()
	for _, want := range []string{
		"recovery:instance", "mount", "redo replay", "records=3",
		"phase sum 9s of 10s (90.0% coverage)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "LGWR") || strings.Contains(out, "flush") {
		t.Errorf("timeline leaked non-recovery events:\n%s", out)
	}

	empty := NewTimelineSink()
	if out := empty.Render(); !strings.Contains(out, "no recovery spans traced") {
		t.Errorf("empty timeline = %q, want the explanatory line", out)
	}
}

func TestTimelineSinkRendersWorkerSpans(t *testing.T) {
	ts := NewTimelineSink()
	tr := New(ts)
	root := tr.Begin(at(0), CatRecovery, "recovery", "recovery:instance")
	rr := tr.BeginChild(at(0), CatRecovery, "recovery", "redo replay", root)
	// Two apply workers, worker 0 with two busy stretches.
	w0a := tr.BeginChild(at(0), CatRecovery, "recovery", "apply worker", rr)
	tr.End(at(2), w0a, I("worker", 0))
	w1 := tr.BeginChild(at(1), CatRecovery, "recovery", "apply worker", rr)
	tr.End(at(4), w1, I("worker", 1))
	w0b := tr.BeginChild(at(3), CatRecovery, "recovery", "apply worker", rr)
	tr.End(at(6), w0b, I("worker", 0))
	tr.End(at(6), rr)
	bw := tr.BeginChild(at(6), CatRecovery, "recovery", "block writes", root)
	io := tr.BeginChild(at(6), CatRecovery, "recovery", "io worker", bw)
	tr.End(at(8), io, I("worker", 0))
	tr.End(at(8), bw)
	tr.End(at(8), root)

	out := ts.Render()
	// worker 0 busy 2s+3s, worker 1 busy 3s: 8s over 2 workers, 3 spans.
	for _, want := range []string{
		"apply worker", "workers=2 spans=3",
		"io worker", "workers=1 spans=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "8s  workers=2") {
		t.Errorf("apply worker busy sum not rendered as 8s:\n%s", out)
	}
	// Worker sub-rows must not count toward the phase-sum coverage line.
	if !strings.Contains(out, "phase sum 8s of 8s (100.0% coverage)") {
		t.Errorf("coverage line wrong:\n%s", out)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := &RingSink{}, &RingSink{}
	if MultiSink() != nil || MultiSink(nil, nil) != nil {
		t.Error("MultiSink with no live sinks should be nil")
	}
	if got := MultiSink(nil, a); got != Sink(a) {
		t.Error("single live sink should be returned unwrapped")
	}
	tr := New(MultiSink(a, nil, b))
	tr.Instant(at(1), CatChaos, "chaos", "point")
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("fanout totals = %d/%d, want 1/1", a.Total(), b.Total())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("cache.hits")
	c1.Inc()
	c1.Add(2)
	if got := r.Counter("cache.hits"); got != c1 {
		t.Error("Counter(name) did not return the existing counter")
	}
	ext := NewCounter("redo.switches")
	ext.Set(7)
	r.Register(ext)

	if v := r.Value("cache.hits"); v != 3 {
		t.Errorf("Value(cache.hits) = %d, want 3", v)
	}
	if v := r.Value("redo.switches"); v != 7 {
		t.Errorf("Value(redo.switches) = %d, want 7", v)
	}
	if v := r.Value("nope"); v != 0 {
		t.Errorf("Value(unregistered) = %d, want 0", v)
	}
	wantNames := []string{"cache.hits", "redo.switches"}
	names := r.Names()
	snap := r.Snapshot()
	if len(names) != 2 || len(snap) != 2 {
		t.Fatalf("Names/Snapshot lengths = %d/%d, want 2/2", len(names), len(snap))
	}
	for i, w := range wantNames {
		if names[i] != w || snap[i].Name != w {
			t.Errorf("entry %d = %s/%s, want %s (registration order)", i, names[i], snap[i].Name, w)
		}
	}
	if snap[0].Value != 3 || snap[1].Value != 7 {
		t.Errorf("snapshot values = %d/%d, want 3/7", snap[0].Value, snap[1].Value)
	}
	if ext.Name() != "redo.switches" {
		t.Errorf("Name() = %q", ext.Name())
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	r.Register(NewCounter("cache.hits"))
}

// TestSnapshotIntoReusesBacking pins the sampler's hot-path contract:
// snapshotting into a warm slice appends in registration order without
// growing the backing array.
func TestSnapshotIntoReusesBacking(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	b := r.Counter("b")
	a.Set(1)
	b.Set(2)
	buf := r.SnapshotInto(nil)
	if len(buf) != 2 || buf[0].Name != "a" || buf[1].Value != 2 {
		t.Fatalf("SnapshotInto = %+v", buf)
	}
	a.Set(10)
	allocs := testing.AllocsPerRun(100, func() {
		buf = r.SnapshotInto(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("warm SnapshotInto allocates %.1f/op, want 0", allocs)
	}
	if buf[0].Value != 10 {
		t.Errorf("re-snapshot value = %d, want 10", buf[0].Value)
	}
}

func TestCategoryStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Categories {
		s := c.String()
		if s == "unknown" || seen[s] {
			t.Errorf("category %d renders %q (duplicate or unknown)", c, s)
		}
		seen[s] = true
	}
	if Category(200).String() != "unknown" {
		t.Error("out-of-range category should render unknown")
	}
}
