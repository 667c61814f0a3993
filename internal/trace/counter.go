package trace

// Counter is a named monotonic (or gauge-style, via Set) int64 counter.
// Counters are lock-free by construction: the simulation kernel runs
// exactly one process at a time, so plain loads and stores are safe and
// an increment costs one add — cheap enough for per-block hot paths.
type Counter struct {
	name string
	v    int64
}

// NewCounter creates a free-standing counter; attach it to a Registry
// with Register so status reports can enumerate it.
func NewCounter(name string) *Counter { return &Counter{name: name} }

func (c *Counter) Name() string { return c.name }
func (c *Counter) Inc()         { c.v++ }
func (c *Counter) Add(d int64)  { c.v += d }
func (c *Counter) Set(v int64)  { c.v = v }
func (c *Counter) Value() int64 { return c.v }

// CounterSnapshot is one registry entry frozen at snapshot time.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// Registry is a named counter set. Iteration order is registration
// order, which is deterministic because engine construction is.
type Registry struct {
	byName  map[string]*Counter
	ordered []*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Counter)}
}

// Counter returns the counter registered under name, creating and
// registering it if absent.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.byName[name]; ok {
		return c
	}
	c := NewCounter(name)
	r.byName[name] = c
	r.ordered = append(r.ordered, c)
	return c
}

// Register attaches externally-created counters (e.g. a subsystem's own
// counter block). Registering a name twice panics: a silent overwrite
// is exactly the drift StatusReport derivation exists to prevent.
func (r *Registry) Register(cs ...*Counter) {
	for _, c := range cs {
		if _, dup := r.byName[c.name]; dup {
			panic("trace: duplicate counter " + c.name)
		}
		r.byName[c.name] = c
		r.ordered = append(r.ordered, c)
	}
}

// Value returns the current value of name, or 0 if unregistered.
func (r *Registry) Value(name string) int64 {
	if c, ok := r.byName[name]; ok {
		return c.v
	}
	return 0
}

// Names lists registered counter names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.ordered))
	for i, c := range r.ordered {
		out[i] = c.name
	}
	return out
}

// Snapshot freezes every counter in registration order.
func (r *Registry) Snapshot() []CounterSnapshot {
	return r.SnapshotInto(make([]CounterSnapshot, 0, len(r.ordered)))
}

// SnapshotInto appends every counter, in registration order, to dst and
// returns it. Steady-state samplers (the MMON repository ring) pass a
// recycled dst[:0] so repeated snapshots allocate nothing.
func (r *Registry) SnapshotInto(dst []CounterSnapshot) []CounterSnapshot {
	for _, c := range r.ordered {
		dst = append(dst, CounterSnapshot{Name: c.name, Value: c.v})
	}
	return dst
}
