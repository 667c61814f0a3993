package trace

// Counter is one registry row: a counter's name and the int64 field that
// holds it. The field belongs to its subsystem (usually a Stats struct),
// which increments it in place. Counters need no locking: the simulation
// kernel runs exactly one process at a time, so an increment is one add —
// cheap enough for per-block hot paths.
type Counter struct {
	Name string
	V    *int64
}

// CounterSnapshot is one registry entry frozen at snapshot time.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// Registry is a named counter set. Iteration order is registration
// order, which is deterministic because engine construction is.
type Registry struct {
	byName  map[string]*int64
	ordered []Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*int64)}
}

// Register attaches counter rows. Registering a name twice panics: two
// owners silently sharing one count is exactly the drift that reading
// every report from the registry exists to prevent.
func (r *Registry) Register(rows ...Counter) {
	for _, c := range rows {
		if _, dup := r.byName[c.Name]; dup {
			panic("trace: duplicate counter " + c.Name)
		}
		r.byName[c.Name] = c.V
		r.ordered = append(r.ordered, c)
	}
}

// Value returns the current value of name, or 0 if unregistered.
func (r *Registry) Value(name string) int64 {
	if v, ok := r.byName[name]; ok {
		return *v
	}
	return 0
}

// Names lists registered counter names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.ordered))
	for i, c := range r.ordered {
		out[i] = c.Name
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
		dst = append(dst, CounterSnapshot{Name: c.Name, Value: *c.V})
	}
	return dst
}
