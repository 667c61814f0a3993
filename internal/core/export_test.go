package core

import "dbench/internal/tpcc"

// Validate exposes Spec.validate to the external tests.
func (s Spec) Validate() error { return s.validate() }

// drawnSet returns the generated database the process keeps (nil if none).
func drawnSet() tpcc.LoadSet {
	drawn.Lock()
	defer drawn.Unlock()
	if drawn.g == nil {
		return nil
	}
	return drawn.g.Set
}

// forgetDrawn empties the process's generated-database cache, so the next
// rig draws its database afresh.
func forgetDrawn() {
	drawn.Lock()
	drawn.g = nil
	drawn.Unlock()
}
