package core

// Validate exposes Spec.validate to the external tests.
func (s Spec) Validate() error { return s.validate() }
