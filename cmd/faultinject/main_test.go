package main

import (
	"strings"
	"testing"
)

// An unknown -fault must fail before anything runs, with a message that
// lists every valid name — "shutdown-abort" is the spelling people reach
// for, and a bare "unknown fault" left them guessing.
func TestUnknownFaultListsValidNames(t *testing.T) {
	err := run([]string{"-fault", "shutdown-abort"})
	if err == nil {
		t.Fatal("unknown fault accepted")
	}
	if !strings.Contains(err.Error(), `unknown fault "shutdown-abort"`) {
		t.Errorf("error %q does not name the rejected fault", err)
	}
	for name := range faultNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid fault %q", err, name)
		}
	}
}
