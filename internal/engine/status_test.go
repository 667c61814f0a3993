package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dbench/internal/sim"
)

// Every counter registered anywhere in the instance must appear in the
// rendered status screen — the registry is the single source of truth,
// so a new subsystem counter cannot silently miss the DBA's view.
func TestStatusReportShowsEveryRegisteredCounter(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		// Exercise enough of the engine that the interesting counters are
		// non-zero: DML, a log switch, a checkpoint.
		for i := int64(0); i < 50; i++ {
			tx, err := in.Begin()
			if err != nil {
				return err
			}
			if err := in.Insert(p, tx, "t", i, []byte("v")); err != nil {
				return err
			}
			if err := in.Commit(p, tx); err != nil {
				return err
			}
		}
		if err := in.ForceLogSwitch(p); err != nil {
			return err
		}
		return in.Checkpoint(p)
	})

	reg := in.Registry()
	names := reg.Names()
	if len(names) == 0 {
		t.Fatal("instance registered no counters")
	}
	out := in.Status()
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("counter %q missing from status report:\n%s", name, out)
		}
	}
	snap := reg.Snapshot()
	if len(snap) != len(names) {
		t.Errorf("snapshot has %d counters, registry has %d", len(snap), len(names))
	}

	// The summary lines quote the registry rows they are documented to
	// come from — this is the drift the registry fixes.
	v := reg.Value
	for _, line := range []string{
		fmt.Sprintf("checkpoints: %d\n", v("engine.checkpoints")),
		fmt.Sprintf("hits=%d misses=%d\n", v("cache.hits"), v("cache.misses")),
		fmt.Sprintf("redo: %d switches, %s written, stalls=%v;", v("redo.switches"),
			byteSize(v("redo.flushed_bytes")), time.Duration(v("redo.stall_ns")).Round(time.Millisecond)),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("status report missing summary %q:\n%s", line, out)
		}
	}
	if v("engine.checkpoints") == 0 {
		t.Error("checkpoint counter still zero after an explicit checkpoint")
	}
	if v("redo.flushed_bytes") == 0 {
		t.Error("redo.flushed_bytes still zero after committed DML")
	}

	// And the rendered value rows must match the snapshot exactly.
	for _, c := range snap {
		row := fmt.Sprintf("%-28s %d", c.Name, c.Value)
		if !strings.Contains(out, row) {
			t.Errorf("status report missing counter row %q", row)
		}
	}
}
