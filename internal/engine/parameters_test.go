package engine

import (
	"fmt"
	"testing"
	"time"

	"dbench/internal/sim"
)

// dynamicCases holds, per dynamic parameter, a value to set (different
// from what newInstance starts with) and one input of each rejected
// class. The messages are spelled out, not derived from the table: they
// are what a DBA session and the controller's logs have always shown.
var dynamicCases = map[string]struct {
	set, below, above, junk string
	msg, noop               string
	errBelow, errAbove      string
	errJunk                 string
}{
	"checkpoint_timeout": {
		set: "45s", below: "999ms", above: "2h0m1s", junk: "soon",
		msg:      "checkpoint_timeout = 45s",
		noop:     "checkpoint_timeout unchanged (45s)",
		errBelow: "engine: checkpoint_timeout 999ms out of range [1s, 2h0m0s]",
		errAbove: "engine: checkpoint_timeout 2h0m1s out of range [1s, 2h0m0s]",
		errJunk:  `engine: checkpoint_timeout: "soon" is not a duration`,
	},
	"recovery_parallelism": {
		set: "4", below: "0", above: "65", junk: "many",
		msg:      "recovery_parallelism = 4",
		noop:     "recovery_parallelism unchanged (4)",
		errBelow: "engine: recovery_parallelism 0 out of range [1, 64]",
		errAbove: "engine: recovery_parallelism 65 out of range [1, 64]",
		errJunk:  `engine: recovery_parallelism: "many" is not an integer`,
	},
	"log_group_size_bytes": {
		set: "2097152", below: "1048575", above: "1073741825", junk: "big",
		msg:      "log_group_size_bytes = 2097152 (pending: applies at the next log switch)",
		noop:     "log_group_size_bytes unchanged (2097152)",
		errBelow: "engine: log_group_size_bytes 1048575 out of range [1048576, 1073741824]",
		errAbove: "engine: log_group_size_bytes 1073741825 out of range [1048576, 1073741824]",
		errJunk:  `engine: log_group_size_bytes: "big" is not an integer`,
	},
	"log_groups": {
		set: "4", below: "1", above: "17", junk: "few",
		msg:      "log_groups = 4 (pending: applies at the next log switch)",
		noop:     "log_groups unchanged (4)",
		errBelow: "engine: log_groups 1 out of range [2, 16]",
		errAbove: "engine: log_groups 17 out of range [2, 16]",
		errJunk:  `engine: log_groups: "few" is not an integer`,
	},
}

// TestAlterSystemDynamicKnobs walks the parameter table through
// Instance.AlterSystem — the engine-level contract the sqladmin statement
// surface and the controller build on. Every dynamic row round-trips:
// set, the listing shows the value (live, or pending for a deferred
// change), setting it again is a free no-op that takes no virtual time
// and counts no alter. Every rejected class (below, above, unparsable;
// static; unknown; malformed) fails with its message and changes nothing.
func TestAlterSystemDynamicKnobs(t *testing.T) {
	k, _, in := newInstance(t, nil)
	alters := in.reg.Counter("engine.alters")
	listed := func(name string) Parameter {
		for _, row := range in.Parameters() {
			if row.Name == name {
				return row
			}
		}
		return Parameter{}
	}
	reject := func(p *sim.Proc, name, value, want string) error {
		before, at := alters.Value(), p.Now()
		_, changed, err := in.AlterSystem(p, name, value)
		if err == nil || changed || err.Error() != want {
			return fmt.Errorf("%s = %q: changed=%v err=%v, want error %q", name, value, changed, err, want)
		}
		if alters.Value() != before || p.Now() != at {
			return fmt.Errorf("rejected %s = %q counted an alter or took time", name, value)
		}
		return nil
	}
	runErr(t, k, func(p *sim.Proc) error {
		if _, _, err := in.AlterSystem(p, "checkpoint_timeout", "30s"); err == nil {
			return fmt.Errorf("ALTER accepted before the instance opened")
		}
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		seen := map[string]bool{}
		for _, row := range parameters {
			if seen[row.name] {
				return fmt.Errorf("parameter %q declared twice", row.name)
			}
			seen[row.name] = true
			if row.set == nil {
				want := fmt.Sprintf("engine: parameter %q is static: set at instance creation, not adjustable with ALTER SYSTEM", row.name)
				if err := reject(p, row.name, "1", want); err != nil {
					return err
				}
				continue
			}
			tc, ok := dynamicCases[row.name]
			if !ok {
				return fmt.Errorf("dynamic parameter %q has no test case", row.name)
			}
			before, at := alters.Value(), p.Now()
			msg, changed, err := in.AlterSystem(p, row.name, tc.set)
			if err != nil || !changed || msg != tc.msg {
				return fmt.Errorf("%s = %s: msg=%q changed=%v err=%v, want %q", row.name, tc.set, msg, changed, err, tc.msg)
			}
			if alters.Value() != before+1 || p.Now().Sub(at) != adminLatency {
				return fmt.Errorf("%s: accepted alter counted %d, took %v", row.name, alters.Value()-before, p.Now().Sub(at))
			}
			got := listed(row.name)
			if !got.Adjustable || (row.set.deferred && got.Pending != tc.set) || (!row.set.deferred && (got.Value != tc.set || got.Pending != "")) {
				return fmt.Errorf("%s after set %s: listed %+v", row.name, tc.set, got)
			}
			at = p.Now()
			msg, changed, err = in.AlterSystem(p, row.name, tc.set)
			if err != nil || changed || msg != tc.noop {
				return fmt.Errorf("%s re-set: msg=%q changed=%v err=%v, want %q", row.name, msg, changed, err, tc.noop)
			}
			if alters.Value() != before+1 || p.Now() != at {
				return fmt.Errorf("%s: no-op counted an alter or took %v", row.name, p.Now().Sub(at))
			}
			for _, bad := range [][2]string{{tc.below, tc.errBelow}, {tc.above, tc.errAbove}, {tc.junk, tc.errJunk}} {
				if err := reject(p, row.name, bad[0], bad[1]); err != nil {
					return err
				}
			}
		}
		for name := range dynamicCases {
			if !seen[name] {
				return fmt.Errorf("test case for %q, which the table does not declare", name)
			}
		}

		// The values landed where their readers look; the redo geometry
		// is deferred — the target moved, the live config did not.
		if got := in.Config().CheckpointTimeout; got != 45*time.Second {
			return fmt.Errorf("checkpoint_timeout = %v", got)
		}
		if got := in.RecoveryParallelism(); got != 4 {
			return fmt.Errorf("recovery_parallelism = %d", got)
		}
		if got := in.Log().Config().GroupSizeBytes; got != 1<<20 {
			return fmt.Errorf("live size moved to %d before a switch", got)
		}
		if in.Log().TargetGroupSize() != 2<<20 || in.Log().TargetGroups() != 4 {
			return fmt.Errorf("targets = (%d, %d)", in.Log().TargetGroupSize(), in.Log().TargetGroups())
		}

		for _, tc := range [][3]string{
			{"no_such_knob", "1", `engine: unknown parameter "no_such_knob"`},
			{"", "1", "engine: ALTER SYSTEM SET needs <parameter> = <value>"},
			{"checkpoint_timeout", "", "engine: ALTER SYSTEM SET needs <parameter> = <value>"},
		} {
			if err := reject(p, tc[0], tc[1], tc[2]); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestAlterRearmsCheckpointTimer pins the re-arm semantics: an instance
// built with timeout checkpoints disabled gains them through ALTER
// SYSTEM, and the new interval counts from the alter.
func TestAlterRearmsCheckpointTimer(t *testing.T) {
	k, _, in := newInstance(t, nil) // CheckpointTimeout = 0: no timer
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		if _, _, err := in.AlterSystem(p, "checkpoint_timeout", "2s"); err != nil {
			return err
		}
		// Dirty a block so the timeout checkpoint has work to announce.
		tx, _ := in.Begin()
		if err := in.Insert(p, tx, "t", 1, []byte("v")); err != nil {
			return err
		}
		if err := in.Commit(p, tx); err != nil {
			return err
		}
		base := in.reg.Counter("engine.timeout_checkpoints").Value()
		p.Sleep(7 * time.Second)
		if got := in.reg.Counter("engine.timeout_checkpoints").Value(); got <= base {
			return fmt.Errorf("no timeout checkpoint fired after arming a 2s timer (count %d)", got)
		}
		return nil
	})
}

// TestParametersShowsPendingResize pins the parameter table the
// V$PARAMETER view renders: current values come from the dynamic layer
// and a deferred resize carries its pending value.
func TestParametersShowsPendingResize(t *testing.T) {
	k, _, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		if _, _, err := in.AlterSystem(p, "checkpoint_timeout", "45s"); err != nil {
			return err
		}
		if _, _, err := in.AlterSystem(p, "log_groups", "5"); err != nil {
			return err
		}
		byName := map[string]Parameter{}
		for _, param := range in.Parameters() {
			byName[param.Name] = param
		}
		if got := byName["checkpoint_timeout"]; got.Value != "45s" || got.Pending != "" {
			return fmt.Errorf("checkpoint_timeout row = %+v", got)
		}
		if got := byName["log_groups"]; got.Pending != "5" {
			return fmt.Errorf("log_groups row = %+v, want pending 5", got)
		}
		if got := byName["log_group_size_bytes"]; got.Pending != "" {
			return fmt.Errorf("log_group_size_bytes row = %+v, want no pending (size unchanged)", got)
		}
		return nil
	})
}

// TestInstanceAccessors pins the trivial read surface other subsystems
// (controller, sqladmin, recovery) are built against.
func TestInstanceAccessors(t *testing.T) {
	k, fs, in := newInstance(t, nil)
	runErr(t, k, func(p *sim.Proc) error {
		if err := setupAndOpen(p, in); err != nil {
			return err
		}
		if in.Kernel() != k || in.FS() != fs {
			return fmt.Errorf("kernel/fs accessors disagree")
		}
		if in.DB() == nil || in.Cache() == nil || in.Txns() == nil || in.CPU() == nil {
			return fmt.Errorf("nil subsystem accessor")
		}
		_ = in.Tracer() // nil when tracing is off — must still be callable
		if got := in.Config().CacheBlocks; got != 64 {
			return fmt.Errorf("Config().CacheBlocks = %d", got)
		}
		in.RequestCheckpoint()
		_ = in.CheckpointInProgress()
		return nil
	})
}
