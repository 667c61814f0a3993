package sqladmin

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbench/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the observed output")

// checkGolden compares got with testdata/name byte for byte, after
// rewriting the file from got under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden (regenerate with -update if deliberate):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestAlterSystemSetMatrix is the accept/reject contract of ALTER SYSTEM
// SET, one row per case: every dynamic knob accepts an in-range value,
// static parameters are rejected with a descriptive error (not a bare
// syntax error), out-of-range and malformed values are rejected, and
// deferred knobs say so in their message.
func TestAlterSystemSetMatrix(t *testing.T) {
	tests := []struct {
		stmt string
		// wantMsg, when non-empty, must appear in the success message
		// (the case is expected to be accepted).
		wantMsg string
		// wantErr, when non-empty, must appear in the error (the case is
		// expected to be rejected).
		wantErr string
	}{
		// Accepted: one per dynamic knob, plus value normalization.
		{stmt: "ALTER SYSTEM SET checkpoint_timeout = 30s", wantMsg: "checkpoint_timeout = 30s"},
		{stmt: "alter system set CHECKPOINT_TIMEOUT = 2m", wantMsg: "checkpoint_timeout = 2m0s"},
		{stmt: "ALTER SYSTEM SET recovery_parallelism = 4", wantMsg: "recovery_parallelism = 4"},
		{stmt: "ALTER SYSTEM SET log_group_size_bytes = 2097152", wantMsg: "pending: applies at the next log switch"},
		{stmt: "ALTER SYSTEM SET log_groups = 4", wantMsg: "pending: applies at the next log switch"},
		// No-op: setting a knob to its current value is accepted but free.
		{stmt: "ALTER SYSTEM SET recovery_parallelism = 4", wantMsg: "recovery_parallelism unchanged"},
		// Rejected: static parameters name the reason.
		{stmt: "ALTER SYSTEM SET cache_blocks = 128", wantErr: "static"},
		{stmt: "ALTER SYSTEM SET log_archive_mode = false", wantErr: "static"},
		{stmt: "ALTER SYSTEM SET instance_name = other", wantErr: "static"},
		// Rejected: unknown parameter.
		{stmt: "ALTER SYSTEM SET frobnication_level = 11", wantErr: "unknown parameter"},
		// Rejected: out of range.
		{stmt: "ALTER SYSTEM SET checkpoint_timeout = 1ms", wantErr: "out of range"},
		{stmt: "ALTER SYSTEM SET checkpoint_timeout = 9h", wantErr: "out of range"},
		{stmt: "ALTER SYSTEM SET log_group_size_bytes = 1024", wantErr: "out of range"},
		{stmt: "ALTER SYSTEM SET log_groups = 1", wantErr: "out of range"},
		{stmt: "ALTER SYSTEM SET log_groups = 99", wantErr: "out of range"},
		{stmt: "ALTER SYSTEM SET recovery_parallelism = 0", wantErr: "out of range"},
		// Rejected: malformed values.
		{stmt: "ALTER SYSTEM SET checkpoint_timeout = banana", wantErr: "not a duration"},
		{stmt: "ALTER SYSTEM SET log_groups = many", wantErr: "not an integer"},
	}
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for _, tt := range tests {
			msg, err := r.ex.Execute(p, tt.stmt)
			switch {
			case tt.wantErr != "":
				if err == nil {
					return fmt.Errorf("%q accepted (%q), want error containing %q", tt.stmt, msg, tt.wantErr)
				}
				if !strings.Contains(err.Error(), tt.wantErr) {
					return fmt.Errorf("%q: err = %v, want containing %q", tt.stmt, err, tt.wantErr)
				}
			default:
				if err != nil {
					return fmt.Errorf("%q rejected: %v", tt.stmt, err)
				}
				if !strings.Contains(msg, tt.wantMsg) {
					return fmt.Errorf("%q: msg = %q, want containing %q", tt.stmt, msg, tt.wantMsg)
				}
			}
		}
		// The accepted values are visible through the live config.
		if got := r.in.Config().CheckpointTimeout; got != 2*time.Minute {
			return fmt.Errorf("checkpoint_timeout = %v after ALTER, want 2m", got)
		}
		if got := r.in.RecoveryParallelism(); got != 4 {
			return fmt.Errorf("recovery_parallelism = %d after ALTER, want 4", got)
		}
		return nil
	})
}

// TestAlterSystemSetSyntax pins the statement-shape errors.
func TestAlterSystemSetSyntax(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for _, stmt := range []string{
			"ALTER SYSTEM SET",
			"ALTER SYSTEM SET checkpoint_timeout",
			"ALTER SYSTEM SET = 30s",
			"ALTER SYSTEM SET checkpoint_timeout =",
		} {
			if _, err := r.ex.Execute(p, stmt); err == nil {
				return fmt.Errorf("%q accepted", stmt)
			} else if !errors.Is(err, ErrSyntax) {
				return fmt.Errorf("%q: err = %v, want ErrSyntax", stmt, err)
			}
		}
		return nil
	})
}

// TestAlterSystemSetDownRejected pins the state gate: dynamic knobs are
// instance-level and need an open instance.
func TestAlterSystemSetDownRejected(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		// Instance never opened.
		if _, err := r.ex.Execute(p, "ALTER SYSTEM SET checkpoint_timeout = 30s"); err == nil {
			return fmt.Errorf("ALTER SYSTEM SET accepted on a down instance")
		}
		return nil
	})
}

// TestAlterPendingResizeAppliesAtSwitch walks the deferred path end to
// end: the resize is pending (old geometry still live, V$PARAMETER shows
// both values), a log switch lands the new size on the current group,
// and once checkpoint+archive free the old groups the pending marker
// clears and the whole ring has the new geometry.
func TestAlterPendingResizeAppliesAtSwitch(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER SYSTEM SET log_group_size_bytes = 2097152"); err != nil {
			return err
		}
		// Deferred: the live geometry is unchanged, the target moved.
		if got := r.in.Log().Config().GroupSizeBytes; got != 1<<20 {
			return fmt.Errorf("live group size = %d right after ALTER, want still %d", got, 1<<20)
		}
		if got := r.in.Log().TargetGroupSize(); got != 2<<20 {
			return fmt.Errorf("target group size = %d, want %d", got, 2<<20)
		}
		out, err := r.ex.Execute(p, "SELECT * FROM V$PARAMETER")
		if err != nil {
			return err
		}
		if !strings.Contains(out, "2097152") {
			return fmt.Errorf("V$PARAMETER does not show the pending size:\n%s", out)
		}
		// The switch lands the new size on the now-empty current group
		// (a forced switch on an empty group is a no-op, so write first).
		tx, _ := r.in.Begin()
		if err := r.in.Insert(p, tx, "t", 1, []byte("v")); err != nil {
			return err
		}
		if err := r.in.Commit(p, tx); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER SYSTEM SWITCH LOGFILE"); err != nil {
			return err
		}
		if got := r.in.Log().Config().GroupSizeBytes; got != 2<<20 {
			return fmt.Errorf("live group size = %d after switch, want %d", got, 2<<20)
		}
		// Checkpoint + a few more switches retire the old-size groups;
		// the pending marker must clear once the ring is uniform.
		for i := int64(2); i < 6; i++ {
			tx, _ := r.in.Begin()
			if err := r.in.Insert(p, tx, "t", i, []byte("v")); err != nil {
				return err
			}
			if err := r.in.Commit(p, tx); err != nil {
				return err
			}
			if _, err := r.ex.Execute(p, "ALTER SYSTEM CHECKPOINT"); err != nil {
				return err
			}
			if _, err := r.ex.Execute(p, "ALTER SYSTEM SWITCH LOGFILE"); err != nil {
				return err
			}
		}
		if _, _, pending := r.in.Log().PendingResize(); pending {
			return fmt.Errorf("resize still pending after checkpoints and switches")
		}
		for _, g := range r.in.Log().Groups() {
			if g.Capacity() != 2<<20 {
				return fmt.Errorf("group %d still %d bytes after resize", g.ID, g.Capacity())
			}
		}
		return nil
	})
}

// TestVParameterGolden pins the V$PARAMETER view byte-for-byte: name,
// static/dynamic scope, current value and pending value for every
// parameter, in a fixed order. The fixture captures the view with one
// immediate and one deferred ALTER outstanding. Regenerate with
// -update when the parameter table deliberately changes.
func TestVParameterGolden(t *testing.T) {
	r := newRig(t)
	var got string
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER SYSTEM SET checkpoint_timeout = 45s"); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER SYSTEM SET log_groups = 5"); err != nil {
			return err
		}
		out, err := r.ex.Execute(p, "SELECT * FROM V$PARAMETER")
		if err != nil {
			return err
		}
		got = out
		return nil
	})
	checkGolden(t, "vparameter.golden", got)
}
