package sqladmin

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
)

type rig struct {
	k   *sim.Kernel
	in  *engine.Instance
	ex  *Executor
	err error
}

func newRig(t *testing.T) *rig { return newRigWith(t, nil) }

func newRigWith(t *testing.T, mutate func(*engine.Config)) *rig {
	t.Helper()
	k := sim.NewKernel(3)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
	cfg := engine.DefaultConfig()
	cfg.Redo.GroupSizeBytes = 1 << 20
	cfg.Redo.ArchiveMode = true
	cfg.CheckpointTimeout = 0
	cfg.CacheBlocks = 64
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := engine.New(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := recovery.NewManager(in, bk)
	return &rig{k: k, in: in, ex: NewExecutor(in, rm, bk)}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	r.k.Go("t", func(p *sim.Proc) {
		if err := fn(p); err != nil {
			r.err = err
		}
	})
	r.k.Run(sim.Time(100 * time.Hour))
	if r.err != nil {
		t.Fatal(r.err)
	}
}

func (r *rig) setup(p *sim.Proc) error {
	if _, err := r.in.CreateTablespace(p, "USERS", []string{engine.DiskData1}, 64); err != nil {
		return err
	}
	if err := r.in.CreateUser(p, "app", "USERS"); err != nil {
		return err
	}
	if err := r.in.Open(p); err != nil {
		return err
	}
	return r.in.CreateTableClustered(p, "t", "app", "USERS", 8, 1)
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		give string
		want []string
	}{
		{"shutdown abort", []string{"SHUTDOWN", "ABORT"}},
		{"ALTER DATABASE DATAFILE 'USERS_01.dbf' OFFLINE;", []string{"ALTER", "DATABASE", "DATAFILE", "USERS_01.dbf", "OFFLINE"}},
		{"  drop   table  orders ", []string{"DROP", "TABLE", "ORDERS"}},
		{"recover database until scn 42", []string{"RECOVER", "DATABASE", "UNTIL", "SCN", "42"}},
	}
	for _, tt := range tests {
		got := tokenize(tt.give)
		if len(got) != len(tt.want) {
			t.Fatalf("tokenize(%q) = %v, want %v", tt.give, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Fatalf("tokenize(%q) = %v, want %v", tt.give, got, tt.want)
			}
		}
	}
}

func TestShutdownAbortAndStartupRecovers(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		tx, _ := r.in.Begin()
		if err := r.in.Insert(p, tx, "t", 1, []byte("v")); err != nil {
			return err
		}
		if err := r.in.Commit(p, tx); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "SHUTDOWN ABORT"); err != nil {
			return err
		}
		if r.in.State() != engine.StateDown {
			return fmt.Errorf("state = %v", r.in.State())
		}
		msg, err := r.ex.Execute(p, "STARTUP")
		if err != nil {
			return err
		}
		if !strings.Contains(msg, "crash recovery") {
			return fmt.Errorf("startup msg = %q", msg)
		}
		tx2, _ := r.in.Begin()
		if _, err := r.in.Read(p, tx2, "t", 1); err != nil {
			return err
		}
		return r.in.Commit(p, tx2)
	})
}

func TestCheckpointAndSwitchStatements(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER SYSTEM CHECKPOINT"); err != nil {
			return err
		}
		if r.in.Stats().Checkpoints == 0 {
			return fmt.Errorf("no checkpoint recorded")
		}
		tx, _ := r.in.Begin()
		_ = r.in.Insert(p, tx, "t", 1, []byte("v"))
		if err := r.in.Commit(p, tx); err != nil {
			return err
		}
		seq := r.in.Log().CurrentGroup().Seq
		if _, err := r.ex.Execute(p, "ALTER SYSTEM SWITCH LOGFILE"); err != nil {
			return err
		}
		if r.in.Log().CurrentGroup().Seq != seq+1 {
			return fmt.Errorf("no switch")
		}
		return nil
	})
}

// SWITCH LOGFILE answers what it did: on a fresh instance, whose current
// group holds no redo, nothing switches and the answer says so; after a
// commit the log switches; straight after that switch it does not again.
func TestSwitchLogfileSaysWhetherItSwitched(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		want := func(answer string, seq int) error {
			out, err := r.ex.Execute(p, "ALTER SYSTEM SWITCH LOGFILE")
			if err != nil {
				return err
			}
			if got := r.in.Log().CurrentGroup().Seq; out != answer || got != seq {
				return fmt.Errorf("SWITCH LOGFILE: %q at seq %d, want %q at seq %d", out, got, answer, seq)
			}
			return nil
		}
		const not = "log not switched: the current group is empty"
		seq := r.in.Log().CurrentGroup().Seq
		if err := want(not, seq); err != nil {
			return err
		}
		tx, _ := r.in.Begin()
		if err := r.in.Insert(p, tx, "t", 1, []byte("v")); err != nil {
			return err
		}
		if err := r.in.Commit(p, tx); err != nil {
			return err
		}
		if err := want("log switched", seq+1); err != nil {
			return err
		}
		return want(not, seq+1)
	})
}

func TestDatafileOfflineRecoverOnline(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		tx, _ := r.in.Begin()
		_ = r.in.Insert(p, tx, "t", 1, []byte("v"))
		if err := r.in.Commit(p, tx); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER DATABASE DATAFILE 'USERS_01.dbf' OFFLINE"); err != nil {
			return err
		}
		// Direct ONLINE fails (needs recovery); RECOVER then works.
		if _, err := r.ex.Execute(p, "ALTER DATABASE DATAFILE 'USERS_01.dbf' ONLINE"); err == nil {
			return fmt.Errorf("online without recovery succeeded")
		}
		if _, err := r.ex.Execute(p, "RECOVER DATAFILE 'USERS_01.dbf'"); err != nil {
			return err
		}
		tx2, _ := r.in.Begin()
		if _, err := r.in.Read(p, tx2, "t", 1); err != nil {
			return err
		}
		return r.in.Commit(p, tx2)
	})
}

func TestBackupAndPITRStatements(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 20; i++ {
			tx, _ := r.in.Begin()
			_ = r.in.Insert(p, tx, "t", i, []byte("v"))
			if err := r.in.Commit(p, tx); err != nil {
				return err
			}
		}
		if _, err := r.ex.Execute(p, "BACKUP DATABASE"); err != nil {
			return err
		}
		target := r.in.Log().NextSCN() - 1
		if _, err := r.ex.Execute(p, "DROP TABLE t"); err != nil {
			return err
		}
		msg, err := r.ex.Execute(p, fmt.Sprintf("RECOVER DATABASE UNTIL SCN %d", target))
		if err != nil {
			return err
		}
		if !strings.Contains(msg, "recovered until") {
			return fmt.Errorf("msg = %q", msg)
		}
		tx, _ := r.in.Begin()
		if _, err := r.in.Read(p, tx, "t", 5); err != nil {
			return err
		}
		return r.in.Commit(p, tx)
	})
}

// A table that point-in-time recovery brings back is in the datafile
// headers again: a catalog-destroying fault after the recovery and the
// header scan that repairs it keep the table.
func TestCatalogScanAfterPITRKeepsRecoveredTable(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if err := r.in.CreateTableClustered(p, "stock", "app", "USERS", 8, 1); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "BACKUP DATABASE"); err != nil {
			return err
		}
		target := r.in.Log().NextSCN() - 1
		if _, err := r.ex.Execute(p, "DROP TABLE stock"); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, fmt.Sprintf("RECOVER DATABASE UNTIL SCN %d", target)); err != nil {
			return err
		}
		r.in.Catalog().Wipe()
		if _, err := r.ex.Execute(p, "RECOVER CATALOG SCAN"); err != nil {
			return err
		}
		if _, err := r.in.Catalog().Table("stock"); err != nil {
			return fmt.Errorf("after PITR and a catalog scan: %w", err)
		}
		return nil
	})
}

func TestTablespaceOfflineOnline(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER TABLESPACE USERS OFFLINE"); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER TABLESPACE USERS ONLINE"); err != nil {
			return err
		}
		return nil
	})
}

func TestSyntaxErrors(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		bad := []string{
			"", "FROB", "SHUTDOWN", "SHUTDOWN NOW", "ALTER", "ALTER SYSTEM REBOOT",
			"DROP", "DROP INDEX x", "RECOVER DATABASE UNTIL SCN xyz",
		}
		for _, stmt := range bad {
			if _, err := r.ex.Execute(p, stmt); err == nil {
				return fmt.Errorf("statement %q accepted", stmt)
			} else if stmt != "RECOVER DATABASE UNTIL SCN xyz" && !errors.Is(err, ErrSyntax) {
				return fmt.Errorf("statement %q: err = %v, want ErrSyntax", stmt, err)
			}
		}
		return nil
	})
}

// TestShowStatus pins the SHOW STATUS screen byte for byte, on an open
// instance and again after a log switch, a checkpoint and a datafile taken
// offline: the instance, SCN, cache and redo lines, the datafile and log
// group lists, and every registered counter. Committed inserts first make
// the cache, redo and SCN figures non-zero. Regenerate with -update when
// the screen deliberately changes. SHOW of anything else is refused.
func TestShowStatus(t *testing.T) {
	r := newRig(t)
	var got strings.Builder
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 20; i++ {
			tx, err := r.in.Begin()
			if err != nil {
				return err
			}
			if err := r.in.Insert(p, tx, "t", i, []byte("v")); err != nil {
				return err
			}
			if err := r.in.Commit(p, tx); err != nil {
				return err
			}
		}
		for _, stmt := range []string{
			"SHOW STATUS",
			"ALTER SYSTEM SWITCH LOGFILE",
			"ALTER SYSTEM CHECKPOINT",
			"ALTER DATABASE DATAFILE 'USERS_01.dbf' OFFLINE",
			"SHOW STATUS",
		} {
			out, err := r.ex.Execute(p, stmt)
			if err != nil {
				return err
			}
			fmt.Fprintf(&got, "SQL> %s\n%s\n", stmt, out)
		}
		if _, err := r.ex.Execute(p, "SHOW TABLES"); err == nil {
			return fmt.Errorf("SHOW TABLES accepted")
		}
		return nil
	})
	checkGolden(t, "status.golden", got.String())
}

// TestShowParameters pins SHOW PARAMETERS as a synonym: it prints the
// V$PARAMETER table (whose bytes TestVParameterGolden pins).
func TestShowParameters(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if _, err := r.ex.Execute(p, "ALTER SYSTEM SET log_groups = 5"); err != nil {
			return err
		}
		out, err := r.ex.Execute(p, "SHOW PARAMETERS")
		if err != nil {
			return err
		}
		view, err := r.ex.Execute(p, "SELECT * FROM V$PARAMETER")
		if err != nil {
			return err
		}
		if out != view || !strings.Contains(out, "log_groups") || !strings.Contains(out, "PENDING") {
			return fmt.Errorf("SHOW PARAMETERS is not the V$PARAMETER table:\n%s\n--- V$PARAMETER:\n%s", out, view)
		}
		return nil
	})
}

// TestShowUnknownListsTargets pins the discoverability contract: an
// unknown SHOW target names the valid ones instead of a bare syntax
// error.
func TestShowUnknownListsTargets(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		_, err := r.ex.Execute(p, "SHOW FROBNICATORS")
		if err == nil {
			return fmt.Errorf("SHOW FROBNICATORS accepted")
		}
		if !errors.Is(err, ErrSyntax) {
			return fmt.Errorf("err = %v, want ErrSyntax", err)
		}
		for _, want := range []string{"STATUS", "PARAMETERS"} {
			if !strings.Contains(err.Error(), want) {
				return fmt.Errorf("error %q does not list target %s", err, want)
			}
		}
		// Bare SHOW gets the same listing.
		if _, err := r.ex.Execute(p, "SHOW"); err == nil || !strings.Contains(err.Error(), "STATUS") {
			return fmt.Errorf("bare SHOW err = %v, want target listing", err)
		}
		return nil
	})
}

func TestSelectVViews(t *testing.T) {
	r := newRigWith(t, func(c *engine.Config) {
		c.SampleInterval = 500 * time.Millisecond
	})
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		p.Sleep(2 * time.Second) // let MMON tick a few times
		out, err := r.ex.Execute(p, "SELECT * FROM V$SYSSTAT")
		if err != nil {
			return err
		}
		for _, want := range []string{"NAME", "VALUE", "engine.checkpoints", "rows selected"} {
			if !strings.Contains(out, want) {
				return fmt.Errorf("V$SYSSTAT missing %q:\n%s", want, out)
			}
		}
		out, err = r.ex.Execute(p, "SELECT * FROM V$METRIC")
		if err != nil {
			return err
		}
		for _, want := range []string{"redo_bytes_per_sec", "commits_per_sec", "cache.dirty"} {
			if !strings.Contains(out, want) {
				return fmt.Errorf("V$METRIC missing %q:\n%s", want, out)
			}
		}
		out, err = r.ex.Execute(p, "SELECT * FROM V$RECOVERY_ESTIMATE")
		if err != nil {
			return err
		}
		for _, want := range []string{"scan_records", "redo_replay_est", "restart_est", "calibrations"} {
			if !strings.Contains(out, want) {
				return fmt.Errorf("V$RECOVERY_ESTIMATE missing %q:\n%s", want, out)
			}
		}
		// Unknown view: error lists the valid ones.
		if _, err := r.ex.Execute(p, "SELECT * FROM V$NOPE"); err == nil ||
			!strings.Contains(err.Error(), "V$SYSSTAT") {
			return fmt.Errorf("unknown view err = %v, want view listing", err)
		}
		// Malformed SELECT.
		if _, err := r.ex.Execute(p, "SELECT name FROM V$SYSSTAT"); !errors.Is(err, ErrSyntax) {
			return fmt.Errorf("projected SELECT err = %v, want ErrSyntax", err)
		}
		return nil
	})
}

// TestSelectVViewsDisabled pins the disabled-repository message: the V$
// views name the knob to turn instead of failing opaquely.
func TestSelectVViewsDisabled(t *testing.T) {
	r := newRig(t) // SampleInterval zero: no repository
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		_, err := r.ex.Execute(p, "SELECT * FROM V$SYSSTAT")
		if err == nil || !strings.Contains(err.Error(), "SampleInterval") {
			return fmt.Errorf("disabled V$ err = %v, want SampleInterval hint", err)
		}
		return nil
	})
}
