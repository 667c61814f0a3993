package recovery_test

import (
	"fmt"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/sqladmin"
)

// Point-in-time recovery rolls the restored backup forward through a DROP
// issued after it: the roll-forward replays the logged DDL, so the object
// is gone once the database opens, and every row committed around the drop
// to the objects that stayed is there. One fresh rig per statement.
func TestRollForwardReplaysADrop(t *testing.T) {
	cases := []struct {
		stmt string
		gone func(in *engine.Instance) error // nil when the object is gone
	}{
		{"DROP TABLE gone", func(in *engine.Instance) error {
			_, err := in.Catalog().Table("gone")
			return absent("table gone", err)
		}},
		{"DROP USER victim CASCADE", func(in *engine.Instance) error {
			if _, err := in.Catalog().User("victim"); err == nil {
				return fmt.Errorf("user victim is back")
			}
			_, err := in.Catalog().Table("owned")
			return absent("table owned", err)
		}},
		{"DROP TABLESPACE HIST INCLUDING CONTENTS", func(in *engine.Instance) error {
			if _, err := in.DB().Tablespace("HIST"); err == nil {
				return fmt.Errorf("tablespace HIST is back")
			}
			_, err := in.Catalog().Table("inhist")
			return absent("table inhist", err)
		}},
	}
	for _, c := range cases {
		t.Run(c.stmt, func(t *testing.T) {
			k, in, ex := newDropRig(t)
			var failed error
			k.Go("dba", func(p *sim.Proc) {
				failed = func() error {
					if err := setupDropRig(p, in); err != nil {
						return err
					}
					// Row i of table tb holds "tb-i"; keep gets rows 0-29 in
					// three batches: before the backup, between it and the
					// drop, and after the drop.
					if err := commitRows(p, in, 0, 10, "keep", "gone", "owned", "inhist"); err != nil {
						return err
					}
					if _, err := ex.Execute(p, "BACKUP DATABASE"); err != nil {
						return err
					}
					if err := commitRows(p, in, 10, 20, "keep", "gone", "owned", "inhist"); err != nil {
						return err
					}
					if _, err := ex.Execute(p, c.stmt); err != nil {
						return err
					}
					if err := commitRows(p, in, 20, 30, "keep"); err != nil {
						return err
					}
					until := in.Log().NextSCN() - 1
					if _, err := ex.Execute(p, fmt.Sprintf("RECOVER DATABASE UNTIL SCN %d", until)); err != nil {
						return err
					}
					if err := c.gone(in); err != nil {
						return err
					}
					for _, tb := range []string{"keep", "gone", "owned", "inhist"} {
						if _, err := in.Catalog().Table(tb); err != nil {
							continue // the drop took it
						}
						n := int64(20)
						if tb == "keep" {
							n = 30
						}
						if err := readRows(p, in, tb, n); err != nil {
							return err
						}
					}
					return nil
				}()
			})
			k.Run(sim.Time(100 * time.Hour))
			if failed != nil {
				t.Fatal(failed)
			}
		})
	}
}

func absent(what string, err error) error {
	if err == nil {
		return fmt.Errorf("%s is back", what)
	}
	return nil
}

func newDropRig(t *testing.T) (*sim.Kernel, *engine.Instance, *sqladmin.Executor) {
	t.Helper()
	k := sim.NewKernel(11)
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
	in, err := engine.New(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bk := backup.NewManager(k, fs, engine.DiskArch)
	return k, in, sqladmin.NewExecutor(in, recovery.NewManager(in, bk), bk)
}

// setupDropRig opens a database of two tablespaces and two users: keep and
// gone belong to app in USERS, owned to victim in USERS, inhist to app in
// HIST.
func setupDropRig(p *sim.Proc, in *engine.Instance) error {
	for _, ts := range []struct{ name, disk string }{{"USERS", engine.DiskData1}, {"HIST", engine.DiskData2}} {
		if _, err := in.CreateTablespace(p, ts.name, []string{ts.disk}, 64); err != nil {
			return err
		}
	}
	for _, u := range []string{"app", "victim"} {
		if err := in.CreateUser(p, u, "USERS"); err != nil {
			return err
		}
	}
	if err := in.Open(p); err != nil {
		return err
	}
	for _, tb := range []struct{ name, owner, ts string }{
		{"keep", "app", "USERS"}, {"gone", "app", "USERS"}, {"owned", "victim", "USERS"}, {"inhist", "app", "HIST"},
	} {
		if err := in.CreateTableClustered(p, tb.name, tb.owner, tb.ts, 8, 1); err != nil {
			return err
		}
	}
	return nil
}

// commitRows commits rows [from, to) of each table, one transaction a row
// across all of them.
func commitRows(p *sim.Proc, in *engine.Instance, from, to int64, tables ...string) error {
	for i := from; i < to; i++ {
		tx, err := in.Begin()
		if err != nil {
			return err
		}
		for _, tb := range tables {
			if err := in.Insert(p, tx, tb, i, []byte(fmt.Sprintf("%s-%d", tb, i))); err != nil {
				return err
			}
		}
		if err := in.Commit(p, tx); err != nil {
			return err
		}
	}
	return nil
}

// readRows checks that rows [0, n) of tb read back as committed.
func readRows(p *sim.Proc, in *engine.Instance, tb string, n int64) error {
	tx, err := in.Begin()
	if err != nil {
		return err
	}
	for i := int64(0); i < n; i++ {
		v, err := in.Read(p, tx, tb, i)
		if want := fmt.Sprintf("%s-%d", tb, i); err != nil || string(v) != want {
			return fmt.Errorf("%s[%d] after recovery: %q, %v; want %q", tb, i, v, err, want)
		}
	}
	return in.Commit(p, tx)
}
