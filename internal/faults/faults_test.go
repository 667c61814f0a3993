package faults

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
	"dbench/internal/trace"
)

func TestClassificationCoversAllClasses(t *testing.T) {
	counts := make(map[Class]int)
	for _, ti := range Classification {
		counts[ti.Class]++
	}
	// Paper Table 2 row counts per class.
	want := map[Class]int{
		ClassMemoryProcesses:    5,
		ClassSecurity:           5,
		ClassStorage:            9,
		ClassObjects:            5,
		ClassRecoveryMechanisms: 7,
	}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("%v: %d rows, want %d", c, counts[c], n)
		}
	}
	if len(Faultload()) != 6 {
		t.Errorf("faultload = %d types, want 6", len(Faultload()))
	}
	if got := len(ByClass(ClassStorage)); got != 9 {
		t.Errorf("ByClass(storage) = %d", got)
	}
}

func TestCompleteRecoveryClassification(t *testing.T) {
	complete := []Kind{ShutdownAbort, DeleteDatafile, SetDatafileOffline, SetTablespaceOffline}
	incomplete := []Kind{DeleteTablespace, DeleteUsersObject, TruncateTable, MisroutedBatchUpdate}
	for _, k := range complete {
		if !k.CompleteRecovery() {
			t.Errorf("%v should be complete recovery", k)
		}
	}
	for _, k := range incomplete {
		if k.CompleteRecovery() {
			t.Errorf("%v should be incomplete recovery", k)
		}
	}
}

type rig struct {
	k   *sim.Kernel
	in  *engine.Instance
	bk  *backup.Manager
	inj *Injector
	err error
}

func newRig(t *testing.T) *rig { return newRigWith(t, 1, nil) }

// newRigWith is newRig at a given recovery fan-out, traced when tr is
// non-nil.
func newRigWith(t *testing.T, workers int, tr *trace.Tracer) *rig {
	t.Helper()
	k := sim.NewKernel(9)
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
	cfg.RecoveryParallelism = workers
	cfg.Tracer = tr
	in, err := engine.New(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := recovery.NewManager(in, bk)
	ex := sqladmin.NewExecutor(in, rm, bk)
	return &rig{k: k, in: in, bk: bk, inj: NewInjector(in, rm, ex)}
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
	if err := r.in.CreateTableClustered(p, "t", "app", "USERS", 8, 1); err != nil {
		return err
	}
	for i := int64(0); i < 40; i++ {
		tx, err := r.in.Begin()
		if err != nil {
			return err
		}
		if err := r.in.Insert(p, tx, "t", i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			return err
		}
		if err := r.in.Commit(p, tx); err != nil {
			return err
		}
	}
	if err := r.in.Checkpoint(p); err != nil {
		return err
	}
	if _, err := r.bk.TakeFull(p, r.in.DB(), r.in.Catalog(), r.in.DB().Control.CheckpointSCN); err != nil {
		return err
	}
	return r.in.ForceLogSwitch(p)
}

func (r *rig) verifyData(p *sim.Proc, n int64) error {
	for i := int64(0); i < n; i++ {
		tx, err := r.in.Begin()
		if err != nil {
			return err
		}
		v, err := r.in.Read(p, tx, "t", i)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			return fmt.Errorf("row %d = %q", i, v)
		}
		if err := r.in.Commit(p, tx); err != nil {
			return err
		}
	}
	return nil
}

func TestAllSixFaultsInjectAndRecover(t *testing.T) {
	targets := map[Kind]string{
		ShutdownAbort:        "",
		DeleteDatafile:       "USERS_01.dbf",
		DeleteTablespace:     "USERS",
		SetDatafileOffline:   "USERS_01.dbf",
		SetTablespaceOffline: "USERS",
		DeleteUsersObject:    "t",
	}
	for _, kind := range Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) error {
				if err := r.setup(p); err != nil {
					return err
				}
				o, err := r.inj.InjectAndRecover(p, Fault{Kind: kind, Target: targets[kind]})
				if err != nil {
					return err
				}
				if o.RecoveryDuration() <= 0 {
					return fmt.Errorf("recovery duration %v", o.RecoveryDuration())
				}
				// Single-table logical faults recover by flashback (a
				// complete recovery of the database: only the damaged
				// table is rewound); the rest follow the kind's static
				// classification.
				wantComplete := kind.CompleteRecovery() || isLogicalFault(kind)
				if o.Report != nil && o.Report.Complete != wantComplete {
					return fmt.Errorf("complete=%v, want %v", o.Report.Complete, wantComplete)
				}
				// All committed data back, engine serving.
				if err := r.verifyData(p, 40); err != nil {
					return fmt.Errorf("after %v: %w", kind, err)
				}
				return nil
			})
		})
	}
}

func TestOfflineTablespaceRecoveryIsFast(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		o, err := r.inj.InjectAndRecover(p, Fault{Kind: SetTablespaceOffline, Target: "USERS"})
		if err != nil {
			return err
		}
		// The paper: "always close to 1 second".
		if d := o.RecoveryDuration(); d > 3*time.Second {
			return fmt.Errorf("offline tablespace recovery took %v", d)
		}
		return nil
	})
}

// TestLogicalFaultsFlashbackThenPhysicalBaseline drives every
// single-table logical fault through both remedies: the preferred
// FLASHBACK TABLE (instance stays open, table rewound from redo) and the
// forced physical point-in-time baseline. Both must bring every
// pre-fault row back.
func TestLogicalFaultsFlashbackThenPhysicalBaseline(t *testing.T) {
	for _, kind := range []Kind{DeleteUsersObject, TruncateTable, MisroutedBatchUpdate} {
		for _, force := range []bool{false, true} {
			name := fmt.Sprintf("%v/force_physical=%v", kind, force)
			t.Run(name, func(t *testing.T) {
				r := newRig(t)
				r.inj.ForcePhysical = force
				r.run(t, func(p *sim.Proc) error {
					if err := r.setup(p); err != nil {
						return err
					}
					o, err := r.inj.InjectAndRecover(p, Fault{Kind: kind, Target: "t"})
					if err != nil {
						return err
					}
					wantKind := recovery.KindFlashback
					if force {
						wantKind = recovery.KindPointInTime
					}
					if o.Report == nil || o.Report.Kind != wantKind {
						return fmt.Errorf("report = %+v, want kind %v", o.Report, wantKind)
					}
					if !force && !o.Localized {
						return fmt.Errorf("flashback outcome not localized")
					}
					if err := r.verifyData(p, 40); err != nil {
						return fmt.Errorf("after %v: %w", kind, err)
					}
					return nil
				})
			})
		}
	}
}

func TestIncompleteRecoveryLosesPostBackupGapCommits(t *testing.T) {
	r := newRig(t)
	// This test pins the physical point-in-time path's gap semantics.
	r.run(t, func(p *sim.Proc) error {
		r.inj.ForcePhysical = true
		if err := r.setup(p); err != nil {
			return err
		}
		// Commit more work, drop the table, then commit nothing else
		// (the DB is down to the app once its table is gone).
		for i := int64(40); i < 50; i++ {
			tx, _ := r.in.Begin()
			_ = r.in.Insert(p, tx, "t", i, []byte(fmt.Sprintf("v%d", i)))
			if err := r.in.Commit(p, tx); err != nil {
				return err
			}
		}
		o, err := r.inj.InjectAndRecover(p, Fault{Kind: DeleteUsersObject, Target: "t"})
		if err != nil {
			return err
		}
		if o.Report == nil || o.Report.Kind != recovery.KindPointInTime {
			return fmt.Errorf("report = %+v", o.Report)
		}
		// Work committed before the fault is all preserved (PITR to
		// just before the drop).
		if err := r.verifyData(p, 50); err != nil {
			return err
		}
		if o.Report.LostCommits != 0 {
			return fmt.Errorf("lost commits = %d, want 0 (nothing after the drop)", o.Report.LostCommits)
		}
		return nil
	})
}
