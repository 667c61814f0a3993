package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbench/internal/sim"
	"dbench/internal/tpcc"
	"dbench/internal/trace"
)

// TestRigStandbyMatchesPrimaryAfterLoad pins the instantiate-from-backup
// contract Run and the chaos harness both rely on: a stand-by holds, block
// for block, the datafile images of the loaded and checkpointed primary — so
// redo streamed from the reference backup's SCN applies to the stand-by
// exactly as it would to the backup. And it holds them because the rig
// installed its one generated set into it, image by image: nothing was
// generated a second time.
// (chaos.TestStandbysShareTheLoadedImagesAndNobodyWritesThrough adds that the
// state hashes agree and that nobody writes through.)
func TestRigStandbyMatchesPrimaryAfterLoad(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 11
	spec.TPCC = tinyScale().TPCC
	spec.Archive = true
	spec.CacheBlocks = 512
	rig, err := NewRig(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = rig.Exec("rig-test", func(p *sim.Proc) error {
		if err := rig.Load(p); err != nil {
			return err
		}
		set := rig.set
		if len(set) != len(tpcc.Tables) {
			return fmt.Errorf("the rig holds a set of %d tables after Load, want %d", len(set), len(tpcc.Tables))
		}
		for _, name := range []string{"standby1", "standby2"} {
			sb, err := rig.Standby(p, name)
			if err != nil {
				return err
			}
			if got := sb.AppliedSCN(); got != rig.backupSCN {
				t.Errorf("%s starts at SCN %d, want the reference backup's %d", name, got, rig.backupSCN)
			}
			primary, replica := rig.In.DB().Datafiles(), sb.Instance().DB().Datafiles()
			if len(primary) == 0 || len(primary) != len(replica) {
				return fmt.Errorf("datafiles: primary %d, %s %d", len(primary), name, len(replica))
			}
			for i, f := range primary {
				g := replica[i]
				if f.Name != g.Name || f.NumBlocks() != g.NumBlocks() {
					t.Errorf("file %d: primary %s (%d blocks), %s %s (%d blocks)",
						i, f.Name, f.NumBlocks(), name, g.Name, g.NumBlocks())
					continue
				}
				for no := 0; no < f.NumBlocks(); no++ {
					a, b := f.PeekBlock(no), g.PeekBlock(no)
					if a.SCN != b.SCN || a.Corrupt != b.Corrupt || !reflect.DeepEqual(a.Rows, b.Rows) {
						t.Errorf("%s block %d differs between primary and %s", f.Name, no, name)
						break
					}
				}
			}
			// Every image of the set is the image the stand-by's table
			// holds at that position: installed, not copied or redrawn.
			loaded := 0
			for table, images := range set {
				tbl, err := sb.Instance().Catalog().Table(table)
				if err != nil {
					return err
				}
				for pos, img := range images {
					if img == nil {
						continue
					}
					loaded++
					if ref := tbl.Blocks()[pos]; ref.File.PeekBlock(ref.No) != img {
						return fmt.Errorf("%s: block %d of %s is not the set's image", name, pos, table)
					}
				}
			}
			if loaded == 0 {
				return fmt.Errorf("the set holds no image")
			}
		}
		rig.ReleaseLoadSet()
		if rig.set != nil {
			t.Error("the set is still reachable from the rig after ReleaseLoadSet")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// panicSink stands for any bug that panics inside a simulated process: it
// blows up on the first event traced after the given virtual time.
type panicSink struct{ after sim.Time }

func (s panicSink) Emit(ev trace.Event) {
	if ev.Start >= s.after {
		panic("sink exploded")
	}
}

// TestProcessPanicFailsOnlyItsOwnJob: a panic inside a simulated process
// used to re-panic on that process's goroutine and kill the whole campaign
// process. It now comes back from Run as an error naming the process and
// the virtual time, the run's other processes are torn down, and the jobs
// after it run as if nothing had happened.
func TestProcessPanicFailsOnlyItsOwnJob(t *testing.T) {
	sc := tinyScale()
	sc.Duration = 20 * time.Second
	good := sc.spec(Table3Configs[0])
	bad := sc.spec(Table3Configs[0])
	bad.Tracer = trace.New(panicSink{after: sim.Time(5 * time.Second)})

	want, err := Run(good)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_, err = Run(bad)
	if err == nil || !strings.Contains(err.Error(), `sim: process "`) || !strings.Contains(err.Error(), "sink exploded") {
		t.Fatalf("the panicking run returned %v, want an error naming the process", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the aborted run, %d before: its processes were not torn down", n, before)
	}
	got, err := Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if got.TpmC != want.TpmC || got.TpmC <= 0 {
		t.Errorf("run after the aborted one: tpmC %v, want %v", got.TpmC, want.TpmC)
	}
}

// TestExecTeardownPanicsStayInside: a process killed before its first step
// still runs its body on that step, so tearing a run down can raise panics
// of its own. They are not the run's: a body that returned nil leaves Exec
// with nil, one that failed with its own error, and neither the first such
// panic nor a second one escapes Exec.
func TestExecTeardownPanicsStayInside(t *testing.T) {
	bodyErr := errors.New("body failed")
	for _, want := range []error{nil, bodyErr} {
		rig, err := NewRig(DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		var got error
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("Exec let a teardown panic escape: %v", rec)
				}
			}()
			got = rig.Exec("teardown-test", func(p *sim.Proc) error {
				for _, name := range []string{"a", "b"} {
					rig.K.Go(name, func(*sim.Proc) { panic("unstarted " + name) })
				}
				return want
			})
		}()
		if got != want {
			t.Errorf("body returned %v: Exec returned %v", want, got)
		}
	}
}

// TestExecTeardownFailsOnARunsPanic: a panic in teardown from a process that
// had already run — here a deferred cleanup with a defect — is the run's,
// so a body that returned nil comes back aborted; a body's own error still
// stands first.
func TestExecTeardownFailsOnARunsPanic(t *testing.T) {
	bodyErr := errors.New("body failed")
	for _, ret := range []error{nil, bodyErr} {
		rig, err := NewRig(DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		got := rig.Exec("teardown-test", func(p *sim.Proc) error {
			rig.K.Go("cleanup", func(q *sim.Proc) {
				defer func() { panic("broken cleanup") }()
				q.Sleep(time.Hour)
			})
			p.Sleep(time.Second)
			return ret
		})
		switch {
		case ret != nil && got != ret:
			t.Errorf("body returned %v: Exec returned %v", ret, got)
		case ret == nil && (got == nil || !strings.Contains(got.Error(), "broken cleanup")):
			t.Errorf("body returned nil: Exec returned %v, want the cleanup's panic", got)
		}
	}
}
