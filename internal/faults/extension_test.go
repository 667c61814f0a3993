package faults

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/trace"
)

// The extension fault kinds (other paper Table 2 rows) and negative
// failure-injection scenarios beyond the six-type faultload.

func TestCorruptDatafileRecovers(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		o, err := r.inj.InjectAndRecover(p, Fault{Kind: CorruptDatafile, Target: "USERS_01.dbf"})
		if err != nil {
			return err
		}
		if o.Report == nil || !o.Report.Complete {
			return fmt.Errorf("report = %+v", o.Report)
		}
		return r.verifyData(p, 40)
	})
}

func TestKillUserSessionRolledBackByPMON(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		// A session with an in-flight transaction.
		tx, err := r.in.Begin()
		if err != nil {
			return err
		}
		if err := r.in.Insert(p, tx, "t", 999, []byte("in-flight")); err != nil {
			return err
		}
		o, err := r.inj.InjectAndRecover(p, Fault{Kind: KillUserSession})
		if err != nil {
			return err
		}
		if d := o.RecoveryDuration(); d > 10*time.Second {
			return fmt.Errorf("PMON cleanup took %v", d)
		}
		// The killed transaction's work is gone; committed data intact.
		check, _ := r.in.Begin()
		if _, err := r.in.Read(p, check, "t", 999); err == nil {
			return fmt.Errorf("killed session's insert survived")
		}
		_ = r.in.Rollback(p, check)
		return r.verifyData(p, 40)
	})
}

// A second fault inside the first: USERS goes offline while the mis-routed
// batch is writing t. The batch fails and so does its rollback, so it goes
// to PMON instead of holding its row locks forever; once USERS is recovered
// and online, PMON rolls it back and t holds its pre-fault rows.
func TestMisroutedBatchHandsFailedRollbackToPMON(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		var offErr error
		dba := r.k.Go("dba", func(p *sim.Proc) {
			for r.in.Txns().ActiveWritersOn("t") == 0 {
				p.Sleep(time.Millisecond)
			}
			offErr = r.in.OfflineTablespaceForRecovery(p, "USERS")
		})
		if _, err := r.inj.Inject(p, Fault{Kind: MisroutedBatchUpdate, Target: "t"}); err == nil {
			return fmt.Errorf("the batch committed with its tablespace going offline under it")
		}
		for !dba.Done() {
			p.Sleep(10 * time.Millisecond)
		}
		if offErr != nil {
			return offErr
		}
		if n := r.in.Txns().ZombieCount(); n != 1 {
			return fmt.Errorf("%d zombie(s) after the failed batch, want 1", n)
		}
		if _, err := r.inj.rm.OnlineTablespaceRecovery(p, "USERS"); err != nil {
			return err
		}
		for deadline := p.Now().Add(2 * time.Second); r.in.Txns().ActiveCount() > 0; p.Sleep(100 * time.Millisecond) {
			if p.Now() > deadline {
				return fmt.Errorf("%d transaction(s) still active 2s after USERS came back", r.in.Txns().ActiveCount())
			}
		}
		return r.verifyData(p, 40)
	})
}

func TestKillSessionWithNoActiveTxnIsNoop(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if _, err := r.inj.InjectAndRecover(p, Fault{Kind: KillUserSession}); err != nil {
			return err
		}
		return r.verifyData(p, 40)
	})
}

// TestDeletedArchiveLogBreaksMediaRecovery is the consequence of the
// Table 2 "delete an archive log file" mistake: a media recovery that
// needs the deleted archive fails with a diagnosable error instead of
// silently losing data — and fails cleanly, at one apply worker and at
// four: the error comes back, no apply process is left running, every
// span is closed with the failure on the recovery's root span, and once
// the archive is put back a second attempt recovers the datafile to the
// image an undisturbed in-order recovery of the same history produces.
func TestDeletedArchiveLogBreaksMediaRecovery(t *testing.T) {
	want := lostArchiveRecovery(t, 1, false)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := lostArchiveRecovery(t, workers, true)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("datafile image after the retried recovery differs from the undisturbed recovery's")
			}
		})
	}
}

// lostArchiveRecovery deletes a datafile after a few archived logs' worth
// of commits and media-recovers it, returning the recovered block images.
// With loseArchive the last archived log is deleted first, so the first
// attempt must fail — after the earlier archives were read (and, with an
// apply crew, already being replayed) — and is retried with the archive
// back in place.
func lostArchiveRecovery(t *testing.T, workers int, loseArchive bool) []*storage.Block {
	ring := &trace.RingSink{}
	tr := trace.New(ring)
	r := newRigWith(t, workers, tr)
	var images []*storage.Block
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		// Generate enough redo to archive a few logs.
		for i := int64(100); i < 4000; i++ {
			tx, err := r.in.Begin()
			if err != nil {
				return err
			}
			if err := r.in.Insert(p, tx, "t", i, make([]byte, 1024)); err != nil {
				return err
			}
			if err := r.in.Commit(p, tx); err != nil {
				return err
			}
		}
		p.Sleep(5 * time.Second) // drain ARCH
		logs := r.in.Archiver().Inventory().Logs()
		if len(logs) < 2 {
			return fmt.Errorf("need archived logs, got %d", len(logs))
		}
		lostLog := logs[len(logs)-1]
		if loseArchive {
			// Second operator mistake: delete an archived log.
			if err := r.in.FS().Delete(lostLog.File().Name()); err != nil {
				return err
			}
		}
		o, err := r.inj.Inject(p, Fault{Kind: DeleteDatafile, Target: "USERS_01.dbf"})
		if err != nil {
			return err
		}
		if loseArchive {
			// Now the "delete datafile" fault cannot be recovered.
			if err := r.inj.Recover(p, o); err == nil {
				return fmt.Errorf("media recovery succeeded despite a lost archive log")
			}
			for _, lp := range r.k.Live() {
				if strings.HasPrefix(lp.Name(), "recovery-") {
					return fmt.Errorf("process %s still running after the failed recovery", lp.Name())
				}
			}
			if n := tr.OpenSpans(); n != 0 {
				return fmt.Errorf("%d spans left open by the failed recovery", n)
			}
			var rootErr string
			applied := false
			for _, ev := range ring.Events() {
				if ev.Kind != trace.KindSpan || ev.Cat != trace.CatRecovery {
					continue
				}
				applied = applied || ev.Name == "apply worker"
				for _, a := range ev.Attrs[:ev.NAttrs] {
					if ev.Parent == 0 && a.Key == "error" {
						rootErr = a.Str
					}
				}
			}
			if !strings.Contains(rootErr, "lost") {
				return fmt.Errorf("failed recovery's root span carries error=%q, want the lost archive", rootErr)
			}
			if workers > 1 && !applied {
				return fmt.Errorf("scan failed before the crew replayed anything: the abort was not exercised")
			}
			// The operator finds a copy of the archive; the same procedure,
			// re-run over the half-recovered file, now completes.
			if _, err := r.in.FS().Restore(lostLog.File().Name(), lostLog.Bytes); err != nil {
				return err
			}
		}
		if err := r.inj.Recover(p, o); err != nil {
			return err
		}
		f, err := r.in.DB().Datafile("USERS_01.dbf")
		if err != nil {
			return err
		}
		images = f.SnapshotImages()
		return r.verifyData(p, 40)
	})
	return images
}

// TestControlFileLossIsFatal is the Table 2 "delete a controlfile"
// mistake: the instance dies and cannot restart without the control file.
func TestControlFileLossIsFatal(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if err := r.in.FS().Delete("control.ctl"); err != nil {
			return err
		}
		// The next checkpoint hits the control file and crashes the
		// instance.
		if err := r.in.Checkpoint(p); err == nil {
			return fmt.Errorf("checkpoint survived control file loss")
		}
		if err := r.in.Open(p); err == nil {
			return fmt.Errorf("open succeeded without control file")
		}
		return nil
	})
}

// TestDoubleFaultDatafileThenCrash exercises a fault during an outage
// window: the datafile is deleted, and before the DBA reacts the instance
// also crashes. Crash recovery skips the lost file; media recovery then
// brings it back, and no committed data is lost.
func TestDoubleFaultDatafileThenCrash(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		if err := r.in.FS().Delete("USERS_01.dbf"); err != nil {
			return err
		}
		r.in.Crash()
		if _, err := r.inj.rm.InstanceRecovery(p); err != nil {
			return err
		}
		// Media recovery of the deleted file.
		if _, err := r.inj.rm.RestoreAndRecoverDatafile(p, "USERS_01.dbf"); err != nil {
			return err
		}
		return r.verifyData(p, 40)
	})
}
