package faults

import (
	"strings"
	"testing"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
)

// TestInjectStampsPreFaultSCNAtomically is the regression test for the
// outcome-accounting bug: Inject used to read PreFaultSCN when the
// operator picked up the keyboard and InjectedAt only after the 500 ms
// admin action landed, so commits acknowledged during the operator
// action had SCN > PreFaultSCN yet At < InjectedAt — point-in-time
// recovery to PreFaultSCN would discard commits the outcome claimed
// happened before the fault. Both must be captured at the instant the
// destructive action takes effect: a concurrent committer must never
// observe an acknowledgement before InjectedAt whose SCN is beyond
// PreFaultSCN.
func TestInjectStampsPreFaultSCNAtomically(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		// The committer writes a table the operator does NOT drop: DROP
		// TABLE's exclusive DDL lock drains writers on its own target, so
		// only traffic to other tables can still race the operator action.
		if err := r.in.CreateTableClustered(p, "u", "app", "USERS", 8, 1); err != nil {
			return err
		}
		type ack struct {
			scn redo.SCN
			at  sim.Time
		}
		var acks []ack
		stop, done := false, false
		r.k.Go("committer", func(cp *sim.Proc) {
			defer func() { done = true }()
			for i := int64(5000); !stop; i++ {
				tx, err := r.in.Begin()
				if err != nil {
					return
				}
				if err := r.in.Insert(cp, tx, "u", i, []byte("x")); err != nil {
					_ = r.in.Rollback(cp, tx)
					return
				}
				if err := r.in.Commit(cp, tx); err != nil {
					return
				}
				acks = append(acks, ack{scn: tx.CommitSCN, at: cp.Now()})
				cp.Sleep(5 * time.Millisecond)
			}
		})
		p.Sleep(50 * time.Millisecond)
		callStart := p.Now()
		o, err := r.inj.Inject(p, Fault{Kind: DeleteUsersObject, Target: "t"})
		stop = true
		if err != nil {
			return err
		}
		injectReturned := p.Now()
		for !done {
			p.Sleep(time.Millisecond)
		}
		if o.InjectedAt <= callStart {
			t.Errorf("InjectedAt %v not after the operator action started at %v", o.InjectedAt, callStart)
		}
		// The scenario must actually exercise the race: commits the
		// engine acknowledged while the operator action was still in
		// flight, yet whose SCN is past the recovery boundary. These are
		// exactly the acks the old stamping mislabelled as pre-fault
		// (PreFaultSCN read at call entry, InjectedAt only at return).
		during := 0
		for _, a := range acks {
			if a.scn > o.PreFaultSCN && a.at < injectReturned {
				during++
			}
		}
		if during == 0 {
			t.Fatalf("no commits raced the operator action; %d total acks, callStart=%v injectedAt=%v returned=%v",
				len(acks), callStart, o.InjectedAt, injectReturned)
		}
		// The atomic-stamping invariant: an ack before InjectedAt is
		// pre-fault work, so its SCN must be covered by PreFaultSCN —
		// point-in-time recovery to PreFaultSCN never discards a commit
		// the outcome's timeline says predates the fault.
		for _, a := range acks {
			if a.scn > o.PreFaultSCN && a.at < o.InjectedAt {
				t.Errorf("commit SCN %d acked at %v: beyond PreFaultSCN %d yet before InjectedAt %v",
					a.scn, a.at, o.PreFaultSCN, o.InjectedAt)
			}
		}
		return nil
	})
}

// TestOutcomeDurations pins the two windows apart: RecoveryDuration is
// the paper's procedure time (from detection), OutageDuration the
// end-user window (from the fault-effect instant, detection included).
func TestOutcomeDurations(t *testing.T) {
	o := &Outcome{
		InjectedAt:  sim.Time(10 * time.Second),
		DetectedAt:  sim.Time(12 * time.Second),
		RecoveredAt: sim.Time(45 * time.Second),
	}
	if got := o.RecoveryDuration(); got != 33*time.Second {
		t.Errorf("RecoveryDuration = %v, want 33s", got)
	}
	if got := o.OutageDuration(); got != 35*time.Second {
		t.Errorf("OutageDuration = %v, want 35s", got)
	}
	if o.OutageDuration() < o.RecoveryDuration() {
		t.Error("outage window must cover the recovery window")
	}
}

// TestKillUserSessionRecoverIsBounded wedges PMON — the killed session's
// transaction cannot be rolled back because its tablespace went offline
// right after the kill — and asserts Recover gives up with a
// descriptive error at the cleanup deadline instead of polling forever.
func TestKillUserSessionRecoverIsBounded(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		// The victim session: in-flight work on "t" in USERS.
		tx, err := r.in.Begin()
		if err != nil {
			return err
		}
		if err := r.in.Insert(p, tx, "t", 9000, []byte("victim")); err != nil {
			return err
		}
		o, err := r.inj.Inject(p, Fault{Kind: KillUserSession})
		if err != nil {
			return err
		}
		if n := r.in.Txns().ZombieCount(); n != 1 {
			t.Fatalf("zombie count after kill = %d, want 1", n)
		}
		// Wedge the cleanup: PMON's compensating writes need USERS, and
		// USERS just went offline.
		if err := r.in.OfflineTablespaceForRecovery(p, "USERS"); err != nil {
			return err
		}
		start := p.Now()
		err = r.inj.Recover(p, o)
		if err == nil {
			t.Fatal("Recover returned nil with a wedged zombie")
		}
		if !strings.Contains(err.Error(), "did not clean up") {
			t.Errorf("error %q does not describe the wedged cleanup", err)
		}
		elapsed := p.Now().Sub(start)
		if elapsed > r.inj.Detection+zombieCleanupDeadline+time.Second {
			t.Errorf("Recover took %v, want bounded by detection %v + deadline %v",
				elapsed, r.inj.Detection, zombieCleanupDeadline)
		}
		if r.in.Txns().ZombieCount() == 0 {
			t.Error("zombie vanished despite its tablespace being offline")
		}
		return nil
	})
}
