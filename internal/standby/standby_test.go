package standby

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dbench/internal/archivelog"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
	"dbench/internal/trace"
	"dbench/internal/txn"
)

// pair is a primary + stand-by rig sharing one simulation kernel, with
// archive shipping wired between them.
type pair struct {
	k       *sim.Kernel
	primary *engine.Instance
	sb      *Standby
	err     error
}

func machineFS() *simdisk.FS {
	return simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
}

func newPair(t *testing.T, groupSize int64, groups int) *pair {
	t.Helper()
	return newPairWith(t, groupSize, groups, DefaultConfig(), nil)
}

// newPairWith is newPair with the stand-by's machinery costs and, when
// sbTracer is set, a tracer on the stand-by instance.
func newPairWith(t *testing.T, groupSize int64, groups int, scfg Config, sbTracer *trace.Tracer) *pair {
	t.Helper()
	k := sim.NewKernel(11)
	cfg := engine.DefaultConfig()
	cfg.Redo.GroupSizeBytes = groupSize
	cfg.Redo.Groups = groups
	cfg.Redo.ArchiveMode = true
	cfg.CheckpointTimeout = 0
	cfg.CacheBlocks = 256

	pri, err := engine.New(k, machineFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sbCfg := cfg
	sbCfg.Name = "standby"
	sbCfg.Tracer = sbTracer
	sbIn, err := engine.New(k, machineFS(), sbCfg)
	if err != nil {
		t.Fatal(err)
	}
	return &pair{k: k, primary: pri, sb: New(sbIn, scfg, 0)}
}

// schema creates the same tablespace/table layout on an instance.
func schema(p *sim.Proc, in *engine.Instance) error {
	if _, err := in.CreateTablespace(p, "USERS", []string{engine.DiskData1, engine.DiskData2}, 64); err != nil {
		return err
	}
	if err := in.CreateUser(p, "u", "USERS"); err != nil {
		return err
	}
	if err := in.Open(p); err != nil {
		return err
	}
	return in.CreateTableClustered(p, "acct", "u", "USERS", 16, 1)
}

// schemaStandby prepares the stand-by physical copy without opening it.
func schemaStandby(p *sim.Proc, in *engine.Instance) error {
	if _, err := in.CreateTablespace(p, "USERS", []string{engine.DiskData1, engine.DiskData2}, 64); err != nil {
		return err
	}
	if err := in.CreateUser(p, "u", "USERS"); err != nil {
		return err
	}
	ts, err := in.DB().Tablespace("USERS")
	if err != nil {
		return err
	}
	_, err = in.Catalog().CreateTableClustered("acct", "u", ts, 16, 1)
	return err
}

func (pr *pair) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	pr.k.Go("test", func(p *sim.Proc) {
		if err := fn(p); err != nil {
			pr.err = err
		}
	})
	pr.k.Run(sim.Time(100 * time.Hour))
	if pr.err != nil {
		t.Fatal(pr.err)
	}
}

func (pr *pair) put(p *sim.Proc, in *engine.Instance, key int64, val string) error {
	tx, err := in.Begin()
	if err != nil {
		return err
	}
	if _, err := in.Read(p, tx, "acct", key); err != nil {
		if err := in.Insert(p, tx, "acct", key, []byte(val)); err != nil {
			return err
		}
	} else {
		if err := in.Update(p, tx, "acct", key, []byte(val)); err != nil {
			return err
		}
	}
	return in.Commit(p, tx)
}

func TestStandbyAppliesShippedLogsAndActivates(t *testing.T) {
	pr := newPair(t, 64<<10, 3)
	pr.run(t, func(p *sim.Proc) error {
		if err := schema(p, pr.primary); err != nil {
			return err
		}
		if err := schemaStandby(p, pr.sb.Instance()); err != nil {
			return err
		}
		pr.primary.Archiver().OnArchived = pr.sb.Ship
		if err := pr.sb.Start(p); err != nil {
			return err
		}
		// Generate enough redo to archive several logs.
		lastAcked := int64(-1)
		for i := int64(0); i < 600; i++ {
			if err := pr.put(p, pr.primary, i%200, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
			lastAcked = i
		}
		p.Sleep(5 * time.Second) // let ARCH/MRP drain
		if pr.sb.Stats().Frames == 0 || pr.sb.Stats().Applied == 0 {
			return fmt.Errorf("received=%d applied=%d", pr.sb.Stats().Frames, pr.sb.Stats().Applied)
		}
		if pr.sb.AppliedSCN() == 0 {
			return fmt.Errorf("applied SCN still zero")
		}
		_ = lastAcked

		// Primary dies; stand-by takes over.
		appliedBefore := pr.sb.AppliedSCN()
		pr.primary.Crash()
		start := p.Now()
		if _, err := pr.sb.Promote(p); err != nil {
			return err
		}
		took := p.Now().Sub(start)
		if took <= 0 || took > 2*time.Minute {
			return fmt.Errorf("activation took %v", took)
		}
		if !pr.sb.activated {
			return fmt.Errorf("not activated")
		}
		// The new primary serves reads; rows applied before failover
		// must be present with correct values.
		newPri := pr.sb.Instance()
		found := 0
		for i := int64(0); i < 200; i++ {
			tx, err := newPri.Begin()
			if err != nil {
				return err
			}
			if _, err := newPri.Read(p, tx, "acct", i); err == nil {
				found++
			}
			if err := newPri.Commit(p, tx); err != nil {
				return err
			}
		}
		if found == 0 {
			return fmt.Errorf("no rows on activated standby")
		}
		// And accepts writes.
		if err := pr.put(p, newPri, 9999, "post-failover"); err != nil {
			return err
		}
		if pr.sb.AppliedSCN() < appliedBefore {
			return fmt.Errorf("applied SCN went backwards")
		}
		return nil
	})
}

func TestStandbyLostTransactionsGrowWithLogSize(t *testing.T) {
	lost := func(groupSize int64) int {
		pr := newPair(t, groupSize, 3)
		var lostCount int
		pr.run(t, func(p *sim.Proc) error {
			if err := schema(p, pr.primary); err != nil {
				return err
			}
			if err := schemaStandby(p, pr.sb.Instance()); err != nil {
				return err
			}
			pr.primary.Archiver().OnArchived = pr.sb.Ship
			if err := pr.sb.Start(p); err != nil {
				return err
			}
			// Track acked commit SCNs on the primary.
			var acked []redo.SCN
			for i := int64(0); i < 800; i++ {
				tx, err := pr.primary.Begin()
				if err != nil {
					return err
				}
				key := i % 200
				if _, err := pr.primary.Read(p, tx, "acct", key); err != nil {
					if err := pr.primary.Insert(p, tx, "acct", key, make([]byte, 64)); err != nil {
						return err
					}
				} else {
					if err := pr.primary.Update(p, tx, "acct", key, make([]byte, 64)); err != nil {
						return err
					}
				}
				if err := pr.primary.Commit(p, tx); err != nil {
					return err
				}
				acked = append(acked, tx.CommitSCN)
			}
			p.Sleep(2 * time.Second)
			pr.primary.Crash()
			if _, err := pr.sb.Promote(p); err != nil {
				return err
			}
			for _, scn := range acked {
				if scn > pr.sb.AppliedSCN() {
					lostCount++
				}
			}
			return nil
		})
		return lostCount
	}
	small := lost(32 << 10)
	large := lost(512 << 10)
	if small >= large {
		t.Fatalf("lost(small logs)=%d >= lost(large logs)=%d; want growth with log size", small, large)
	}
}

func TestStandbyActivateTwiceFails(t *testing.T) {
	pr := newPair(t, 64<<10, 3)
	pr.run(t, func(p *sim.Proc) error {
		if err := schemaStandby(p, pr.sb.Instance()); err != nil {
			return err
		}
		if err := pr.sb.Start(p); err != nil {
			return err
		}
		if _, err := pr.sb.Promote(p); err != nil {
			return err
		}
		if _, err := pr.sb.Promote(p); err == nil {
			return fmt.Errorf("second activation succeeded")
		}
		return nil
	})
}

// An archived log missing from the middle of the shipped sequence must be
// detected as a gap — apply stops with an error and activation refuses —
// never silently skipped (which would apply later redo over a hole and
// corrupt the stand-by).
func TestStandbyDetectsArchiveGap(t *testing.T) {
	pr := newPair(t, 32<<10, 3)
	pr.run(t, func(p *sim.Proc) error {
		if err := schema(p, pr.primary); err != nil {
			return err
		}
		if err := schemaStandby(p, pr.sb.Instance()); err != nil {
			return err
		}
		// Ship every archived log except the second: a hole in the
		// middle of the sequence, with real redo on both sides.
		shipped := 0
		pr.primary.Archiver().OnArchived = func(p *sim.Proc, al *archivelog.ArchivedLog) {
			shipped++
			if shipped == 2 {
				return
			}
			pr.sb.Ship(p, al)
		}
		if err := pr.sb.Start(p); err != nil {
			return err
		}
		for i := int64(0); i < 600; i++ {
			if err := pr.put(p, pr.primary, i%200, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		p.Sleep(5 * time.Second) // let ARCH/MRP drain
		if shipped < 4 {
			return fmt.Errorf("only %d logs archived; need a gap in the middle", shipped)
		}
		if pr.sb.Err() == nil {
			return fmt.Errorf("gap not detected: applied SCN %d, stats %+v", pr.sb.AppliedSCN(), pr.sb.Stats())
		}
		// Apply must have stopped at the gap, not resumed beyond it.
		if got, want := pr.sb.Stats().Applied, 1; got != want {
			return fmt.Errorf("applied %d logs, want %d (everything before the gap only)", got, want)
		}
		if _, err := pr.sb.Promote(p); err == nil {
			return fmt.Errorf("activation succeeded across a redo gap")
		}
		return nil
	})
}

// A promotion that fails — here on a deleted stand-by control file, after
// the roll-forward and the rollback already ran — must keep the unapplied
// tail and the loser table as they were: once the file is put back, a
// second Promote rolls the same tail and undoes the same transactions, and
// opens with the images of a promotion that never failed.
// The failed attempt closes every span, with the error on the root span.
// Both promotions' reports are pinned: a failed attempt that left its
// tail's records or finish marks in the stand-by's table would undo the
// tail twice on the retry and charge it twice.
func TestPromoteRetriesAfterFailure(t *testing.T) {
	want, wantSCN, wantRep := promoteWithBrokenControl(t, false)
	got, gotSCN, gotRep := promoteWithBrokenControl(t, true)
	if gotSCN != wantSCN {
		t.Errorf("retried promotion opened at SCN %d, the undisturbed one at %d", gotSCN, wantSCN)
	}
	if d := diffImages(want, got); d != "" {
		t.Errorf("images after the retried promotion differ from the undisturbed promotion's: %s", d)
	}
	// The retry finds the tail already applied (the failed attempt stamped
	// every block it touched), so it applies nothing and only rolls back:
	// the open transaction and one whose commit record the tail lacks.
	for _, c := range []struct {
		name                     string
		rep                      *recovery.Report
		applied, scanned, losers int
		dur                      time.Duration
	}{
		{"undisturbed", wantRep, 241, 481, 2, 109902500 * time.Nanosecond},
		{"retried", gotRep, 0, 481, 2, 65436250 * time.Nanosecond},
	} {
		if c.rep.RecordsApplied != c.applied || c.rep.RecordsScanned != c.scanned ||
			c.rep.LosersRolledBack != c.losers || c.rep.Duration() != c.dur {
			t.Errorf("%s promotion: applied %d, scanned %d, rolled back %d in %v; want %d, %d, %d in %v",
				c.name, c.rep.RecordsApplied, c.rep.RecordsScanned, c.rep.LosersRolledBack, c.rep.Duration(),
				c.applied, c.scanned, c.losers, c.dur)
		}
	}
}

func promoteWithBrokenControl(t *testing.T, breakControl bool) (map[string][]*storage.Block, redo.SCN, *recovery.Report) {
	ring := &trace.RingSink{}
	tr := trace.New(ring)
	// A shipping link slow enough (4 s per log) that the archives handed
	// off last are still mid-transfer when the activation overhead has been
	// paid: promotion drains them and has a real tail to roll. Eight log
	// groups leave room for one transaction to stay open across several.
	scfg := DefaultConfig()
	scfg.ShipBytesPerSec = 32 << 10
	pr := newPairWith(t, 128<<10, 8, scfg, tr)

	var images map[string][]*storage.Block
	var rep *recovery.Report
	pr.run(t, func(p *sim.Proc) error {
		if err := schema(p, pr.primary); err != nil {
			return err
		}
		if err := schemaStandby(p, pr.sb.Instance()); err != nil {
			return err
		}
		pr.primary.Archiver().OnArchived = pr.sb.Ship
		if err := pr.sb.Start(p); err != nil {
			return err
		}
		// One transaction stays open across the archived logs: its rows
		// are the promotion's rollback set.
		open, err := pr.primary.Begin()
		if err != nil {
			return err
		}
		if err := pr.primary.Insert(p, open, "acct", 5000, []byte("uncommitted")); err != nil {
			return err
		}
		for i := int64(0); i < 2800; i++ {
			if i == 700 {
				p.Sleep(6 * time.Second) // the first archive arrives and is applied
			}
			if i == 2000 {
				// A second row late enough to reach the stand-by only in
				// the promotion's tail: the loser straddles the table and
				// the tail.
				if err := pr.primary.Insert(p, open, "acct", 5001, []byte("uncommitted")); err != nil {
					return err
				}
			}
			if err := pr.put(p, pr.primary, i%200, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		if len(pr.sb.shipQueue) == 0 {
			return fmt.Errorf("no archive in flight at the crash: the promotion would have no tail")
		}
		if first := pr.sb.losers.Pending("acct", 5000); first == nil || first.Txn != open.ID {
			return fmt.Errorf("the open transaction was not applied before the crash: no rollback set to keep")
		}
		pr.primary.Crash()

		if breakControl {
			fs := pr.sb.Instance().FS()
			ctl := pr.sb.Instance().DB().Control.File()
			if err := fs.Delete(ctl.Name()); err != nil {
				return err
			}
			if _, err := pr.sb.Promote(p); err == nil {
				return fmt.Errorf("promotion succeeded without a control file")
			}
			if pr.sb.activated {
				return fmt.Errorf("stand-by reports activated after a failed promotion")
			}
			if n := tr.OpenSpans(); n != 0 {
				return fmt.Errorf("%d spans left open by the failed promotion", n)
			}
			var rootErr string
			for _, ev := range ring.Events() {
				if ev.Kind != trace.KindSpan || ev.Cat != trace.CatRecovery || ev.Parent != 0 {
					continue
				}
				for _, a := range ev.Attrs[:ev.NAttrs] {
					if a.Key == "error" {
						rootErr = a.Str
					}
				}
			}
			if !strings.Contains(rootErr, ctl.Name()) {
				return fmt.Errorf("failed promotion's root span carries error=%q, want the lost control file", rootErr)
			}
			// A failed promotion leaves the receive queue as it was: a
			// second attempt, with managed recovery stopped and no archive
			// in flight, rolls the same tail and leaves the same views.
			pending, views := pr.sb.recvQueue.pending, queuedViews(&pr.sb.recvQueue)
			if pending == 0 {
				return fmt.Errorf("the failed promotion left no tail queued")
			}
			if _, err := pr.sb.Promote(p); err == nil {
				return fmt.Errorf("a second promotion succeeded without a control file")
			}
			if got := queuedViews(&pr.sb.recvQueue); pr.sb.recvQueue.pending != pending || !slices.Equal(got, views) {
				return fmt.Errorf("a failed promotion left %d records in %d views, it found %d in %d",
					pr.sb.recvQueue.pending, len(got), pending, len(views))
			}
			if _, err := fs.Restore(ctl.Name(), ctl.Size()); err != nil {
				return err
			}
		}
		if rep, err = pr.sb.Promote(p); err != nil {
			return err
		}
		if rep.RecordsScanned == 0 || rep.LosersRolledBack == 0 {
			return fmt.Errorf("promotion scanned %d records and rolled back %d transactions; want a real tail and the open transaction undone",
				rep.RecordsScanned, rep.LosersRolledBack)
		}
		images = snapshotImages(pr.sb.Instance().DB())
		return nil
	})
	if images == nil {
		t.Fatal("scenario never reached the promotion (a simulated process is stuck)")
	}
	return images, pr.sb.AppliedSCN(), rep
}

// viewAt is a queued view by the address of its first record and its length.
type viewAt struct {
	first *redo.Record
	n     int
}

// queuedViews lists the views v queues, in order.
func queuedViews(v *views) []viewAt {
	var out []viewAt
	off := v.off
	for _, recs := range v.q[v.head:] {
		out = append(out, viewAt{&recs[off], len(recs) - off})
		off = 0
	}
	return out
}

// tableSize reads the size of a loser table: the records it holds,
// finished or not, its first-record-per-row map and its finished set.
func tableSize(l *recovery.Losers) (recs, rows, finished int) {
	v := reflect.ValueOf(l).Elem()
	return v.FieldByName("recs").Len(), v.FieldByName("first").Len(), v.FieldByName("finished").Len()
}

// Managed recovery keeps one loser table for the stand-by's whole life:
// after 5000 committed transactions have streamed past one that stays in
// flight, the table holds a bounded number of records, rows and finish
// marks, and the promotion estimate counts only the in-flight record.
func TestStandbyLoserTableStaysBounded(t *testing.T) {
	k := sim.NewKernel(7)
	in, err := engine.New(k, machineFS(), engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sb := New(in, DefaultConfig(), 0)
	var runErr error
	k.Go("bounded", func(p *sim.Proc) {
		runErr = func() error {
			if err := schemaStandby(p, sb.Instance()); err != nil {
				return err
			}
			if err := sb.Start(p); err != nil {
				return err
			}
			const open = redo.TxnID(1)
			recs := []redo.Record{{Txn: open, Op: redo.OpInsert, Table: "acct", Key: 1, After: []byte("open")}}
			seq := uint64(1)
			send := func() {
				for i := range recs {
					recs[i].SCN = redo.SCN(seq*10 + uint64(i))
				}
				f := &redo.StreamFrame{Seq: seq, PrimarySCN: recs[len(recs)-1].SCN, Records: recs}
				sb.Receive(p, f, f.Encode())
				seq, recs = seq+1, nil
			}
			for i := range 5000 {
				id := open + 1 + redo.TxnID(i)
				recs = append(recs,
					redo.Record{Txn: id, Op: redo.OpInsert, Table: "acct", Key: 10 + int64(i), After: []byte("c")},
					redo.Record{Txn: id, Op: redo.OpCommit})
				if len(recs) >= 8 {
					send()
				}
			}
			if len(recs) > 0 {
				send()
			}
			p.Sleep(5 * time.Second) // managed recovery drains the queue
			if held, rows, finished := tableSize(sb.losers); held >= 1024 || rows >= 1024 || finished >= 1024 {
				return fmt.Errorf("after 5000 commits the table holds %d records, %d rows and %d finish marks; want each under 1024",
					held, rows, finished)
			}
			if got, want := sb.EstimateRTO(), activationOverhead+sb.applyPerRecord; got != want {
				return fmt.Errorf("RTO estimate %v, want %v: the activation and the one in-flight record", got, want)
			}
			sn, err := sb.Snapshot()
			if err != nil {
				return err
			}
			defer sn.Done(p)
			if _, err := sn.Read(p, "acct", 1); !errors.Is(err, txn.ErrRowNotFound) {
				return fmt.Errorf("the in-flight insert reads %v, want not found", err)
			}
			return nil
		}()
	})
	k.Run(sim.Time(time.Hour))
	if runErr != nil {
		t.Fatal(runErr)
	}
}
