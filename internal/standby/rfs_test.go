package standby

import (
	"fmt"
	"testing"
	"time"

	"dbench/internal/archivelog"
	"dbench/internal/redo"
	"dbench/internal/sim"
)

// Regression for the RFS transport rewrite: an archive the primary's ARCH
// process fully handed off before the crash must survive activation even
// if its network transfer is still in flight — the receiver owns the
// transfer, so activation drains it and applies the log instead of
// dropping it (the old standby lost exactly this archive).
func TestActivationKeepsFullyHandedOffArchive(t *testing.T) {
	// A glacial shipping link: transfers take seconds, so at the crash
	// every handed-off archive is still mid-transfer — the exact window
	// the old transport lost.
	scfg := DefaultConfig()
	scfg.ShipBytesPerSec = 4 << 10
	pr := newPairWith(t, 32<<10, 3, scfg, nil)

	pr.run(t, func(p *sim.Proc) error {
		if err := schema(p, pr.primary); err != nil {
			return err
		}
		if err := schemaStandby(p, pr.sb.Instance()); err != nil {
			return err
		}
		var handedOff []redo.SCN // last SCN of each archive ARCH handed off
		pr.primary.Archiver().OnArchived = func(ap *sim.Proc, al *archivelog.ArchivedLog) {
			if len(al.Pieces()) > 0 {
				handedOff = append(handedOff, al.LastSCN)
			}
			pr.sb.Ship(ap, al)
		}
		if err := pr.sb.Start(p); err != nil {
			return err
		}
		var acked []redo.SCN
		for i := int64(0); i < 600; i++ {
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
		if len(handedOff) < 2 {
			return fmt.Errorf("only %d archives handed off; need several in flight", len(handedOff))
		}
		if len(pr.sb.shipQueue) == 0 {
			return fmt.Errorf("no archive in flight at the crash: the regression window never opened")
		}
		last := handedOff[len(handedOff)-1]

		pr.primary.Crash()
		start := p.Now()
		if _, err := pr.sb.Promote(p); err != nil {
			return err
		}
		// Activation must have paid the outstanding transfers, not
		// skipped them.
		if took := p.Now().Sub(start); took < time.Second {
			return fmt.Errorf("activation took only %v with transfers outstanding", took)
		}
		// Every fully-handed-off archive is applied: the watermark lands
		// exactly on the last handed-off record.
		if got := pr.sb.AppliedSCN(); got != last {
			return fmt.Errorf("applied SCN %d after activation, want %d (last handed-off archive)", got, last)
		}
		// Lost transactions are exactly the never-archived online tail.
		lost, wantLost := 0, 0
		for _, scn := range acked {
			if scn > pr.sb.AppliedSCN() {
				lost++
			}
			if scn > last {
				wantLost++
			}
		}
		if lost != wantLost {
			return fmt.Errorf("lost %d acked commits, want %d (only the unarchived tail)", lost, wantLost)
		}
		if wantLost == 0 {
			return fmt.Errorf("no commits in the online tail: the loss accounting is vacuous")
		}
		return nil
	})
}
