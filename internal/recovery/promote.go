// Failover promotion and the image steps of the per-record rule. A
// stand-by's managed recovery is a failover that has not finished: it
// applies each record by the rule every recovery pass uses, into its own
// loser table (losers.go), and promotion finishes it through the one
// redo-apply pass (parallel.go), so promoted images stay bit-identical to
// an in-order recovery of the same redo prefix (the failover differential).
// A change is made by storage.Block.Apply and undone by applying its
// redo.Record.Inverse, the record run-time rollback logs as a CLR.
package recovery

import (
	"fmt"
	"strings"

	"dbench/internal/catalog"
	"dbench/internal/engine"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// ApplyToImage applies one data-change record to its durable block image,
// honouring the block-SCN idempotence guard. It reports whether the
// record was applied (false: the change was already present — and the
// image, which a backup may share, was not taken for editing).
func ApplyToImage(rec *redo.Record, ref storage.BlockRef) bool {
	if ref.File.PeekBlock(ref.No).SCN >= rec.SCN {
		return false
	}
	img := ref.File.EditBlock(ref.No)
	img.Apply(rec) // the image and the record share rec.After
	img.SCN = rec.SCN
	return true
}

// undoToImage undoes a record during a rollback pass, stamping the image
// with the recovery end SCN.
func undoToImage(rec *redo.Record, ref storage.BlockRef, stamp redo.SCN) {
	inv := rec.Inverse()
	img := ref.File.EditBlock(ref.No)
	img.Apply(&inv)
	img.SCN = max(img.SCN, stamp)
}

// ReplayDDL re-executes a logged DDL statement against a dictionary and
// physical database during roll-forward. DROP TABLESPACE follows the
// engine's containment rule: only tables fully inside the tablespace go
// down with it.
func ReplayDDL(cat *catalog.Catalog, db *storage.DB, stmt string) {
	switch {
	case strings.HasPrefix(stmt, "DROP TABLE "):
		_ = cat.DropTable(firstWord(strings.TrimPrefix(stmt, "DROP TABLE ")))
	case strings.HasPrefix(stmt, "DROP TABLESPACE "):
		name := firstWord(strings.TrimPrefix(stmt, "DROP TABLESPACE "))
		for _, tbl := range cat.TablesFullyIn(name) {
			_ = cat.DropTable(tbl)
		}
		_ = db.DropTablespace(name)
	case strings.HasPrefix(stmt, "DROP USER "):
		name := firstWord(strings.TrimPrefix(stmt, "DROP USER "))
		_, _ = cat.DropUser(name)
	}
}

// Failover promotes a standby database to primary. The instance must be
// mounted with a physical copy consistent through the standby's continuous
// apply, which kept the loser table losers; tail is the received-but-not-
// yet-applied stream suffix (SCN order) and scn the received watermark,
// the SCN the new incarnation starts after. The tail rolls forward through
// the same pass as every other recovery, into a copy of losers, and what
// never finished is undone in reverse global SCN order. losers itself is
// left as it was, so a failed failover is retried from the same table.
func (m *Manager) Failover(p *sim.Proc, tail []redo.Record, losers *Losers, scn redo.SCN) (*Report, error) {
	if m.in.State() == engine.StateOpen {
		return nil, fmt.Errorf("recovery: failover target is already open")
	}
	return m.run(p, KindFailover, func(rep *Report, tl *timeline) error {
		tl.phase(p, PhaseRedoReplay)
		sa := m.newStreamApply(p, rep, tl, losers.clone())
		sa.feed(p, tail)
		if err := sa.finish(p, scn); err != nil {
			return err
		}
		// Whatever the old primary flushed beyond the received watermark
		// is gone (the failover's RPO, measured against the commit ledger).
		return m.finishRecovery(p, tl, scn, true)
	})
}
