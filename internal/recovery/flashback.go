package recovery

// Flashback is the logical recovery path for operator faults that damage
// one table (DROP TABLE, TRUNCATE TABLE, a batch update run against the
// wrong table): instead of restoring the whole database and rolling it
// forward to just before the fault (point-in-time recovery, which takes
// the instance down and discards every committed transaction after the
// stop point), the table's own redo records are reverse-applied from the
// live redo + archive stream, rewinding just that table to its pre-fault
// SCN. The instance stays open and unaffected tables keep serving
// transactions throughout.

import (
	"fmt"

	"dbench/internal/engine"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// FlashbackTable rewinds one table to its state as of toSCN by
// reverse-applying the table's data records from the redo stream, while
// the instance stays open:
//
//  1. Pin the undo retention horizon at toSCN+1 so the online log cannot
//     reuse groups holding records the rewind still needs.
//  2. Collect redo from toSCN+1 to the current end (archives as needed).
//  3. If the table was dropped, resurrect its catalog entry from the
//     descriptor logged with the DROP TABLE record — the segment's blocks
//     still hold the rows.
//  4. Freeze the table (DML gets ErrTableFrozen; Oracle locks the table
//     exclusively for FLASHBACK TABLE) and flush+invalidate its own
//     blocks so the durable images are current and no stale buffer can
//     mask the rewind — other tables sharing the datafiles are left
//     cached and live.
//  5. Reverse-apply the table's data records in reverse SCN order:
//     inserts are removed, updates and deletes restore their
//     before-image. Rewound blocks are stamped with the current end of
//     redo, so a later crash recovery's forward pass skips the
//     deliberately-undone records. Re-applying a before-image is
//     idempotent, so a flashback interrupted by a crash converges when
//     re-run.
//  6. Log a FLASHBACK TABLE marker and unfreeze.
//
// The report is Complete: the database as a whole loses nothing — only
// the damaged table is rewound, and its post-toSCN commits are counted
// in LostCommits.
func (m *Manager) FlashbackTable(p *sim.Proc, table string, toSCN redo.SCN) (*Report, error) {
	if m.in.State() != engine.StateOpen {
		return nil, fmt.Errorf("recovery: flashback: %w", engine.ErrInstanceDown)
	}
	return m.run(p, KindFlashback, func(rep *Report, tl *timeline) error {
		return m.flashbackTable(p, table, toSCN, rep, tl)
	})
}

// flashbackTable is FlashbackTable's procedure, steps 1-6, inside the
// recovery frame.
func (m *Manager) flashbackTable(p *sim.Proc, table string, toSCN redo.SCN, rep *Report, tl *timeline) error {
	in := m.in
	// Pin the retention horizon for the duration of the rewind.
	tm := in.Txns()
	prevRet := tm.Retention()
	tm.SetRetention(toSCN + 1)
	defer func() {
		tm.SetRetention(prevRet)
		in.Log().NotifyUndoFloorChanged()
	}()

	cat := in.Catalog()
	tbl, terr := cat.Table(table)
	if terr == nil {
		// Freeze before scanning: the scan pays archive I/O, and DML
		// committed during it would escape the collected stream.
		tbl.Frozen = true
		defer func() { tbl.Frozen = false }()
	}

	pieces, err := m.redoRange(p, rep, toSCN+1, tl, nil)
	if err != nil {
		return err
	}

	if terr != nil {
		// Dropped table: resurrect the catalog entry from the descriptor
		// the DROP TABLE record carries in its before-image slot.
		var desc *redo.TableDescriptor
		for rec := range backward(pieces) {
			if rec.Op == redo.OpDDL && rec.Meta == "DROP TABLE "+table && len(rec.Before) > 0 {
				if desc, err = redo.DecodeTableDescriptor(rec.Before); err != nil {
					return fmt.Errorf("recovery: flashback %s: %w", table, err)
				}
				break
			}
		}
		if desc == nil {
			return fmt.Errorf("recovery: flashback: table %q not in dictionary and no DROP TABLE record after SCN %d", table, toSCN)
		}
		if tbl, err = cat.CreateTableFromDescriptor(desc, in.DB()); err != nil {
			return err
		}
		tbl.Frozen = true
		defer func() { tbl.Frozen = false }()
	}

	// Make the durable images of the table's own blocks current, then
	// drop those blocks from the cache: the rewind edits durable images
	// directly, and a stale clean buffer would otherwise mask it. The
	// sweep is confined to the frozen table's segment — its datafiles
	// host other tables too, and a whole-file flush+invalidate would
	// race with live traffic dirtying a neighbour's block between the
	// flush and the invalidate, silently discarding a committed change.
	// The freeze guarantees this table's own dirty set cannot grow.
	if err := in.Cache().FlushBlocksForce(p, tbl.Blocks()); err != nil {
		return err
	}
	in.Cache().InvalidateBlocks(tbl.Blocks())

	stamp := in.Log().FlushedSCN()
	tl.phase(p, PhaseUndoRollback)
	cs := applyMeter{pay: p.Sleep}
	cost := in.Config().Cost
	touched := make(map[storage.BlockRef]bool)
	lostTxns := make(map[redo.TxnID]bool)
	for rec := range backward(pieces) {
		rep.RecordsScanned++
		if !rec.IsDataChange() || rec.Table != table {
			cs.add(cost.RedoApplyPerRecord / 4)
			continue
		}
		ref := tbl.BlockFor(rec.Key)
		undoToImage(rec, ref, stamp)
		rep.RecordsApplied++
		rep.BytesApplied += rec.Size()
		touched[ref] = true
		lostTxns[rec.Txn] = true
		cs.add(cost.RedoApplyPerRecord)
	}
	// Post-toSCN commits whose changes to this table were just rewound.
	for rec := range all(pieces) {
		if rec.Op == redo.OpCommit && lostTxns[rec.Txn] {
			rep.LostCommits++
		}
	}
	cs.flush()
	tl.phase(p, PhaseBlockWrites)
	if err := m.chargeBlockPasses(p, touched, 1, tl); err != nil {
		return err
	}

	tl.phase(p, PhaseOpen)
	return in.LogDDL(p, fmt.Sprintf("FLASHBACK TABLE %s TO SCN %d", table, toSCN), nil)
}

// RebuildCatalog rebuilds the dictionary by scanning every datafile's
// metadata header (`recover --scan`, the lxd-recover philosophy: the
// authoritative copy of "which segments live where" is on the datafiles
// themselves), then re-persists the control file. It is the remedy for
// catalog-destroying operator faults — afterwards every surviving table
// is addressable again and FLASHBACK TABLE works as usual. Returns the
// rebuilt table names.
func (m *Manager) RebuildCatalog(p *sim.Proc) ([]string, error) {
	in := m.in
	names, err := in.Catalog().RebuildFromHeaders(p, in.DB())
	if err != nil {
		return nil, err
	}
	if err := in.DB().Control.Update(p); err != nil {
		return nil, err
	}
	return names, nil
}
