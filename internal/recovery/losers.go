package recovery

import (
	"maps"
	"slices"
	"time"

	"dbench/internal/engine"
	"dbench/internal/redo"
	"dbench/internal/storage"
)

// ApplyChunk is the CPU debt every redo apply pays off at once, so huge
// redo streams do not flood the event queue with per-record sleeps.
const ApplyChunk = 50 * time.Millisecond

type rowKey struct {
	table string
	key   int64
}

// Losers is the loser table of one redo apply: instance, media,
// tablespace, point-in-time or failover recovery, or a stand-by's managed
// recovery, which keeps one for its whole life. It holds the data records
// the apply rolled forward, in scan order, for the undo pass to walk
// backwards; the transactions it saw commit or abort; and per row the first
// of those records, whose inverse is the row's committed view. A finished
// transaction's records leave at the next compaction, which runs whenever
// the table has doubled since the last one (and has at least 1024).
type Losers struct {
	in *engine.Instance
	// only restricts the apply to a set of datafiles (media recovery: no
	// DDL replay either); nil means a whole-database apply, which takes
	// every participating file (includeOffline: also the offline ones,
	// which point-in-time recovery and failover restored or own).
	only           map[*storage.Datafile]bool
	includeOffline bool

	recs      []*redo.Record
	finished  map[redo.TxnID]bool
	first     map[rowKey]*redo.Record
	compactAt int
}

// NewLosers opens the loser table of a whole-database apply that takes
// every datafile still on media: failover's, and so a stand-by's.
func NewLosers(in *engine.Instance) *Losers { return newLosers(in, true, nil) }

func newLosers(in *engine.Instance, includeOffline bool, only map[*storage.Datafile]bool) *Losers {
	return &Losers{in: in, only: only, includeOffline: includeOffline, compactAt: 1024,
		finished: make(map[redo.TxnID]bool), first: make(map[rowKey]*redo.Record)}
}

// Apply is the per-record rule of every redo apply, in scan order: a
// commit or abort retires its transaction; DDL replays; a data change
// resolves its block, applies through ApplyToImage and joins the table,
// unless its transaction still runs on the open instance (media recovery).
// ok reports a data change whose image changed.
func (t *Losers) Apply(rec *redo.Record) (ref storage.BlockRef, ok bool) {
	ref, ok = t.route(rec)
	return ref, ok && ApplyToImage(rec, ref)
}

// route is Apply but for the image change, which an apply crew's worker
// makes; ok reports a data change to apply to ref.
func (t *Losers) route(rec *redo.Record) (ref storage.BlockRef, ok bool) {
	switch {
	case rec.Op == redo.OpCommit || rec.Op == redo.OpAbort:
		t.finished[rec.Txn] = true
	case rec.Op == redo.OpDDL && t.only == nil:
		ReplayDDL(t.in.Catalog(), t.in.DB(), rec.Meta)
	case rec.IsDataChange():
		if ref, ok = t.resolve(rec); ok && !t.in.Txns().IsActive(rec.Txn) {
			t.join(rec)
		}
	}
	return ref, ok
}

// resolve maps a data record to its block in the current catalog; ok is
// false when its table is gone or the apply does not take its file.
func (t *Losers) resolve(rec *redo.Record) (storage.BlockRef, bool) {
	tbl, err := t.in.Catalog().Table(rec.Table)
	if err != nil {
		return storage.BlockRef{}, false
	}
	ref := tbl.BlockFor(rec.Key)
	if t.only != nil {
		return ref, t.only[ref.File]
	}
	return ref, participates(ref.File, t.includeOffline)
}

func (t *Losers) join(rec *redo.Record) {
	row := rowKey{table: rec.Table, key: rec.Key}
	if first, ok := t.first[row]; !ok || t.finished[first.Txn] {
		t.first[row] = rec
	}
	if t.recs = append(t.recs, rec); len(t.recs) >= t.compactAt {
		t.compact()
	}
}

// compact drops the finished transactions' records and rows in place and
// then forgets the finished set, which names no record any more: no record
// follows its transaction's commit or abort (see txn.Manager.compensate).
func (t *Losers) compact() {
	t.recs = slices.DeleteFunc(t.recs, func(rec *redo.Record) bool { return t.finished[rec.Txn] })
	maps.DeleteFunc(t.first, func(_ rowKey, rec *redo.Record) bool { return t.finished[rec.Txn] })
	clear(t.finished)
	t.compactAt = max(2*len(t.recs), 1024)
}

// clone copies the table, so a failover that fails leaves it untouched.
func (t *Losers) clone() *Losers {
	c := *t
	c.recs, c.finished, c.first = slices.Clone(t.recs), maps.Clone(t.finished), maps.Clone(t.first)
	return &c
}

// undo rolls back, newest first and stamped with stamp, every record of a
// transaction the apply never saw finish, calling undone with each block
// it changes; it retires those losers and returns how many there were.
func (t *Losers) undo(stamp redo.SCN, undone func(storage.BlockRef)) int {
	for _, rec := range slices.Backward(t.recs) {
		if t.finished[rec.Txn] {
			continue
		}
		if ref, ok := t.resolve(rec); ok {
			undoToImage(rec, ref, stamp)
			undone(ref)
		}
	}
	n := 0
	for _, rec := range t.recs {
		if !t.finished[rec.Txn] {
			t.finished[rec.Txn] = true
			n++
		}
	}
	return n
}

// Live counts the records of unfinished transactions.
func (t *Losers) Live() int {
	n := 0
	for _, rec := range t.recs {
		if !t.finished[rec.Txn] {
			n++
		}
	}
	return n
}

// Pending returns the first record an unfinished transaction wrote for
// table[key], or nil: the row's committed view is its inverse.
func (t *Losers) Pending(table string, key int64) *redo.Record {
	if rec := t.first[rowKey{table: table, key: key}]; rec != nil && !t.finished[rec.Txn] {
		return rec
	}
	return nil
}

// PendingKeys calls fn with each key of table that Pending masks.
func (t *Losers) PendingKeys(table string, fn func(key int64)) {
	for row, rec := range t.first {
		if row.table == table && !t.finished[rec.Txn] {
			fn(row.key)
		}
	}
}
