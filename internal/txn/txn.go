package txn

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"dbench/internal/bufcache"
	"dbench/internal/catalog"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// Errors reported by the transaction layer.
var (
	ErrTxnDone     = errors.New("txn: transaction already finished")
	ErrRowExists   = errors.New("txn: row already exists")
	ErrRowNotFound = errors.New("txn: row not found")
)

// State is a transaction's lifecycle state.
type State uint8

// Transaction states.
const (
	StateActive State = iota + 1
	StateCommitted
	StateAborted
)

// txnLists are a transaction's two growing lists. The undo list is the
// redo the transaction logged: the inverse of each record compensates it.
type txnLists struct {
	undo  []redo.Record
	locks []lockKey
}

// Txn is one transaction.
type Txn struct {
	ID    redo.TxnID
	state State

	txnLists
	firstSCN  redo.SCN // SCN of the transaction's first redo record
	CommitSCN redo.SCN
	zombie    bool // client gave up after a failed rollback; PMON owns it
	// ending is StateCommitted once the COMMIT record is appended and
	// StateAborted once a rollback has begun; each shuts the other out.
	ending State
}

// State returns the transaction's lifecycle state.
func (t *Txn) State() State { return t.state }

// usable reports whether the client may still call on t: it is active, has
// not begun to finish, and is neither killed nor given up to PMON.
func (t *Txn) usable() bool { return t.state == StateActive && t.ending == 0 && !t.zombie }

// Config tunes the transaction manager.
type Config struct {
	// LockTimeout bounds lock waits (also the deadlock breaker).
	LockTimeout time.Duration
	// CPUPerOp is the processing cost charged per row operation.
	CPUPerOp time.Duration
}

// Stats counts transaction-layer activity.
type Stats struct {
	Begun        int64
	Committed    int64
	Aborted      int64
	LockWaits    int64
	LockTimeouts int64
}

// Manager coordinates transactions over a log, cache and catalog.
type Manager struct {
	k     *sim.Kernel
	log   *redo.Manager
	cache *bufcache.Cache
	cat   *catalog.Catalog
	locks *lockTable
	cpu   *sim.Resource
	cfg   Config

	nextID redo.TxnID
	active map[redo.TxnID]*Txn
	stats  Stats
	// spare holds the emptied undo and lock lists of finished transactions
	// for Begin to hand out again: never more than ran at once. A crashed
	// instance's transactions do not return theirs.
	spare []txnLists

	// retention is the flashback retention horizon: while non-zero, redo
	// groups whose records reach back to this SCN are protected from
	// reuse (UndoFloor folds it in), so an in-progress or anticipated
	// FLASHBACK TABLE can still read the stream it needs to rewind.
	retention redo.SCN

	// OnTxnFinished, when set, fires after any transaction leaves the
	// active set (commit, rollback, abandon): the redo log uses it to
	// re-check group-reuse stalls against the undo floor.
	OnTxnFinished func()
	ended         sim.Cond // broadcast when a transaction leaves the active set

	// CommitGate, when set, blocks a commit after its local log flush
	// until the gate clears — the hook synchronous replication uses to
	// hold the acknowledgement until the standby quorum has received the
	// commit record. A gate error fails the commit exactly like a log
	// failure: the transaction's fate is decided by recovery (and, under
	// failover, by how far the promoted standby's stream reached).
	CommitGate func(p *sim.Proc, scn redo.SCN) error
}

// NewManager wires a transaction manager. cpu may be nil to skip CPU
// charging.
func NewManager(k *sim.Kernel, log *redo.Manager, cache *bufcache.Cache, cat *catalog.Catalog, cpu *sim.Resource, cfg Config) *Manager {
	return &Manager{
		k:      k,
		log:    log,
		cache:  cache,
		cat:    cat,
		locks:  newLockTable(k, cfg.LockTimeout),
		cpu:    cpu,
		cfg:    cfg,
		nextID: 1,
		active: make(map[redo.TxnID]*Txn),
	}
}

// Stats returns a copy of the counters, folding in lock-table numbers.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.LockWaits = m.locks.waits
	s.LockTimeouts = m.locks.timeouts
	return s
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int { return len(m.active) }

// OldestActiveFirstSCN returns the smallest first-record SCN among active
// transactions, or 0 when no active transaction has written. Checkpoints
// record it as the undo low-watermark: crash recovery must scan redo from
// there to be able to roll back transactions that were in flight when the
// checkpoint flushed their (uncommitted) changes.
func (m *Manager) OldestActiveFirstSCN() redo.SCN {
	var oldest redo.SCN
	for _, t := range m.active {
		if t.firstSCN == 0 {
			continue
		}
		if oldest == 0 || t.firstSCN < oldest {
			oldest = t.firstSCN
		}
	}
	return oldest
}

// SetRetention sets (or, with 0, clears) the flashback retention horizon:
// the oldest SCN a logical rewind may still need. The caller must notify
// the redo manager (NotifyUndoFloorChanged) after clearing so stalled
// group switches re-check.
func (m *Manager) SetRetention(scn redo.SCN) { m.retention = scn }

// Retention returns the current flashback retention horizon (0 = none).
func (m *Manager) Retention() redo.SCN { return m.retention }

// UndoFloor is the SCN below which redo may be recycled: the smaller of
// the oldest active transaction's first record and the flashback
// retention horizon. This is the function the redo manager consults
// before reusing a log group.
func (m *Manager) UndoFloor() redo.SCN {
	floor := m.OldestActiveFirstSCN()
	if m.retention != 0 && (floor == 0 || m.retention < floor) {
		floor = m.retention
	}
	return floor
}

// ActiveWritersOn counts in-flight transactions that have written to the
// table. DROP TABLE's exclusive DDL lock drains them before the DROP
// record is logged: each either commits (its records predate the record's
// SCN, so a flashback keeps them) or rolls back (its rows are compensated
// away) — never half of each.
func (m *Manager) ActiveWritersOn(table string) int {
	n := 0
	for _, t := range m.active {
		if t.state != StateActive {
			continue
		}
		for _, u := range t.undo {
			if u.Table == table {
				n++
				break
			}
		}
	}
	return n
}

// IsActive reports whether the transaction with the given ID is in flight
// (used by online media recovery to leave live transactions to their own
// commit or rollback).
func (m *Manager) IsActive(id redo.TxnID) bool {
	_, ok := m.active[id]
	return ok
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	t := &Txn{ID: m.nextID, state: StateActive}
	if n := len(m.spare); n > 0 {
		t.txnLists, m.spare[n-1] = m.spare[n-1], txnLists{}
		m.spare = m.spare[:n-1]
	} else {
		// Room for a New-Order's two dozen row changes up front, instead
		// of regrowing both lists from nil five times.
		t.txnLists = txnLists{undo: make([]redo.Record, 0, 32), locks: make([]lockKey, 0, 32)}
	}
	m.nextID++
	m.active[t.ID] = t
	m.stats.Begun++
	return t
}

// charge models per-operation CPU cost.
func (m *Manager) charge(p *sim.Proc) {
	if m.cpu != nil && m.cfg.CPUPerOp > 0 {
		m.cpu.Use(p, m.cfg.CPUPerOp)
	}
}

// available fails fast when a block's datafile cannot serve DML — the
// dictionary-level check a real DBMS applies before touching the buffer
// cache (a cache hit must not hide an offline or lost file).
func available(ref storage.BlockRef) error {
	if ts := ref.File.Tbs(); ts != nil && !ts.Online() {
		return fmt.Errorf("%w: %s", storage.ErrTbsOffline, ts.Name)
	}
	if ref.File.Lost() {
		return fmt.Errorf("%w: %s", storage.ErrFileLost, ref.File.Name)
	}
	if !ref.File.Online() {
		return fmt.Errorf("%w: %s", storage.ErrFileOffline, ref.File.Name)
	}
	return nil
}

// Read returns the row's value with no lock and no visibility check, so it
// can return another active transaction's uncommitted image (ROADMAP item
// 11). The result is a read-only view of the stored image, not a copy: row
// images are replaced, never written in place, so it stays what it was
// whatever happens to the row afterwards. Its capacity is capped at its
// length — an append reallocates instead of reaching the neighbouring row of
// a loaded block's buffer.
func (m *Manager) Read(p *sim.Proc, t *Txn, table string, key int64) ([]byte, error) {
	if !t.usable() {
		return nil, ErrTxnDone
	}
	m.charge(p)
	tbl, err := m.cat.Table(table)
	if err != nil {
		return nil, err
	}
	if tbl.Frozen {
		return nil, fmt.Errorf("%w: %s", catalog.ErrTableFrozen, table)
	}
	if err := available(tbl.BlockFor(key)); err != nil {
		return nil, err
	}
	blk, err := m.cache.Get(p, tbl.BlockFor(key))
	if err != nil {
		return nil, err
	}
	v, ok := blk.Rows[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s[%d]", ErrRowNotFound, table, key)
	}
	return v[:len(v):len(v)], nil
}

// ReadForUpdate locks the row exclusively, then reads it (SELECT ... FOR
// UPDATE). The lock is held until commit or rollback.
func (m *Manager) ReadForUpdate(p *sim.Proc, t *Txn, table string, key int64) ([]byte, error) {
	if !t.usable() {
		return nil, ErrTxnDone
	}
	if err := m.locks.acquire(p, t, table, key); err != nil {
		return nil, err
	}
	return m.Read(p, t, table, key)
}

// Insert adds a new row, taking value over (see write).
func (m *Manager) Insert(p *sim.Proc, t *Txn, table string, key int64, value []byte) error {
	return m.write(p, t, redo.OpInsert, table, key, value)
}

// Update replaces an existing row's value, taking value over (see write).
func (m *Manager) Update(p *sim.Proc, t *Txn, table string, key int64, value []byte) error {
	return m.write(p, t, redo.OpUpdate, table, key, value)
}

// Delete removes an existing row.
func (m *Manager) Delete(p *sim.Proc, t *Txn, table string, key int64) error {
	return m.write(p, t, redo.OpDelete, table, key, nil)
}

// write is the single mutation path: lock, reserve redo space, log (WAL),
// apply to the cached block, keep the record as undo. It copies nothing:
// value becomes the stored row and the record's After, the replaced row its
// Before, each capped at its length. Row images are never written in place
// (DESIGN.md §4b), so the caller must not change value afterwards.
func (m *Manager) write(p *sim.Proc, t *Txn, op redo.Op, table string, key int64, value []byte) error {
	if !t.usable() {
		return ErrTxnDone
	}
	if err := m.locks.acquire(p, t, table, key); err != nil {
		return err
	}
	m.charge(p)
	tbl, err := m.cat.Table(table)
	if err != nil {
		return err
	}
	if tbl.Frozen || tbl.Quiescing {
		return fmt.Errorf("%w: %s", catalog.ErrTableFrozen, table)
	}
	// Reserve redo space before touching the buffer (Oracle's redo
	// allocation order): this is where "checkpoint not complete" and
	// "archival required" stalls hit the workload.
	est := int64(256 + len(table) + 2*len(value))
	if err := m.log.Reserve(p, est); err != nil {
		return fmt.Errorf("txn: %w", err)
	}
	if !t.usable() {
		return ErrTxnDone // instance crashed, or session killed, while stalled
	}
	ref := tbl.BlockFor(key)
	if err := available(ref); err != nil {
		return err
	}
	blk, err := m.cache.Get(p, ref)
	if err != nil {
		return err
	}
	if !t.usable() {
		return ErrTxnDone // instance crashed, or session killed, during the miss read
	}
	before, exists := blk.Rows[key]
	switch op {
	case redo.OpInsert:
		if exists {
			return fmt.Errorf("%w: %s[%d]", ErrRowExists, table, key)
		}
	case redo.OpUpdate, redo.OpDelete:
		if !exists {
			return fmt.Errorf("%w: %s[%d]", ErrRowNotFound, table, key)
		}
	}
	rec := redo.Record{
		Txn:    t.ID,
		Op:     op,
		Table:  table,
		Key:    key,
		Before: before[:len(before):len(before)],
		After:  value[:len(value):len(value)],
	}
	scn := m.change(ref, blk, rec)
	if t.firstSCN == 0 {
		t.firstSCN = scn
	}
	t.undo = append(t.undo, rec)
	return nil
}

// Commit appends the commit record, waits for the log flush (durability),
// and releases locks.
func (m *Manager) Commit(p *sim.Proc, t *Txn) error {
	if !t.usable() {
		return ErrTxnDone
	}
	if len(t.undo) == 0 {
		// Read-only transaction: nothing to make durable.
		t.state = StateCommitted
		m.retire(t)
		m.stats.Committed++
		m.finished()
		return nil
	}
	if err := m.log.Reserve(p, 256); err != nil {
		return fmt.Errorf("txn: commit: %w", err)
	}
	if !t.usable() {
		return ErrTxnDone // instance crashed, session killed or rollback begun while stalled on the log
	}
	t.ending = StateCommitted
	scn := m.log.Append(redo.Record{Txn: t.ID, Op: redo.OpCommit})
	if err := m.log.WaitFlushed(p, scn); err != nil {
		// The instance died under us; the transaction's fate is
		// decided by recovery.
		return fmt.Errorf("txn: commit: %w", err)
	}
	if m.CommitGate != nil {
		if err := m.CommitGate(p, scn); err != nil {
			return fmt.Errorf("txn: commit: %w", err)
		}
	}
	t.state = StateCommitted
	t.CommitSCN = scn
	m.retire(t)
	m.stats.Committed++
	m.finished()
	return nil
}

// retire takes a committed or rolled-back transaction out of the active set:
// its locks go to their next waiters, and its two lists — emptied, so that no
// before-image stays reachable through them — to the spare stack.
func (m *Manager) retire(t *Txn) {
	lists := t.txnLists
	m.locks.releaseAll(t)
	delete(m.active, t.ID)
	clear(lists.undo)
	clear(lists.locks)
	m.spare = append(m.spare, txnLists{undo: lists.undo[:0], locks: lists.locks[:0]})
	t.txnLists = txnLists{}
}

// finished fires the completion hook.
func (m *Manager) finished() {
	m.ended.Broadcast(m.k)
	if m.OnTxnFinished != nil {
		m.OnTxnFinished()
	}
}

// Rollback undoes the transaction's changes in reverse order, logging the
// compensating operations, then releases locks. Rollback never blocks on
// locks (the transaction still holds them). A killed session's transaction
// is PMON's to roll back, not its client's.
func (m *Manager) Rollback(p *sim.Proc, t *Txn) error {
	if !t.usable() {
		return ErrTxnDone
	}
	return m.rollback(p, t)
}

// rollback is Rollback for the client, PMON's sweep and shutdown alike.
func (m *Manager) rollback(p *sim.Proc, t *Txn) error {
	if t.state != StateActive || t.ending == StateCommitted {
		return ErrTxnDone
	}
	t.ending = StateAborted
	for i := len(t.undo) - 1; i >= 0; i-- {
		err := m.compensate(p, t, t.undo[i])
		if t.state != StateActive {
			// PMON and the killed session both rolling it back: the
			// other one finished, and retired the list, while this
			// one was parked in a compensation.
			return ErrTxnDone
		}
		if err != nil {
			// A failed compensation (e.g. datafile lost mid-abort)
			// leaves the transaction to crash recovery.
			return fmt.Errorf("txn: rollback: %w", err)
		}
	}
	m.log.Append(redo.Record{Txn: t.ID, Op: redo.OpAbort})
	t.state = StateAborted
	m.retire(t)
	m.stats.Aborted++
	m.finished()
	return nil
}

// compensate applies and logs the inverse of t's change u (a CLR). Its
// before-image is read from the block it overwrites, not taken from u: they
// differ when PMON and a killed session both compensate the same change.
// Once t has finished it logs nothing: no record follows a txn's abort.
func (m *Manager) compensate(p *sim.Proc, t *Txn, u redo.Record) error {
	m.charge(p)
	tbl, err := m.cat.Table(u.Table)
	if err != nil {
		// Table dropped since the change (DDL faultload): nothing to
		// restore into; skip.
		return nil
	}
	if tbl.Frozen {
		// A flashback is rewinding the table; the zombie sweep retries
		// after it finishes.
		return fmt.Errorf("%w: %s", catalog.ErrTableFrozen, u.Table)
	}
	if err := m.log.Reserve(p, int64(256+len(u.Table)+2*len(u.Before))); err != nil {
		return fmt.Errorf("txn: %w", err)
	}
	ref := tbl.BlockFor(u.Key)
	if err := available(ref); err != nil {
		return err
	}
	blk, err := m.cache.Get(p, ref)
	if err != nil {
		return err
	}
	if t.state != StateActive {
		return ErrTxnDone // the other rollback's abort freed the row meanwhile
	}
	rec := u.Inverse()
	if rec.Op != redo.OpInsert {
		rec.Before = blk.Rows[u.Key]
	}
	m.change(ref, blk, rec)
	return nil
}

// change ends every row change, forward or compensating: it appends rec
// (WAL), checks the buffer is still the image Get returned, and changes the
// block MarkDirty returns — not the one Get did, which may be the durable
// image itself. It returns the record's SCN.
func (m *Manager) change(ref storage.BlockRef, blk *storage.Block, rec redo.Record) redo.SCN {
	scn := m.log.Append(rec)
	if cur, ok := m.cache.Peek(ref); !ok || cur != blk {
		panic("txn: mutated stale block pointer")
	}
	m.cache.MarkDirty(ref, scn).Apply(&rec)
	return scn
}

// KillOldestActive kills the longest-running in-flight transaction (the
// victim of an ALTER SYSTEM KILL SESSION operator mistake): it is marked
// zombie and PMON rolls it back. The killed client sees ErrTxnDone on its
// next call, so it writes nothing more while PMON undoes what it wrote.
func (m *Manager) KillOldestActive() error {
	var victim *Txn
	for _, t := range m.active {
		if t.state != StateActive {
			continue
		}
		if victim == nil || t.ID < victim.ID {
			victim = t
		}
	}
	if victim == nil {
		return nil // no session to kill; the mistake is a no-op
	}
	victim.zombie = true
	return nil
}

// MarkZombie hands a transaction whose rollback failed (e.g. its datafile
// is offline) to the background cleanup: RollbackZombies retries until the
// compensation succeeds, like Oracle's PMON recovering dead sessions.
func (m *Manager) MarkZombie(t *Txn) {
	if t.state == StateActive {
		t.zombie = true
	}
}

// ZombieCount reports transactions awaiting background rollback.
func (m *Manager) ZombieCount() int {
	n := 0
	for _, t := range m.active {
		if t.zombie {
			n++
		}
	}
	return n
}

// activeByID lists the in-flight transactions in ID order: every sweep over
// them takes this order, so none depends on map iteration. The sweeps that
// yield re-check each one's state, since it may finish meanwhile.
func (m *Manager) activeByID() []*Txn {
	ts := make([]*Txn, 0, len(m.active))
	for _, t := range m.active {
		ts = append(ts, t)
	}
	slices.SortFunc(ts, func(a, b *Txn) int { return cmp.Compare(a.ID, b.ID) })
	return ts
}

// RollbackZombies attempts to roll back every zombie transaction, in ID
// order. Failures (media still unavailable) leave the zombie for the next
// sweep. It reports how many were cleaned.
func (m *Manager) RollbackZombies(p *sim.Proc) int {
	zombies := slices.DeleteFunc(m.activeByID(), func(t *Txn) bool { return !t.zombie })
	cleaned := 0
	for _, t := range zombies {
		if t.state != StateActive {
			continue
		}
		if err := m.rollback(p, t); err == nil {
			cleaned++
		}
	}
	return cleaned
}

// RollbackAllActive ends every in-flight transaction in ID order for a
// clean shutdown: it waits out each whose COMMIT is appended and rolls back
// the rest, handing the first rollback that fails to PMON.
func (m *Manager) RollbackAllActive(p *sim.Proc) error {
	for _, t := range m.activeByID() {
		for t.state == StateActive && t.ending == StateCommitted {
			m.ended.Wait(p)
		}
		if t.state != StateActive {
			continue
		}
		if err := m.rollback(p, t); err != nil && t.state == StateActive {
			m.MarkZombie(t)
			return err
		}
	}
	return nil
}

// AbandonAll clears the active transaction set without undoing anything,
// modelling an instance crash: in-flight transactions simply vanish and
// recovery rolls them back from the log.
func (m *Manager) AbandonAll() {
	for _, t := range m.activeByID() {
		t.state = StateAborted
		m.locks.releaseAll(t)
		delete(m.active, t.ID)
	}
	m.finished()
}

// Scan iterates all rows of a table in unspecified order, reading cached
// blocks where resident and durable images otherwise (charged as block
// reads), without polluting the cache. fn returning false stops the scan.
// Like Read, it hands fn a read-only view of each image, not a copy.
func (m *Manager) Scan(p *sim.Proc, table string, fn func(key int64, value []byte) bool) error {
	tbl, err := m.cat.Table(table)
	if err != nil {
		return err
	}
	for _, ref := range tbl.Blocks() {
		if err := available(ref); err != nil {
			return fmt.Errorf("txn: scan %s: %w", table, err)
		}
		var rows map[int64][]byte
		if blk, ok := m.cache.Peek(ref); ok {
			rows = blk.Rows
		} else {
			blk, err := ref.File.ReadBlock(p, ref.No)
			if err != nil {
				return fmt.Errorf("txn: scan %s: %w", table, err)
			}
			rows = blk.Rows
		}
		for k, v := range rows {
			if !fn(k, v[:len(v):len(v)]) {
				return nil
			}
		}
	}
	return nil
}
