package redo

import (
	"fmt"
	"sort"
	"time"

	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/trace"
)

// pageRecords is how many records one page of a group holds: 1024 records
// of 112 bytes fill fourteen 8 KiB runtime pages exactly (256, 28 KiB, take
// a 32 KiB slot once Go adds its 8-byte header to a pointer-holding object).
const pageRecords = 1024

// Group is one online redo log group: a fixed-size slot in the circular
// log, backed by one or more member files (multiplexing).
//
// Its records sit in fixed pages of pageRecords, in SCN order. LGWR places
// each record once, at the end of the last page, and opens a new page when
// that one is full; reuse drops the pages. A record is therefore never
// moved once placed, and a page that has been filled is never written again.
type Group struct {
	// ID is the group number (1-based, stable).
	ID int
	// Seq is the log sequence number of the group's current content;
	// zero means never written.
	Seq int

	members  []*simdisk.File
	capacity int64
	bytes    int64
	pages    [][]Record // every page but the last is full
	n        int        // records in pages

	archived bool
	ckptDone bool
	current  bool
}

// Members returns the group's member files.
func (g *Group) Members() []*simdisk.File { return g.members }

// Capacity returns the group's size limit in bytes.
func (g *Group) Capacity() int64 { return g.capacity }

// Bytes returns the bytes of flushed redo currently in the group.
func (g *Group) Bytes() int64 { return g.bytes }

// Pieces returns the group's records in SCN order, one capacity-capped
// view per page: the records themselves, which stay as they are after the
// group is reused (DESIGN.md §4b), so the caller may keep them but must not
// write them.
func (g *Group) Pieces() [][]Record {
	pieces := make([][]Record, 0, len(g.pages))
	g.pieces(0, g.n, func(pc []Record) { pieces = append(pieces, pc) })
	return pieces
}

// Archived reports whether the group's content has been archived.
func (g *Group) Archived() bool { return g.archived }

// Current reports whether the group is being written.
func (g *Group) Current() bool { return g.current }

// FirstSCN returns the SCN of the first record in the group, or -1 when
// empty.
func (g *Group) FirstSCN() SCN {
	if g.n == 0 {
		return -1
	}
	return g.at(0).SCN
}

// LastSCN returns the SCN of the last record in the group, or -1.
func (g *Group) LastSCN() SCN {
	if g.n == 0 {
		return -1
	}
	return g.at(g.n - 1).SCN
}

// at returns the group's i-th record.
func (g *Group) at(i int) *Record { return &g.pages[i/pageRecords][i%pageRecords] }

// place appends rec to the last page, opening a page of exactly
// pageRecords capacity when that one is full.
func (g *Group) place(rec Record) {
	if g.n%pageRecords == 0 {
		g.pages = append(g.pages, make([]Record, 0, pageRecords))
	}
	pg := &g.pages[g.n/pageRecords]
	*pg = append(*pg, rec)
	g.n++
}

// span returns the index range [lo, hi) of the group's records whose SCN
// lies in [from, to]; SCNs rise through a group.
func (g *Group) span(from, to SCN) (lo, hi int) {
	lo = sort.Search(g.n, func(i int) bool { return g.at(i).SCN >= from })
	hi = sort.Search(g.n, func(i int) bool { return g.at(i).SCN > to })
	return lo, max(lo, hi)
}

// pieces calls f with the group's records lo..hi-1 in SCN order, one
// capacity-capped piece per page they touch.
func (g *Group) pieces(lo, hi int, f func([]Record)) {
	for lo < hi {
		pg, off := g.pages[lo/pageRecords], lo%pageRecords
		end := min(len(pg), off+hi-lo)
		f(pg[off:end:end])
		lo += end - off
	}
}

// usable reports whether all member files are intact.
func (g *Group) usable() bool {
	for _, m := range g.members {
		if !m.Deleted() && !m.Corrupted() {
			return true
		}
	}
	return false
}

// Config configures the redo log manager; it carries the paper's Table 3
// knobs.
type Config struct {
	// GroupSizeBytes is the redo log file size (e.g. 1 MB .. 400 MB).
	GroupSizeBytes int64
	// Groups is the number of log groups (minimum 2).
	Groups int
	// MembersPerGroup multiplexes each group over this many files.
	MembersPerGroup int
	// Disk names the disk holding the log members.
	Disk string
	// ArchiveMode blocks group reuse until the group is archived.
	ArchiveMode bool
}

// Stats counts log activity for the benchmark reports. Its fields are the
// manager's counters themselves: the manager increments them in place and
// Counters registers each one as "redo.<snake_case_field>" (StallTime in
// nanoseconds, as redo.stall_ns).
type Stats struct {
	Switches        int64
	Flushes         int64
	FlushedBytes    int64
	CheckpointWaits int64
	ArchiveWaits    int64
	StallTime       time.Duration
}

// Manager owns the online redo log: the record buffer, the group ring and
// the LGWR process.
type Manager struct {
	k   *sim.Kernel
	fs  *simdisk.FS
	cfg Config

	groups []*Group
	cur    int
	maxID  int // highest group ID ever allocated (resize never reuses IDs)

	// pendingSize/pendingGroups hold a requested online resize (ALTER
	// SYSTEM SET log_group_size_bytes / log_groups) until log switches
	// have applied it to every group; zero values mean nothing pending.
	pendingSize   int64
	pendingGroups int

	nextSCN    SCN
	flushedSCN SCN

	// buffer[bufHead:] is the redo buffer, oldest record first. LGWR
	// consumes it by advancing bufHead and rewinds both once it is empty,
	// so Append refills one backing array instead of reallocating one that
	// shrinks from the front.
	buffer      []Record
	bufHead     int
	bufferBytes int64

	lgwr      *sim.Server
	flushed   sim.Cond
	reusable  sim.Cond
	failed    bool
	flushWant SCN

	// OnSwitch is called (from the LGWR process) right after a log
	// switch completes, with the group that was switched out. The engine
	// uses it to trigger a checkpoint and to hand the group to the
	// archiver.
	OnSwitch func(p *sim.Proc, old *Group)
	// OnFatal is called when the log becomes unusable (all members of
	// the current group lost). The engine crashes the instance.
	OnFatal func(err error)
	// UndoFloor, when set, returns the first-record SCN of the oldest
	// active transaction (0 when none). A group whose content is still
	// needed to roll that transaction back must not be reused: with
	// redo-carried undo this is the analogue of Oracle keeping undo in
	// rollback segments. Transactions must therefore fit within the
	// online log (TPC-C transactions are a few KB; groups are >= 1 MB).
	UndoFloor func() SCN
	// OnDurable, when set, is called (from the LGWR process) each time a
	// flushed segment advances flushedSCN, with exactly the records that
	// just became durable, in SCN order: one capacity-capped piece of the
	// group's own records per page the segment touches, so the hook may be
	// called more than once per segment. A placed record is never written
	// again, so the hook may keep the pieces, but must not write them. It
	// is the tap continuous redo streaming hangs off (a replication cluster
	// queues the pieces in its outboxes) and must not advance virtual time
	// (LGWR's flush timing is part of every pinned fingerprint).
	OnDurable func(p *sim.Proc, recs []Record)
	// OnCheckpointNeeded, when set, is called whenever a reserve or
	// switch stall finds the next group not yet checkpointed. A
	// switch-triggered checkpoint can complete short of the group's last
	// SCN (a buffer re-dirtied mid-drain clamps the checkpoint
	// position), and with the timer checkpoint minutes away nothing else
	// would ever advance it: the workload wedges in "checkpoint not
	// complete" until the timer fires. The hook lets the stall itself
	// demand a fresh checkpoint, the way Oracle's CKPT keeps advancing
	// the position while sessions wait on the switch.
	OnCheckpointNeeded func()

	// Trace, when set, receives lgwr-category events (flush spans, log
	// switches, reserve stalls). A nil tracer is valid.
	Trace *trace.Tracer

	st Stats
}

// NewManager creates the group files on disk and returns a manager ready
// for Start. The first group starts as current with sequence 1.
func NewManager(k *sim.Kernel, fs *simdisk.FS, cfg Config) (*Manager, error) {
	if cfg.Groups < 2 {
		return nil, fmt.Errorf("redo: need at least 2 groups, got %d", cfg.Groups)
	}
	if cfg.MembersPerGroup < 1 {
		cfg.MembersPerGroup = 1
	}
	if cfg.GroupSizeBytes <= 0 {
		return nil, fmt.Errorf("redo: group size must be positive")
	}
	m := &Manager{k: k, fs: fs, cfg: cfg, nextSCN: 1}
	for range cfg.Groups {
		g, err := m.newGroup(cfg.GroupSizeBytes)
		if err != nil {
			return nil, err
		}
		m.groups = append(m.groups, g)
	}
	m.groups[0].current = true
	m.groups[0].Seq = 1
	return m, nil
}

// newGroup creates an empty group of the given capacity under the next
// unused ID, its members named after that ID.
func (m *Manager) newGroup(capacity int64) (*Group, error) {
	m.maxID++
	g := &Group{ID: m.maxID, capacity: capacity, ckptDone: true, archived: true}
	for j := range m.cfg.MembersPerGroup {
		f, err := m.fs.Create(m.cfg.Disk, fmt.Sprintf("redo%02d_%d.log", g.ID, j), 0)
		if err != nil {
			return nil, fmt.Errorf("redo: create member: %w", err)
		}
		g.members = append(g.members, f)
	}
	return g, nil
}

// empty discards the group's content so it can be written from the start:
// no sequence, nothing left to checkpoint or archive, every member truncated.
func (g *Group) empty() {
	g.Seq, g.bytes, g.pages, g.n = 0, 0, nil, 0
	g.archived, g.ckptDone = true, true
	for _, member := range g.members {
		member.Truncate(0)
	}
}

// Config returns the manager's configuration. Groups and GroupSizeBytes
// track an online resize as it lands (see RequestResize).
func (m *Manager) Config() Config { return m.cfg }

// RequestResize schedules an online change of the group size and group
// count. The change is deferred: each log switch re-creates the groups
// that are safe to touch (reusable: checkpointed, archived, above the
// undo floor) at the new geometry, so the resize completes after at
// most a few switches plus a checkpoint — redo that recovery might
// still need is never discarded. Requesting the current geometry clears
// any pending resize.
func (m *Manager) RequestResize(sizeBytes int64, groups int) error {
	if groups < 2 {
		return fmt.Errorf("redo: need at least 2 groups, got %d", groups)
	}
	if sizeBytes <= 0 {
		return fmt.Errorf("redo: group size must be positive")
	}
	if sizeBytes == m.cfg.GroupSizeBytes && groups == len(m.groups) {
		m.pendingSize, m.pendingGroups = 0, 0
		return nil
	}
	m.pendingSize, m.pendingGroups = sizeBytes, groups
	m.Trace.Instant(m.k.Now(), trace.CatLGWR, "redo", "resize requested",
		trace.I("size", sizeBytes), trace.I("groups", int64(groups)))
	return nil
}

// PendingResize reports the target geometry of a resize that has not
// fully landed yet.
func (m *Manager) PendingResize() (sizeBytes int64, groups int, pending bool) {
	if m.pendingSize == 0 && m.pendingGroups == 0 {
		return 0, 0, false
	}
	return m.pendingSize, m.pendingGroups, true
}

// TargetGroupSize returns the group size the log is converging to (the
// pending value when a resize is in flight, the current one otherwise).
func (m *Manager) TargetGroupSize() int64 {
	if m.pendingSize != 0 {
		return m.pendingSize
	}
	return m.cfg.GroupSizeBytes
}

// TargetGroups returns the group count the log is converging to.
func (m *Manager) TargetGroups() int {
	if m.pendingGroups != 0 {
		return m.pendingGroups
	}
	return len(m.groups)
}

// applyResize advances a pending resize. Called on the LGWR process at
// every log switch, immediately after the ring advanced: the new
// current group is empty, so it adopts the new capacity in place; every
// reusable group is re-created at the new geometry (grown, shrunk or
// resized); groups still holding needed redo — at minimum the group
// just switched out of, which is never checkpointed yet — are retained
// untouched and picked up at a later switch.
func (m *Manager) applyResize(p *sim.Proc) error {
	if m.pendingSize == 0 && m.pendingGroups == 0 {
		return nil
	}
	size, target := m.pendingSize, m.pendingGroups
	if size == 0 {
		size = m.cfg.GroupSizeBytes
	}
	if target == 0 {
		target = len(m.groups)
	}
	// Rebuild the ring in reuse order starting at the current group.
	ring := make([]*Group, 0, max(len(m.groups), target))
	for i := range m.groups {
		ring = append(ring, m.groups[(m.cur+i)%len(m.groups)])
	}
	kept := ring[:1:1]
	ring[0].capacity = size
	done := true
	for _, g := range ring[1:] {
		if !m.reusableGroup(g) {
			// Still holds redo a recovery (or archiver) may need.
			kept = append(kept, g)
			done = done && g.capacity == size
			continue
		}
		if len(kept) >= target {
			// Surplus reusable group: drop it and its member files.
			for _, member := range g.members {
				if !member.Deleted() {
					m.fs.Delete(member.Name())
				}
			}
			continue
		}
		g.capacity = size
		g.empty()
		kept = append(kept, g)
	}
	for len(kept) < target {
		g, err := m.newGroup(size)
		if err != nil {
			return err
		}
		kept = append(kept, g)
	}
	m.groups = kept
	m.cur = 0
	m.cfg.GroupSizeBytes = size
	m.cfg.Groups = len(m.groups)
	if done && len(m.groups) == target {
		m.pendingSize, m.pendingGroups = 0, 0
		m.Trace.Instant(p.Now(), trace.CatLGWR, "redo", "resize applied",
			trace.I("size", size), trace.I("groups", int64(target)))
	}
	m.reusable.Broadcast(m.k)
	return nil
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats { return m.st }

// Counters returns the manager's registry rows, one per Stats field.
func (m *Manager) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "redo.switches", V: &m.st.Switches},
		{Name: "redo.flushes", V: &m.st.Flushes},
		{Name: "redo.flushed_bytes", V: &m.st.FlushedBytes},
		{Name: "redo.checkpoint_waits", V: &m.st.CheckpointWaits},
		{Name: "redo.archive_waits", V: &m.st.ArchiveWaits},
		{Name: "redo.stall_ns", V: (*int64)(&m.st.StallTime)},
	}
}

// Groups returns the log groups (callers must not modify the slice).
func (m *Manager) Groups() []*Group { return m.groups }

// CurrentGroup returns the group being written.
func (m *Manager) CurrentGroup() *Group { return m.groups[m.cur] }

// NextSCN returns the SCN the next appended record will receive.
func (m *Manager) NextSCN() SCN { return m.nextSCN }

// FlushedSCN returns the highest SCN durably written to the log files.
func (m *Manager) FlushedSCN() SCN { return m.flushedSCN }

// Start launches the LGWR background process.
func (m *Manager) Start() {
	if m.Running() {
		return
	}
	m.failed = false
	m.lgwr = m.k.Serve("LGWR", m.flushDue, m.flush)
}

// Stop terminates LGWR without flushing (used by SHUTDOWN ABORT). Unflushed
// buffer content is discarded, exactly like a crash. A log that failed is
// already down: the crash its failure raises finds nothing to stop.
func (m *Manager) Stop() {
	if !m.Running() {
		return
	}
	m.lgwr.Stop()
	m.buffer, m.bufHead = nil, 0
	m.bufferBytes = 0
	// Wake anything blocked on the log so it can observe the failure.
	m.flushed.Broadcast(m.k)
	m.reusable.Broadcast(m.k)
}

// Running reports whether LGWR is active.
func (m *Manager) Running() bool { return m.lgwr.Running() && !m.failed }

// Failed reports whether the log hit a fatal media failure.
func (m *Manager) Failed() bool { return m.failed }

// reusableGroup reports whether g may be overwritten.
func (m *Manager) reusableGroup(g *Group) bool {
	if !g.ckptDone {
		return false
	}
	if m.cfg.ArchiveMode && !g.archived {
		return false
	}
	if m.UndoFloor != nil {
		if floor := m.UndoFloor(); floor > 0 && floor <= g.LastSCN() {
			return false
		}
	}
	return true
}

// NotifyUndoFloorChanged wakes processes stalled on group reuse after the
// oldest active transaction finishes (the undo floor advanced).
func (m *Manager) NotifyUndoFloorChanged() {
	m.reusable.Broadcast(m.k)
}

// Reserve blocks until the log can accept size more bytes of redo: the
// current group plus the consecutively reusable (checkpointed and
// archived) groups after it must hold everything buffered plus size.
// This is Oracle's redo-allocation discipline: a process may not modify a
// buffer before its redo has guaranteed flushable space, which is also
// what makes "checkpoint not complete" and "archival required" stalls hit
// the workload instead of deadlocking the checkpoint itself. Counting
// only pre-reserved space matters: admitting redo on the strength of a
// single reusable group lets the backlog outgrow it, and LGWR then stalls
// mid-batch on a switch no one guaranteed — with buffers already mutated,
// the checkpoint that would release the group deadlocks on its own
// write-ahead flush.
func (m *Manager) Reserve(p *sim.Proc, size int64) error {
	stallStart := sim.Time(-1)
	for {
		if !m.Running() {
			return fmt.Errorf("redo: log writer down")
		}
		cur := m.groups[m.cur]
		avail := cur.capacity - cur.bytes - m.bufferBytes
		for i := 1; i < len(m.groups) && size > avail; i++ {
			g := m.groups[(m.cur+i)%len(m.groups)]
			if !m.reusableGroup(g) {
				break
			}
			avail += g.capacity
		}
		if size <= avail {
			break
		}
		if stallStart < 0 {
			stallStart = p.Now()
		}
		m.waitReusable(p, m.groups[(m.cur+1)%len(m.groups)])
	}
	if stallStart >= 0 {
		waited := p.Now().Sub(stallStart)
		m.st.StallTime += waited
		m.Trace.Instant(p.Now(), trace.CatLGWR, "redo", "reserve stall",
			trace.I("bytes", size), trace.I("wait_ns", int64(waited)))
	}
	return nil
}

// Append assigns the next SCN to rec and places it in the redo buffer. It
// does not block; durability requires WaitFlushed. Appending while the log
// is down still assigns an SCN but the record is lost, mirroring writes
// into a crashed instance's buffer (callers are expected to notice the
// instance is down before relying on it).
func (m *Manager) Append(rec Record) SCN {
	rec.SCN = m.nextSCN
	m.nextSCN++
	if !m.Running() {
		// The instance is down: the record goes nowhere, exactly like
		// writing into a crashed instance's SGA. Callers discover the
		// failure at WaitFlushed.
		return rec.SCN
	}
	m.buffer = append(m.buffer, rec)
	m.bufferBytes += rec.Size()
	return rec.SCN
}

// WaitFlushed blocks p until all records up to scn are durable (or the log
// has failed/stopped, which it reports as an error).
func (m *Manager) WaitFlushed(p *sim.Proc, scn SCN) error {
	if scn > m.flushWant {
		m.flushWant = scn
	}
	m.lgwr.Wake()
	for m.flushedSCN < scn {
		if !m.Running() {
			return fmt.Errorf("redo: log writer down")
		}
		m.flushed.Wait(p)
	}
	return nil
}

// CheckpointCompleted informs the log that a checkpoint at scn has been
// durably recorded: every group whose content is entirely below scn becomes
// eligible for reuse (subject to archiving).
func (m *Manager) CheckpointCompleted(scn SCN) {
	for _, g := range m.groups {
		if g.current || g.ckptDone {
			continue
		}
		if last := g.LastSCN(); last >= 0 && last <= scn {
			g.ckptDone = true
		}
	}
	m.reusable.Broadcast(m.k)
}

// MarkArchived records that g's content is safely archived, unblocking its
// reuse.
func (m *Manager) MarkArchived(g *Group) {
	g.archived = true
	m.reusable.Broadcast(m.k)
}

// flushDue reports LGWR's work: buffered redo a committer waits for.
func (m *Manager) flushDue() bool { return len(m.buffer) > 0 && m.flushWant > m.flushedSCN }

// flush is one round of LGWR: it drains the buffer into the current group
// (switching groups as they fill), charges the member writes to disk, and
// wakes committers. A media failure ends LGWR.
func (m *Manager) flush(p *sim.Proc) bool {
	if err := m.drainBuffer(p); err != nil {
		m.failed = true
		m.flushed.Broadcast(m.k)
		if m.OnFatal != nil {
			m.OnFatal(err)
		}
		return false
	}
	m.st.Flushes++
	return true
}

// drainBuffer appends buffered records to groups, switching when full, and
// charges one sequential member write per contiguous segment. Records are
// consumed from the shared buffer one at a time (not snapshotted) so
// FlushableSCN always sees exactly the unplaced backlog, and each
// completed segment advances flushedSCN immediately: records already on
// disk are durable even if a later switch stalls, and the checkpoint that
// would release the stalled switch may itself be waiting on exactly those
// records.
func (m *Manager) drainBuffer(p *sim.Proc) error {
	span := m.Trace.Begin(p.Now(), trace.CatLGWR, "LGWR", "flush")
	var total int64
	defer func() {
		m.Trace.End(p.Now(), span,
			trace.I("bytes", total), trace.I("flushed_scn", int64(m.flushedSCN)))
	}()
	var segBytes int64
	var segRecs int // the segment is the last segRecs of the group's records
	var lastPlaced SCN = -1
	flushSeg := func() error {
		if segBytes == 0 {
			return nil
		}
		g := m.groups[m.cur]
		if !g.usable() {
			return fmt.Errorf("redo: group %d lost all members", g.ID)
		}
		for _, member := range g.members {
			if member.Deleted() || member.Corrupted() {
				continue
			}
			if err := member.Append(p, segBytes); err != nil {
				return fmt.Errorf("redo: member write: %w", err)
			}
		}
		m.st.FlushedBytes += segBytes
		total += segBytes
		segBytes = 0
		if lastPlaced > m.flushedSCN {
			m.flushedSCN = lastPlaced
			m.flushed.Broadcast(m.k)
		}
		if m.OnDurable != nil && segRecs > 0 {
			g.pieces(g.n-segRecs, g.n, func(recs []Record) { m.OnDurable(p, recs) })
		}
		segRecs = 0
		return nil
	}
	for len(m.buffer) > 0 {
		rec := m.buffer[m.bufHead]
		g := m.groups[m.cur]
		if g.bytes+rec.Size() > g.capacity && g.bytes > 0 {
			if err := flushSeg(); err != nil {
				return err
			}
			if err := m.switchGroup(p, g); err != nil {
				return err
			}
			g = m.groups[m.cur]
		}
		m.buffer[m.bufHead] = Record{} // the group holds the images now
		if m.bufHead++; m.bufHead == len(m.buffer) {
			m.buffer, m.bufHead = m.buffer[:0], 0
		}
		g.place(rec)
		g.bytes += rec.Size()
		segBytes += rec.Size()
		segRecs++
		m.bufferBytes -= rec.Size()
		lastPlaced = rec.SCN
	}
	return flushSeg()
}

// FlushableSCN returns the highest SCN the log writer is guaranteed to
// reach without waiting on a group it cannot yet reuse: everything
// flushed, plus the buffered backlog as far as it fits into the current
// group and the consecutively reusable groups after it (simulating the
// drain's own placement, oversized records claiming a fresh group whole).
// A checkpoint may safely wait for redo up to this horizon; waiting
// beyond it can deadlock, since releasing a stalled group may require
// this very checkpoint to complete.
func (m *Manager) FlushableSCN() SCN {
	horizon := m.flushedSCN
	free := m.groups[m.cur].capacity - m.groups[m.cur].bytes
	next := 1
	for _, rec := range m.buffer[m.bufHead:] {
		if sz := rec.Size(); sz > free {
			if next >= len(m.groups) {
				return horizon
			}
			g := m.groups[(m.cur+next)%len(m.groups)]
			if !m.reusableGroup(g) {
				return horizon
			}
			free = g.capacity
			next++
		}
		free -= rec.Size()
		if free < 0 {
			free = 0
		}
		horizon = rec.SCN
	}
	return horizon
}

// switchGroup advances from old to the next group in the ring, waiting until
// it is checkpointed and archived (the paper's "checkpoint not complete" /
// "archival required" stalls), then notifies OnSwitch with old. Once another
// switch has left old, it does nothing: leaving the empty group now current
// would strand it un-checkpointed, with no record a checkpoint could cover.
func (m *Manager) switchGroup(p *sim.Proc, old *Group) error {
	if old != m.groups[m.cur] {
		return nil
	}
	old.current = false
	old.ckptDone = false
	if m.cfg.ArchiveMode {
		old.archived = false
	}

	next := m.groups[(m.cur+1)%len(m.groups)]
	span := m.Trace.Begin(p.Now(), trace.CatLGWR, "LGWR", "log switch", trace.I("from_seq", int64(old.Seq)))
	stallStart := p.Now()
	for {
		if !next.usable() {
			return fmt.Errorf("redo: next group %d unusable", next.ID)
		}
		if m.reusableGroup(next) {
			break
		}
		m.waitReusable(p, next)
		if old != m.groups[m.cur] {
			m.Trace.End(p.Now(), span)
			return nil // a second caller waiting to leave old got there first
		}
	}
	stalled := p.Now().Sub(stallStart)
	m.st.StallTime += stalled

	m.cur = (m.cur + 1) % len(m.groups)
	next.empty() // reuse rewrites the group from the start
	next.current = true
	next.Seq = old.Seq + 1
	m.st.Switches++
	m.Trace.End(p.Now(), span,
		trace.I("to_seq", int64(next.Seq)), trace.I("stall_ns", int64(stalled)))
	if err := m.applyResize(p); err != nil {
		return err
	}
	if m.OnSwitch != nil {
		m.OnSwitch(p, old)
	}
	return nil
}

// waitReusable waits once for a group to become reusable, counting the stall
// by what next still lacks: a checkpoint ("checkpoint not complete", which
// also demands a fresh one) or its archive copy ("archival required").
func (m *Manager) waitReusable(p *sim.Proc, next *Group) {
	if !next.ckptDone {
		m.st.CheckpointWaits++
		if m.OnCheckpointNeeded != nil {
			m.OnCheckpointNeeded()
		}
	} else {
		m.st.ArchiveWaits++
	}
	m.reusable.Wait(p)
}

// ForceSwitch performs an administrative log switch (ALTER SYSTEM SWITCH
// LOGFILE). It reports false, and does nothing, on an empty current group.
func (m *Manager) ForceSwitch(p *sim.Proc) (switched bool, err error) {
	if !m.Running() {
		return false, fmt.Errorf("redo: log writer down")
	}
	if m.groups[m.cur].bytes == 0 {
		return false, nil
	}
	return true, m.switchGroup(p, m.groups[m.cur])
}

// OnlineRecords returns, in SCN order, the flushed records with SCN >= from
// that are still present in the online groups (not yet overwritten by
// reuse), skipping groups whose members were all lost. They are copied once
// into an exactly sized slice the caller owns: the benchmark probe's flat
// read (the program reads OnlinePieces). ok reports whether the range is
// whole from `from`: false means older redo was overwritten, or a lost
// group leaves a hole in the range, so callers need the archive. (The SCNs
// a crash discarded with the redo buffer were never durable: the jump they
// leave between two records is no hole.)
func (m *Manager) OnlineRecords(from SCN) (recs []Record, ok bool) {
	n := 0
	ok = m.online(from, func(_ *Group, lo, hi int) { n += hi - lo })
	recs = make([]Record, 0, n)
	m.online(from, func(g *Group, lo, hi int) {
		g.pieces(lo, hi, func(pc []Record) { recs = append(recs, pc...) })
	})
	return recs, ok
}

// OnlinePieces is OnlineRecords without the copy: the records themselves,
// one capacity-capped view per page they lie in. A placed record is never
// written again, and reuse drops a group's pages without touching them, so
// the caller may keep the views but must not write them.
func (m *Manager) OnlinePieces(from SCN) (pieces [][]Record, ok bool) {
	ok = m.online(from, func(g *Group, lo, hi int) {
		g.pieces(lo, hi, func(pc []Record) { pieces = append(pieces, pc) })
	})
	return pieces, ok
}

// online walks the online span OnlineRecords describes: f gets each usable
// group's index range of flushed records with SCN >= from, oldest group
// first, and online reports whether the span is whole.
func (m *Manager) online(from SCN, f func(g *Group, lo, hi int)) (ok bool) {
	lowest, whole := SCN(-1), true
	for i := range m.groups {
		g := m.byAge(i)
		lo, hi := g.span(from, m.flushedSCN)
		if !g.usable() {
			whole = whole && lo == hi
			continue
		}
		if s := g.FirstSCN(); lowest < 0 && s >= 0 && s <= m.flushedSCN {
			lowest = s
		}
		f(g, lo, hi)
	}
	ok = lowest >= 0 && lowest <= from
	if from <= 0 {
		ok = lowest <= 1
	}
	if m.flushedSCN == 0 {
		ok = true // nothing ever flushed: empty range is contiguous
	}
	return ok && whole
}

// LowestOnlineSCN returns the smallest SCN still present in the online
// groups, or -1 when nothing is flushed.
func (m *Manager) LowestOnlineSCN() SCN {
	for i := range m.groups {
		if g := m.byAge(i); g.usable() && g.n > 0 {
			return g.FirstSCN()
		}
	}
	return -1
}

// byAge returns the i-th group of the ring counting from the one after the
// current group. That one is reused next, so the groups with content come
// in sequence order, oldest first.
func (m *Manager) byAge(i int) *Group { return m.groups[(m.cur+1+i)%len(m.groups)] }

// ResetLogs reinitialises the online log after incomplete recovery (ALTER
// DATABASE OPEN RESETLOGS): all group content is discarded and the SCN
// stream resumes at nextSCN. The manager must be stopped.
func (m *Manager) ResetLogs(nextSCN SCN) error {
	if m.Running() {
		return fmt.Errorf("redo: cannot reset a running log")
	}
	if nextSCN < m.nextSCN {
		nextSCN = m.nextSCN
	}
	for _, g := range m.groups {
		for _, member := range g.members {
			if member.Deleted() || member.Corrupted() {
				// Recreate lost members as part of the reset.
				if _, err := m.fs.Restore(member.Name(), 0); err != nil {
					return fmt.Errorf("redo: reset member: %w", err)
				}
			}
		}
		g.empty()
		g.current = false
	}
	m.cur = 0
	m.groups[0].current = true
	m.groups[0].Seq = 1
	m.nextSCN = nextSCN
	m.flushedSCN = nextSCN - 1
	m.buffer, m.bufHead = nil, 0
	m.bufferBytes = 0
	m.flushWant = 0
	m.failed = false
	return nil
}
