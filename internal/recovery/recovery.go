// Package recovery implements the three Oracle recovery paths the paper
// exercises:
//
//   - Instance (crash) recovery: forward redo from the last checkpoint
//     plus rollback of in-flight transactions. Complete — no committed
//     work is lost. Used after SHUTDOWN ABORT.
//   - Datafile media recovery: restore one file from backup (or pick up
//     an offlined file), roll it forward using archived + online redo.
//     Complete. Used after "delete datafile" / "set datafile offline".
//   - Point-in-time (incomplete) recovery: restore the whole database
//     from the last backup and stop applying redo just before a
//     destructive command. Committed transactions after the stop point
//     are lost — the paper's Table 4 faults ("delete user's object",
//     "delete tablespace") land here.
//
// These, online tablespace recovery and failover promotion all roll redo
// forward through the one pass in parallel.go, inside the one frame
// Manager.run gives every entry point.
package recovery

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/monitor"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// Kind classifies a recovery.
type Kind uint8

// Recovery kinds.
const (
	KindInstance Kind = iota + 1
	KindDatafile
	KindPointInTime
	KindTablespace
	KindFlashback
	KindFailover
)

func (k Kind) String() string {
	switch k {
	case KindInstance:
		return "instance"
	case KindDatafile:
		return "datafile media"
	case KindPointInTime:
		return "point-in-time"
	case KindTablespace:
		return "tablespace media"
	case KindFlashback:
		return "flashback"
	case KindFailover:
		return "failover"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Report summarises one recovery for the benchmark's measures.
type Report struct {
	Kind Kind
	// Complete is false for point-in-time recovery (committed work may
	// be lost).
	Complete bool
	// Started/Finished bound the recovery in virtual time.
	Started, Finished sim.Time
	// RecordsApplied counts data-change records replayed.
	RecordsApplied int
	// BytesApplied sums the encoded size of the replayed records — the
	// redo volume actually re-done, as opposed to merely scanned.
	BytesApplied int64
	// RecordsScanned counts redo records examined.
	RecordsScanned int
	// ArchivesProcessed counts archived logs opened.
	ArchivesProcessed int
	// LosersRolledBack counts in-flight transactions undone.
	LosersRolledBack int
	// LostCommits counts committed transactions discarded by incomplete
	// recovery (always zero for complete recovery).
	LostCommits int
	// Phases is the recovery's contiguous phase timeline: ordered,
	// non-overlapping, covering [Started, Finished] exactly (each phase
	// starts at the virtual instant the previous one ended).
	Phases []Phase
}

// Duration returns the recovery's elapsed virtual time.
func (r *Report) Duration() time.Duration { return r.Finished.Sub(r.Started) }

// Manager drives recoveries against one instance.
type Manager struct {
	in      *engine.Instance
	backups *backup.Manager
}

// NewManager returns a recovery manager. backups may be nil when only
// instance recovery is needed.
func NewManager(in *engine.Instance, backups *backup.Manager) *Manager {
	return &Manager{in: in, backups: backups}
}

// observeRedoReplay calibrates the engine's live recovery-time estimator
// from a completed recovery's measured redo-replay phase (nil-safe: a
// no-op when monitoring is disabled). Every recovery path calls it after
// its timeline is finished, so the estimate tightens with each recovery
// the instance survives.
func (m *Manager) observeRedoReplay(rep *Report) {
	for i := range rep.Phases {
		ph := &rep.Phases[i]
		if ph.Name != PhaseRedoReplay || ph.Scanned == 0 {
			continue
		}
		m.in.Monitor().ObserveRecovery(monitor.RecoveryObservation{
			RedoReplay: ph.Duration(),
			Scanned:    ph.Scanned,
			Applied:    ph.Records,
			Bytes:      ph.Bytes,
			Workers:    ph.Workers,
		})
	}
}

// applyMeter adds up per-record apply CPU and pays it through pay: at
// every ApplyChunk it accrues, and what is left at flush. The coordinator
// pays by sleeping, a crew worker in the instance's CPU slots.
type applyMeter struct {
	pay     func(time.Duration)
	pending time.Duration
}

func (m *applyMeter) add(d time.Duration) {
	m.pending += d
	if m.pending >= ApplyChunk {
		m.pay(m.pending)
		m.pending = 0
	}
}

func (m *applyMeter) flush() {
	if m.pending > 0 {
		m.pay(m.pending)
		m.pending = 0
	}
}

// run is the frame every recovery entry point runs in: it opens the
// report and its timeline, runs body, and on success stamps the end,
// closes the timeline and calibrates the estimator. A body that fails
// still closes its open phase and the root span, tagged with the error,
// so a failed recovery shows up in -trace/-timeline like any other.
func (m *Manager) run(p *sim.Proc, kind Kind, body func(rep *Report, tl *timeline) error) (*Report, error) {
	rep := &Report{Kind: kind, Complete: kind != KindPointInTime, Started: p.Now()}
	tl := m.beginTimeline(p, rep)
	if err := body(rep, tl); err != nil {
		tl.finish(p, err)
		return nil, err
	}
	rep.Finished = p.Now()
	tl.finish(p, nil)
	m.observeRedoReplay(rep)
	return rep, nil
}

// InstanceRecovery performs crash recovery and opens the database:
// startup/mount, forward redo pass from the last checkpoint, rollback of
// transactions without a commit/abort record, and open. Datafiles that
// were offline at crash time are left to their own media recovery.
func (m *Manager) InstanceRecovery(p *sim.Proc) (*Report, error) {
	in := m.in
	if in.State() == engine.StateOpen {
		return nil, fmt.Errorf("recovery: instance recovery: %w", engine.ErrInstanceOpen)
	}
	if !in.Crashed() {
		return nil, fmt.Errorf("recovery: database was cleanly shut down")
	}
	return m.run(p, KindInstance, func(rep *Report, tl *timeline) error {
		tl.phase(p, PhaseMount)
		if err := in.Mount(p); err != nil {
			return err
		}

		log := in.Log()
		ctl := in.DB().Control
		from := storage.ScanStart(ctl.CheckpointSCN, ctl.UndoSCN)
		// Instance recovery collects the stream before it opens the pass
		// (no sink, at any fan-out): the clamp retry below may rescan from
		// a lower SCN, and records must not reach an apply crew from a
		// scan that is then abandoned.
		pieces, err := m.redoRange(p, rep, from, tl, nil)
		if err != nil && from <= ctl.CheckpointSCN {
			// The undo extension below the checkpoint was overwritten.
			// That is safe to clamp: the log's reuse undo-floor keeps the
			// records of every transaction still active at crash time
			// online, so whatever is missing belonged to transactions
			// that finished (and need no undo). The redo pass itself only
			// needs records after the checkpoint.
			if lowest := log.LowestOnlineSCN(); lowest >= 0 && lowest <= ctl.CheckpointSCN+1 {
				pieces, err = m.redoRange(p, rep, lowest, tl, nil)
			}
		}
		if err != nil {
			return err
		}
		sa := m.newStreamApply(p, rep, tl, newLosers(in, false, nil))
		sa.feed(p, pieces)
		if err := sa.finish(p, log.FlushedSCN()); err != nil {
			return err
		}
		return m.finishRecovery(p, tl, log.FlushedSCN(), false)
	})
}

// RecoverDatafile rolls one restored or offlined datafile forward to the
// current end of redo and brings it online, while the instance stays open
// (online media recovery). If the file was lost it must have been
// restored from backup first (RestoreAndRecoverDatafile does both).
//
// Changes of transactions that are still in flight are rolled forward and
// left in place: those transactions finish through the normal commit or
// rollback path once the file is back. Transactions that vanished without
// a commit or abort record (crashed sessions) are undone here.
func (m *Manager) RecoverDatafile(p *sim.Proc, name string) (*Report, error) {
	f, err := m.in.DB().Datafile(name)
	if err != nil {
		return nil, err
	}
	if f.Lost() {
		return nil, fmt.Errorf("recovery: datafile %q lost; restore it first", name)
	}
	return m.run(p, KindDatafile, func(rep *Report, tl *timeline) error {
		return m.recoverDatafile(p, name, f, rep, tl)
	})
}

// recoverDatafile is the shared roll-forward/rollback body of
// RecoverDatafile and RestoreAndRecoverDatafile (which is already past a
// restore phase): roll the file forward, stamp it consistent as of the
// end SCN and bring it online.
func (m *Manager) recoverDatafile(p *sim.Proc, name string, f *storage.Datafile, rep *Report, tl *timeline) error {
	from := storage.ScanStart(f.CkptSCN, f.UndoSCN)
	end, err := m.rollForwardFiles(p, map[*storage.Datafile]bool{f: true}, from, rep, tl)
	if err != nil {
		return err
	}
	tl.phase(p, PhaseOpen)
	f.CkptSCN = end
	f.NeedsRecovery = false
	return m.in.OnlineDatafile(p, name)
}

// rollForwardFiles is the media-recovery roll-forward: run the pass over
// redo from `from` to the current end of flushed redo for exactly the
// given file set, undoing transactions that vanished without a
// commit/abort record. Shared by single-datafile and tablespace
// recovery. Returns the end SCN the files are now consistent at.
func (m *Manager) rollForwardFiles(p *sim.Proc, files map[*storage.Datafile]bool, from redo.SCN, rep *Report, tl *timeline) (redo.SCN, error) {
	end := m.in.Log().FlushedSCN()
	return end, m.newStreamApply(p, rep, tl, newLosers(m.in, false, files)).roll(p, from, end)
}

// RestoreAndRecoverDatafile is the full "delete datafile" procedure: take
// the file offline, restore it from the latest backup, media-recover it,
// bring it online.
func (m *Manager) RestoreAndRecoverDatafile(p *sim.Proc, name string) (*Report, error) {
	in := m.in
	f, err := in.DB().Datafile(name)
	if err != nil {
		return nil, err
	}
	b, err := m.latestBackup()
	if err != nil {
		return nil, err
	}
	if !b.HasFile(name) {
		return nil, fmt.Errorf("recovery: datafile %q missing from backup %d", name, b.ID)
	}
	return m.run(p, KindDatafile, func(rep *Report, tl *timeline) error {
		tl.phase(p, PhaseRestore)
		in.Cache().InvalidateFile(f)
		f.SetOnline(false)
		p.Sleep(in.Config().Cost.BackupRestoreOverhead)
		if err := b.RestoreDatafile(p, in.FS(), name); err != nil {
			return err
		}
		return m.recoverDatafile(p, name, f, rep, tl)
	})
}

// OnlineTablespaceRecovery repairs one damaged or dropped tablespace
// while the instance stays open, so unaffected tablespaces keep serving
// transactions throughout: files lost from media are restored from the
// latest backup (the whole tablespace when it was dropped), every file
// needing recovery is rolled forward to the current end of redo and the
// tablespace is brought back online. The dictionary is NOT restored: tables fully contained in a
// dropped tablespace stay dropped (point-in-time recovery is the paper's
// answer there), while partitioned tables, which merely lost this
// tablespace's partitions, come back complete.
func (m *Manager) OnlineTablespaceRecovery(p *sim.Proc, name string) (*Report, error) {
	in := m.in
	if in.State() != engine.StateOpen {
		return nil, fmt.Errorf("recovery: online tablespace recovery: %w", engine.ErrInstanceDown)
	}
	return m.run(p, KindTablespace, func(rep *Report, tl *timeline) error {
		ts, err := in.DB().Tablespace(name)
		dropped := err != nil
		lost := false
		if !dropped {
			for _, f := range ts.Files {
				if f.Lost() {
					lost = true
				}
			}
		}
		if dropped || lost {
			b, berr := m.latestBackup()
			if berr != nil {
				return berr
			}
			tl.phase(p, PhaseRestore)
			p.Sleep(in.Config().Cost.BackupRestoreOverhead)
			if dropped {
				if err := b.RestoreTablespace(p, in.FS(), in.DB(), name); err != nil {
					return err
				}
				if ts, err = in.DB().Tablespace(name); err != nil {
					return err
				}
				// Restored but not yet rolled forward: stays unavailable to
				// DML until recovery completes.
				ts.SetOnline(false)
			} else {
				for _, f := range ts.Files {
					if !f.Lost() {
						continue
					}
					if !b.HasFile(f.Name) {
						return fmt.Errorf("recovery: datafile %q missing from backup %d", f.Name, b.ID)
					}
					in.Cache().InvalidateFile(f)
					if err := b.RestoreDatafile(p, in.FS(), f.Name); err != nil {
						return err
					}
				}
			}
		}

		// Roll the damaged files forward together from the earliest point any
		// of them needs; intact siblings were checkpointed clean when the
		// tablespace went offline and need no redo.
		files := make(map[*storage.Datafile]bool)
		from := redo.SCN(-1)
		for _, f := range ts.Files {
			if !f.NeedsRecovery {
				continue
			}
			files[f] = true
			if start := storage.ScanStart(f.CkptSCN, f.UndoSCN); from < 0 || start < from {
				from = start
			}
		}
		if len(files) > 0 {
			end, err := m.rollForwardFiles(p, files, from, rep, tl)
			if err != nil {
				return err
			}
			for _, f := range ts.Files {
				if !files[f] {
					continue
				}
				f.CkptSCN = end
				f.UndoSCN = end + 1
				f.NeedsRecovery = false
			}
		}
		tl.phase(p, PhaseOpen)
		return in.OnlineTablespace(p, name)
	})
}

// PointInTime performs incomplete recovery: crash the instance if needed,
// restore the whole database from the latest backup, apply redo up to
// (and including) untilSCN, roll back transactions in flight at that
// point, open RESETLOGS. Committed transactions beyond untilSCN are lost
// and counted in the report.
func (m *Manager) PointInTime(p *sim.Proc, untilSCN redo.SCN) (*Report, error) {
	in := m.in
	b, err := m.latestBackup()
	if err != nil {
		return nil, err
	}
	if untilSCN < b.SCN {
		return nil, fmt.Errorf("recovery: until SCN %d precedes backup SCN %d", untilSCN, b.SCN)
	}
	return m.run(p, KindPointInTime, func(rep *Report, tl *timeline) error {
		tl.phase(p, PhaseMount)
		// The DBA shuts the instance down before a full restore.
		if in.State() == engine.StateOpen {
			in.Crash()
		}
		if err := in.Mount(p); err != nil {
			return err
		}
		tl.phase(p, PhaseRestore)
		p.Sleep(in.Config().Cost.BackupRestoreOverhead)
		// The datafiles are restored at the recovery fan-out, then redo
		// from the backup SCN forward rolls through the pass, which stops
		// at untilSCN and counts the commits beyond it as lost.
		n := in.RecoveryParallelism()
		tl.setWorkers(n)
		if err := b.RestoreAllWorkers(p, in.FS(), in.DB(), in.Catalog(), n); err != nil {
			return err
		}
		sa := m.newStreamApply(p, rep, tl, newLosers(in, true, nil))
		sa.until = untilSCN
		if err := sa.roll(p, b.SCN+1, untilSCN); err != nil {
			return err
		}
		return m.finishRecovery(p, tl, untilSCN, true)
	})
}

// latestBackup returns the most recent backup or a helpful error.
func (m *Manager) latestBackup() (*backup.Backup, error) {
	if m.backups == nil {
		return nil, backup.ErrNoBackup
	}
	return m.backups.Latest()
}

// redoRange collects the redo stream from SCN `from` to the end of redo,
// reading archived logs as needed (charged per file) and topping up from
// the online logs. It advances the timeline into the archive-replay
// phase while reading archives and into redo-replay when it reaches the
// online log (the forward apply that follows stays in redo-replay).
//
// The stream comes back as pieces, in SCN order: views of the pages LGWR
// placed the records in, which nobody writes again, so nothing is copied.
// A non-nil sink receives each newly scanned segment (one per archived
// log, one for the online top-up) in SCN order as soon as it is read —
// streamApply.roll feeds an apply crew through it. The full stream is
// still returned.
func (m *Manager) redoRange(p *sim.Proc, rep *Report, from redo.SCN, tl *timeline, sink func(*sim.Proc, [][]redo.Record)) ([][]redo.Record, error) {
	in := m.in
	log := in.Log()
	cost := in.Config().Cost

	// Fast path: everything still online.
	if pieces, ok := log.OnlinePieces(from); ok {
		tl.phase(p, PhaseRedoReplay)
		m.chargeLogScan(p, pieces)
		if sink != nil {
			sink(p, pieces)
		}
		return pieces, nil
	}
	arch := in.Archiver()
	if arch == nil {
		return nil, fmt.Errorf("recovery: redo before SCN %d overwritten and no archive logs", from)
	}
	tl.phase(p, PhaseArchiveReplay)
	var pieces [][]redo.Record
	next := from
	for _, al := range arch.Inventory().From(from) {
		if al.Lost() {
			return nil, fmt.Errorf("recovery: archived log seq %d lost", al.Seq)
		}
		// Opening, validating and repositioning each archived log has
		// a fixed cost — the reason many small archive files recover
		// slower than few big ones (paper §5.2).
		p.Sleep(cost.ArchiveOpenOverhead)
		if err := al.File().ReadAll(p); err != nil {
			return nil, fmt.Errorf("recovery: read archive: %w", err)
		}
		rep.ArchivesProcessed++
		// SCNs are assigned consecutively, so the redo stream has no
		// holes: an archived log that starts beyond the next needed SCN
		// means an earlier archive is missing from the inventory. That
		// must be an error — silently continuing would replay around the
		// gap and resurrect a stale database state.
		logPieces := al.Pieces()
		if len(logPieces) > 0 && logPieces[0][0].SCN > next {
			return nil, fmt.Errorf("recovery: gap in archived redo: need SCN %d but archived log seq %d starts at SCN %d", next, al.Seq, logPieces[0][0].SCN)
		}
		if al.LastSCN < next {
			continue
		}
		// SCNs rise through a log, so it contributes a suffix: its
		// records from next on.
		seg := len(pieces)
		for _, pc := range logPieces {
			if i := sort.Search(len(pc), func(i int) bool { return pc[i].SCN >= next }); i < len(pc) {
				pieces = append(pieces, pc[i:])
			}
		}
		next = al.LastSCN + 1
		if sink != nil {
			sink(p, pieces[seg:])
		}
	}
	online, ok := log.OnlinePieces(next)
	if !ok && len(online) > 0 {
		return nil, fmt.Errorf("recovery: gap between archived and online redo at SCN %d", next)
	}
	tl.phase(p, PhaseRedoReplay)
	m.chargeLogScan(p, online)
	if sink != nil && len(online) > 0 {
		sink(p, online)
	}
	return append(pieces, online...), nil
}

// all yields the records of pieces in order, backward newest first.
func all(pieces [][]redo.Record) iter.Seq[*redo.Record] {
	return func(yield func(*redo.Record) bool) {
		for _, pc := range pieces {
			for i := range pc {
				if !yield(&pc[i]) {
					return
				}
			}
		}
	}
}

func backward(pieces [][]redo.Record) iter.Seq[*redo.Record] {
	return func(yield func(*redo.Record) bool) {
		for _, pc := range slices.Backward(pieces) {
			for i := len(pc) - 1; i >= 0; i-- {
				if !yield(&pc[i]) {
					return
				}
			}
		}
	}
}

// chargeLogScan charges a sequential read of the given records' bytes
// against the online redo disk.
func (m *Manager) chargeLogScan(p *sim.Proc, pieces [][]redo.Record) {
	if len(pieces) == 0 {
		return
	}
	var bytes int64
	for rec := range all(pieces) {
		bytes += rec.Size()
	}
	disk := m.in.FS().Disk(m.in.Config().Redo.Disk)
	if disk == nil {
		return
	}
	disk.Use(p, bytes, false /* initial seek */, false)
}

// participates decides whether a file takes part in a whole-database
// recovery pass. Offline files are skipped during crash recovery (their
// own media recovery picks them up later) but included in point-in-time
// recovery, which restored them itself.
func participates(f *storage.Datafile, includeOffline bool) bool {
	if f.Lost() {
		return false
	}
	if includeOffline {
		return true
	}
	return f.Online()
}

// ReapplyDataRecords re-applies data-change records through ApplyToImage
// and reports how many of them changed a durable image. After a completed
// recovery every record of its range is in the images (applied records and
// undone losers stamped their blocks), so a second replay must apply none:
// the redo-idempotence invariant the chaos harness checks. It charges no
// simulated I/O or CPU and tracks no losers: it is harness instrumentation.
func (m *Manager) ReapplyDataRecords(pieces [][]redo.Record) int {
	t := Losers{in: m.in, includeOffline: true}
	n := 0
	for rec := range all(pieces) {
		if !rec.IsDataChange() {
			continue
		}
		if ref, ok := t.resolve(rec); ok && ApplyToImage(rec, ref) {
			n++
		}
	}
	return n
}

// SortedRefs flattens a touched-block set into CompareRefs order.
func SortedRefs(touched map[storage.BlockRef]bool) []storage.BlockRef {
	refs := make([]storage.BlockRef, 0, len(touched))
	for ref := range touched {
		refs = append(refs, ref)
	}
	slices.SortFunc(refs, CompareRefs)
	return refs
}

// CompareRefs orders blocks by (file name, block number) — the
// deterministic sequential-pass order block I/O is charged in.
func CompareRefs(a, b storage.BlockRef) int {
	return cmp.Or(strings.Compare(a.File.Name, b.File.Name), cmp.Compare(a.No, b.No))
}

// blockPass charges one sequential read pass and one sequential write
// pass over the given (already sorted) refs.
func blockPass(p *sim.Proc, refs []storage.BlockRef) error {
	for _, ref := range refs {
		if ref.File.Lost() {
			continue
		}
		if err := ref.File.File().Read(p, int64(ref.No)*storage.BlockSize, storage.BlockSize); err != nil {
			return err
		}
	}
	for _, ref := range refs {
		if ref.File.Lost() {
			continue
		}
		if err := ref.File.File().Write(p, int64(ref.No)*storage.BlockSize, storage.BlockSize); err != nil {
			return err
		}
	}
	return nil
}

// finishRecovery is the open phase of a whole-database recovery: persist
// the end point — participating datafiles stamped, control file updated,
// log released — and open the database. resetLogs opens a new log
// incarnation starting past scn, discarding whatever redo lies beyond it
// (point-in-time recovery, failover); those recoveries restored or own
// every datafile, so the offline ones are stamped and onlined as well.
func (m *Manager) finishRecovery(p *sim.Proc, tl *timeline, scn redo.SCN, resetLogs bool) error {
	in := m.in
	tl.phase(p, PhaseOpen)
	if resetLogs {
		if err := in.Log().ResetLogs(scn + 1); err != nil {
			return err
		}
	}
	ctl := in.DB().Control
	ctl.CheckpointSCN = scn
	ctl.UndoSCN = scn + 1
	for _, f := range in.DB().Datafiles() {
		if !participates(f, resetLogs) {
			continue
		}
		f.CkptSCN = scn
		f.UndoSCN = scn + 1
		f.NeedsRecovery = false
		f.SetOnline(true)
	}
	if err := ctl.Update(p); err != nil {
		return err
	}
	ctl.StopSCN = scn // consistent as of scn: Open needs no crash recovery
	in.Log().CheckpointCompleted(scn)
	return in.Open(p)
}
