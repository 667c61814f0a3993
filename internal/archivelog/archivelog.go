// Package archivelog implements the ARCH background process and the
// archived redo log inventory.
//
// When archive mode is on, every filled online log group is copied to the
// archive destination before it may be reused; the archive therefore holds
// the complete redo history since the last backup, which is what media
// recovery and the stand-by database replay. The paper's Figure 5 measures
// the cost of this copying; its Tables 4/5 recovery times are dominated by
// how many archived files must be opened and applied.
package archivelog

import (
	"fmt"
	"sort"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/trace"
)

// ArchivedLog is one archived online log group.
type ArchivedLog struct {
	Seq      int
	FirstSCN redo.SCN
	LastSCN  redo.SCN
	Bytes    int64

	file   *simdisk.File
	pieces [][]redo.Record
}

// Pieces returns the archived redo records in SCN order, as views of the
// pages LGWR placed them in: the group's reuse drops those pages without
// writing them, so the archive keeps them as they were. Not to be modified.
func (a *ArchivedLog) Pieces() [][]redo.Record { return a.pieces }

// File returns the archive file.
func (a *ArchivedLog) File() *simdisk.File { return a.file }

// Lost reports whether the archive file was deleted or corrupted.
func (a *ArchivedLog) Lost() bool { return a.file.Deleted() || a.file.Corrupted() }

// Inventory is the set of archived logs, ordered by sequence.
type Inventory struct {
	logs []*ArchivedLog
}

// Add registers an archived log.
func (inv *Inventory) Add(a *ArchivedLog) {
	inv.logs = append(inv.logs, a)
	sort.Slice(inv.logs, func(i, j int) bool { return inv.logs[i].Seq < inv.logs[j].Seq })
}

// Logs returns all archived logs in sequence order.
func (inv *Inventory) Logs() []*ArchivedLog { return inv.logs }

// Len returns the number of archived logs.
func (inv *Inventory) Len() int { return len(inv.logs) }

// From returns the archived logs whose range may contain records at or
// after scn, in sequence order.
func (inv *Inventory) From(scn redo.SCN) []*ArchivedLog {
	var out []*ArchivedLog
	for _, a := range inv.logs {
		if a.LastSCN >= scn {
			out = append(out, a)
		}
	}
	return out
}

// Archiver is the ARCH process: it copies filled groups to the archive
// destination and then releases them for reuse.
type Archiver struct {
	k    *sim.Kernel
	fs   *simdisk.FS
	log  *redo.Manager
	disk string
	inv  *Inventory

	queue []*redo.Group
	arch  *sim.Server

	// OnArchived, when set, is called after each group is archived
	// (the stand-by database hooks shipping here).
	OnArchived func(p *sim.Proc, a *ArchivedLog)

	// Trace, when set, receives arch-category events (enqueue instants
	// and per-group copy spans). A nil tracer is valid.
	Trace *trace.Tracer

	archived int
	failures int
}

// NewArchiver returns an archiver writing to the named disk.
func NewArchiver(k *sim.Kernel, fs *simdisk.FS, log *redo.Manager, disk string) *Archiver {
	return &Archiver{k: k, fs: fs, log: log, disk: disk, inv: &Inventory{}}
}

// Inventory returns the archived log inventory.
func (ar *Archiver) Inventory() *Inventory { return ar.inv }

// Archived returns the number of groups archived.
func (ar *Archiver) Archived() int { return ar.archived }

// Failures returns the number of failed archive attempts.
func (ar *Archiver) Failures() int { return ar.failures }

// Start launches the ARCH process. Like Oracle's ARCH rescanning the
// log headers at startup, it re-queues any full group that never made it
// to the archive: a crash can kill the previous ARCH after it popped a
// group from the queue but before the copy finished, and without the
// rescan that group would stall log reuse ("archival required") forever.
func (ar *Archiver) Start() {
	if ar.arch.Running() {
		return
	}
	queued := make(map[*redo.Group]bool, len(ar.queue))
	for _, g := range ar.queue {
		queued[g] = true
	}
	for _, g := range ar.log.Groups() {
		if !queued[g] && !g.Current() && !g.Archived() && g.Bytes() > 0 {
			ar.queue = append(ar.queue, g)
		}
	}
	ar.arch = ar.k.Serve("ARCH", func() bool { return len(ar.queue) > 0 }, ar.archiveNext)
}

// Stop kills the ARCH process (instance crash). Queued groups stay queued
// and are archived after restart.
func (ar *Archiver) Stop() { ar.arch.Stop() }

// Running reports whether ARCH is active.
func (ar *Archiver) Running() bool { return ar.arch.Running() }

// Enqueue schedules a filled group for archiving. Safe to call from any
// simulation process (typically the redo manager's OnSwitch hook).
func (ar *Archiver) Enqueue(g *redo.Group) {
	ar.queue = append(ar.queue, g)
	ar.Trace.Instant(ar.k.Now(), trace.CatArch, "ARCH", "enqueue",
		trace.I("seq", int64(g.Seq)), trace.I("bytes", g.Bytes()))
	ar.arch.Wake()
}

// QueueLen returns the number of groups waiting to be archived.
func (ar *Archiver) QueueLen() int { return len(ar.queue) }

// archiveNext archives the group at the head of the queue.
func (ar *Archiver) archiveNext(p *sim.Proc) bool {
	g := ar.queue[0]
	ar.queue = ar.queue[1:]
	if err := ar.archive(p, g); err != nil {
		// The group stays unarchived; the log manager will stall on
		// reuse, which is exactly Oracle's behaviour when the archive
		// destination fails.
		ar.failures++
	}
	return true
}

// archive copies one group: read the online member, write the archive
// file, record the inventory entry, release the group.
func (ar *Archiver) archive(p *sim.Proc, g *redo.Group) (err error) {
	pieces := g.Pieces()
	size := g.Bytes()
	name := fmt.Sprintf("arch_%06d.arc", g.Seq)
	span := ar.Trace.Begin(p.Now(), trace.CatArch, "ARCH", "archive",
		trace.I("seq", int64(g.Seq)), trace.I("bytes", size))
	defer func() {
		if err != nil {
			ar.Trace.End(p.Now(), span, trace.S("error", err.Error()))
		} else {
			ar.Trace.End(p.Now(), span)
		}
	}()

	var src *simdisk.File
	for _, m := range g.Members() {
		if !m.Deleted() && !m.Corrupted() {
			src = m
			break
		}
	}
	if src == nil {
		return fmt.Errorf("archivelog: group %d has no readable member", g.ID)
	}
	if err := src.Read(p, 0, size); err != nil {
		return fmt.Errorf("archivelog: read group %d: %w", g.ID, err)
	}
	f, err := ar.fs.Create(ar.disk, name, 0)
	if err != nil {
		// The file may be a leftover from a copy interrupted by a
		// crash (this is a re-archive after restart): truncate and
		// reuse it.
		old, lerr := ar.fs.Lookup(name)
		if lerr != nil {
			return fmt.Errorf("archivelog: create %s: %w", name, err)
		}
		old.Truncate(0)
		f = old
	}
	if err := f.Append(p, size); err != nil {
		return fmt.Errorf("archivelog: write %s: %w", name, err)
	}
	a := &ArchivedLog{Seq: g.Seq, Bytes: size, file: f, pieces: pieces}
	if len(pieces) > 0 {
		last := pieces[len(pieces)-1]
		a.FirstSCN, a.LastSCN = pieces[0][0].SCN, last[len(last)-1].SCN
	}
	ar.inv.Add(a)
	ar.archived++
	ar.log.MarkArchived(g)
	if ar.OnArchived != nil {
		ar.OnArchived(p, a)
	}
	return nil
}
