package recovery

import (
	"time"

	"dbench/internal/sim"
	"dbench/internal/trace"
)

// Canonical phase names, in the order a recovery moves through them.
// Not every recovery visits every phase (instance recovery has no
// restore; a fully-online redo range skips archive replay).
const (
	PhaseMount         = "mount"
	PhaseRestore       = "restore"
	PhaseArchiveReplay = "archive replay"
	PhaseRedoReplay    = "redo replay"
	PhaseUndoRollback  = "undo rollback"
	PhaseBlockWrites   = "block writes"
	PhaseOpen          = "open"
)

// PhaseOrder ranks the canonical phases for order assertions.
var PhaseOrder = []string{
	PhaseMount, PhaseRestore, PhaseArchiveReplay, PhaseRedoReplay,
	PhaseUndoRollback, PhaseBlockWrites, PhaseOpen,
}

// Phase is one contiguous step of a recovery's phase timeline.
type Phase struct {
	Name       string
	Start, End sim.Time
	// Scanned/Records/Bytes are the redo records examined, applied, and
	// the applied bytes attributed to this phase.
	Scanned int
	Records int
	Bytes   int64
	// Workers is the apply/IO fan-out active during the phase (1 for
	// coordinator-only phases and all of a one-worker recovery). The phase
	// interval is still the coordinator's contiguous wall-clock slice;
	// worker activity shows up as child spans of the phase span.
	Workers int
}

// Duration returns the phase's elapsed virtual time.
func (ph Phase) Duration() time.Duration { return ph.End.Sub(ph.Start) }

// timeline builds a Report's phase list and mirrors it onto the trace
// bus as a recovery-category span tree (one root span per recovery, one
// child span per phase). Phases are contiguous by construction — each
// opens at the virtual instant the previous closed — so they are
// ordered, non-overlapping, and sum exactly to Finished-Started.
type timeline struct {
	rep  *Report
	tr   *trace.Tracer
	root trace.SpanID
	cur  trace.SpanID
	open bool

	baseScanned int
	baseApplied int
	baseBytes   int64
}

// beginTimeline opens the root recovery span at rep.Started (callers
// construct rep and the timeline at the same virtual instant).
func (m *Manager) beginTimeline(p *sim.Proc, rep *Report) *timeline {
	tl := &timeline{rep: rep, tr: m.in.Tracer()}
	tl.root = tl.tr.Begin(p.Now(), trace.CatRecovery, "recovery", "recovery:"+rep.Kind.String())
	return tl
}

// phase closes the current phase (if any) and opens `name` at p.Now().
func (tl *timeline) phase(p *sim.Proc, name string) {
	tl.closePhase(p, nil)
	tl.rep.Phases = append(tl.rep.Phases, Phase{Name: name, Start: p.Now(), Workers: 1})
	tl.open = true
	tl.baseScanned = tl.rep.RecordsScanned
	tl.baseApplied = tl.rep.RecordsApplied
	tl.baseBytes = tl.rep.BytesApplied
	tl.cur = tl.tr.BeginChild(p.Now(), trace.CatRecovery, "recovery", name, tl.root)
}

// setWorkers records the fan-out active during the open phase.
func (tl *timeline) setWorkers(n int) {
	if !tl.open || n < 1 {
		return
	}
	tl.rep.Phases[len(tl.rep.Phases)-1].Workers = n
}

// currentSpan returns the open phase's span (the parent for worker
// spans), falling back to the root when no phase is open.
func (tl *timeline) currentSpan() trace.SpanID {
	if tl.open {
		return tl.cur
	}
	return tl.root
}

// closePhase ends the open phase and its span; a non-nil err — the
// recovery failed inside this phase — is recorded on the span.
func (tl *timeline) closePhase(p *sim.Proc, err error) {
	if !tl.open {
		return
	}
	ph := &tl.rep.Phases[len(tl.rep.Phases)-1]
	ph.End = p.Now()
	ph.Scanned = tl.rep.RecordsScanned - tl.baseScanned
	ph.Records = tl.rep.RecordsApplied - tl.baseApplied
	ph.Bytes = tl.rep.BytesApplied - tl.baseBytes
	tl.tr.End(p.Now(), tl.cur, withError(err,
		trace.I("records", int64(ph.Records)), trace.I("bytes", ph.Bytes), trace.I("scanned", int64(ph.Scanned)))...)
	tl.open = false
}

// finish closes the last phase and the root span, both tagged with err
// when the recovery failed. On success call it after rep.Finished is
// stamped, at the same virtual instant.
func (tl *timeline) finish(p *sim.Proc, err error) {
	tl.closePhase(p, err)
	tl.tr.End(p.Now(), tl.root, withError(err,
		trace.I("records", int64(tl.rep.RecordsApplied)),
		trace.I("bytes", tl.rep.BytesApplied),
		trace.I("losers", int64(tl.rep.LosersRolledBack)))...)
}

// withError appends an error attribute to a span's closing attributes
// when err is non-nil.
func withError(err error, attrs ...trace.Attr) []trace.Attr {
	if err != nil {
		attrs = append(attrs, trace.S("error", err.Error()))
	}
	return attrs
}
