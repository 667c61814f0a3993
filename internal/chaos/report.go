package chaos

import (
	"fmt"
	"strings"
	"time"

	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
)

// PointResult is one crash point's full outcome.
type PointResult struct {
	// Index is the point's position in the campaign; Window the
	// activity it was aimed at; Seed the derived per-point seed (a
	// single point reproduces from it alone).
	Index  int
	Window Window
	Seed   int64

	// CrashAt is the virtual instant of the crash; CrashSCN the highest
	// durably flushed SCN at that instant (everything an acknowledged
	// commit could depend on).
	CrashAt  sim.Time
	CrashSCN redo.SCN
	// AckedCommits is the ledger size at the crash: transactions the
	// terminals saw acknowledged.
	AckedCommits int

	// RecoveryKind/RecoveryTime/RecordsApplied/BytesReplayed summarise
	// the recovery that followed.
	RecoveryKind   recovery.Kind
	RecoveryTime   time.Duration
	RecordsApplied int
	BytesReplayed  int64

	// The invariant verdicts, with their evidence counts.
	Durable          bool // (a) no acknowledged commit missing
	MissingCommits   int
	Consistent       bool // (b) zero TPC-C consistency violations
	Violations       int
	Idempotent       bool // (c) redo replay applied nothing new
	ReappliedRecords int
	Deterministic    bool // (d) rerun with the same seed agreed
	ServedSafe       bool // (e) no commit acked while the instance was dark
	EstimateOK       bool // (f) crash-instant estimate bracketed the measured redo replay

	// EstimatedRedoReplay is the live V$RECOVERY_ESTIMATE redo-replay
	// prediction at the crash instant; MeasuredRedoReplay the redo-replay
	// phase duration the recovery then actually took. The estimator-
	// accuracy invariant (f) holds the first within the tolerance band of
	// the second (see estimateWithin). Both zero when sampling is off.
	EstimatedRedoReplay time.Duration
	MeasuredRedoReplay  time.Duration
	// MetricsHash/MetricSamples condense the point's full sampled metric
	// stream (every counter, gauge and estimate of every sample); folded
	// into the fingerprint so metric divergence fails determinism.
	MetricsHash   uint64
	MetricSamples int

	// Replication measures (replicated explorations only; ReplActive
	// gates their fold into the fingerprint so unreplicated golden
	// values are untouched). FailedOver reports the remedy was a
	// promotion; RPOLost counts acknowledged commits beyond the
	// promotion SCN (legitimate async exposure, a durability violation
	// in sync mode); DarkAcks counts sync acknowledgements granted while
	// the stand-by quorum was partitioned (always a violation);
	// StreamHash and the Repl* counters condense the redo transport.
	ReplActive    bool
	FailedOver    bool
	RPOLost       int
	DarkAcks      int
	StreamHash    uint64
	ReplFrames    int64
	ReplBytes     int64
	ReplRecords   int64
	ReplSyncWaits int64
	ReplSyncLost  int64
	ReplResyncs   int64

	// Offered/Served count the terminals' transaction attempts over the
	// whole point (commits and user aborts served, errors refused).
	// DarkCommits is the evidence count behind ServedSafe: commit
	// acknowledgements timestamped between the crash and the instance
	// reopening — traffic no down database could have served.
	Offered     int
	Served      int
	DarkCommits int
	// Fingerprint condenses final state + measures (the determinism
	// comparison value).
	Fingerprint uint64
	// TraceHash/TraceEvents condense the point's full trace-event stream
	// (every span, instant, timestamp and attribute). The determinism
	// invariant compares them across the rerun, so a scheduling
	// divergence is caught even when the final state agrees.
	TraceHash   uint64
	TraceEvents int
}

// OK reports whether every invariant held at this point.
func (r *PointResult) OK() bool {
	return r.Durable && r.Consistent && r.Idempotent && r.Deterministic &&
		r.ServedSafe && r.EstimateOK
}

// Verdict renders the point's overall invariant verdict: "ok" when every
// invariant held, "VIOLATION" otherwise.
func (r *PointResult) Verdict() string {
	if r.OK() {
		return "ok"
	}
	return "VIOLATION"
}

// String renders a one-line summary.
func (r *PointResult) String() string {
	return fmt.Sprintf("point %d (%s): crash@%v scn=%d recovery=%v verdict=%s",
		r.Index, r.Window, time.Duration(r.CrashAt).Round(time.Millisecond), r.CrashSCN,
		r.RecoveryTime.Round(time.Millisecond), r.Verdict())
}

// Report is one exploration campaign's outcome.
type Report struct {
	Config Config
	Points []*PointResult
}

// AllGreen reports whether every point held every invariant.
func (r *Report) AllGreen() bool { return r.Failed() == 0 }

// Failed counts points with at least one violated invariant.
func (r *Report) Failed() int {
	n := 0
	for _, p := range r.Points {
		if !p.OK() {
			n++
		}
	}
	return n
}

// verdict renders an invariant column: "ok", or the evidence count when
// the invariant failed.
func verdict(ok bool, n int) string {
	if ok {
		return "ok"
	}
	return fmt.Sprintf("FAIL:%d", n)
}

// FormatReport renders the per-crash-point table. Every value is
// virtual-time or counter based, so the output is byte-identical across
// reruns with the same seed.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos crash-point exploration: %d points, seed %d.\n", len(r.Points), r.Config.Spec.Seed)
	fmt.Fprintf(&b, "%4s %-10s %9s %9s %8s %9s %11s %7s %8s %8s %9s %9s | %7s %7s %6s %6s %6s %6s\n",
		"pt", "window", "crash@", "crashSCN", "recovery", "applied", "replayed", "acked",
		"offered", "served", "est", "measured",
		"durable", "consist", "idem", "determ", "safe", "estim")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%4d %-10s %8.2fs %9d %7.1fs %9d %10.1fKB %7d %8d %8d %8.2fs %8.2fs | %7s %7s %6s %6s %6s %6s\n",
			p.Index, p.Window, time.Duration(p.CrashAt).Seconds(), p.CrashSCN,
			p.RecoveryTime.Seconds(), p.RecordsApplied, float64(p.BytesReplayed)/1024,
			p.AckedCommits, p.Offered, p.Served,
			p.EstimatedRedoReplay.Seconds(), p.MeasuredRedoReplay.Seconds(),
			verdict(p.Durable, p.MissingCommits),
			verdict(p.Consistent, p.Violations),
			verdict(p.Idempotent, p.ReappliedRecords),
			verdict(p.Deterministic, 1),
			verdict(p.ServedSafe, p.DarkCommits+p.DarkAcks),
			verdict(p.EstimateOK, 1))
	}
	if r.AllGreen() {
		fmt.Fprintf(&b, "%d/%d crash points green: durability, consistency, idempotence, determinism, served-safety, estimator accuracy all held.\n",
			len(r.Points), len(r.Points))
	} else {
		fmt.Fprintf(&b, "%d/%d crash points VIOLATED an invariant (reproduce one with its point seed).\n",
			r.Failed(), len(r.Points))
	}
	return b.String()
}
