package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"dbench/internal/core"
	"dbench/internal/recovery"
	"dbench/internal/trace"
)

// ---- host share by layer ----------------------------------------------

const programPrefix = "dbench/internal/"

// packageBucket maps a package under dbench/internal to its bucket: most
// keep their own name, the experiment-driver packages share "core".
func packageBucket(pkg string) string {
	switch pkg {
	case "core", "faults", "sqladmin", "control", "metrics", "chaos":
		return "core"
	}
	return pkg
}

// gcFrames and schedFrames mark a runtime stack that holds no program
// frame. A goroutine that parks switches to its thread's g0 stack, so the
// scheduler's own work (and the futex sleep under it) shows up as a stack
// rooted at runtime.mcall with nothing of the program above it.
var (
	gcFrames    = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.gcMark", "runtime.gcSweep"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall"}
)

func hasFrame(stack []string, marks []string) bool {
	for _, fn := range stack {
		for _, m := range marks {
			if strings.HasPrefix(fn, m) {
				return true
			}
		}
	}
	return false
}

// bucketOf attributes one stack (function names, leaf first) to a layer:
// the leaf-most frame inside dbench/internal wins; a stack without one is
// the garbage collector's, the scheduler's, or other runtime work.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, programPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return packageBucket(rest[:i])
			}
		}
	}
	switch {
	case hasFrame(stack, gcFrames):
		return "rt_gc"
	case hasFrame(stack, schedFrames):
		return "rt_sched"
	}
	return "rt_other"
}

// shares turns per-bucket weights into fractions of their sum over the
// declared buckets; weight outside them is returned as the stray fraction.
func shares(prefix string, buckets []string, weight map[string]float64, rep *repReport) (stray float64) {
	var total, declared float64
	for _, w := range weight {
		total += w
	}
	for _, b := range buckets {
		declared += weight[b]
	}
	for _, b := range buckets {
		s := 0.0
		if declared > 0 {
			s = weight[b] / declared
		}
		rep.Layers[prefix+b] = s
	}
	if total > 0 {
		stray = (total - declared) / total
	}
	return stray
}

func cpuShares(profile []byte, rep *repReport) error {
	samples, err := readProfile(profile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	weight := make(map[string]float64)
	var n int64
	for _, s := range samples {
		weight[bucketOf(s.stack)] += float64(s.count)
		n += s.count
	}
	shares("cpu_share.", cpuBuckets, weight, rep)
	rep.Notes = append(rep.Notes, fmt.Sprintf("cpu profile: %d samples", n))
	return nil
}

// stackKey identifies an allocation site the way runtime.MemProfile does.
type stackKey [32]uintptr

// heapProfile returns the bytes allocated so far at each sampled site.
// The profile is only complete up to the last finished collection, and a
// site's counts are published over two cycles, hence the two GCs.
func heapProfile() map[stackKey]int64 {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/2)
	}
	out := make(map[stackKey]int64, len(recs))
	for i := range recs {
		out[recs[i].Stack0] += recs[i].AllocBytes
	}
	return out
}

func allocShares(before, after map[stackKey]int64, rep *repReport) {
	weight := make(map[string]float64)
	var names []string
	for key, bytes := range after {
		d := bytes - before[key]
		if d <= 0 {
			continue
		}
		n := 0
		for n < len(key) && key[n] != 0 {
			n++
		}
		names = names[:0]
		frames := runtime.CallersFrames(key[:n])
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		weight[bucketOf(names)] += float64(d)
	}
	stray := shares("alloc_share.", allocBuckets, weight, rep)
	rep.Notes = append(rep.Notes, fmt.Sprintf("heap profile: %.1f%% of sampled bytes had no program frame (left out of alloc_share)", 100*stray))
}

// ---- virtual counters and spans ---------------------------------------

// spanSink keeps the duration of every closed span, by category and name.
type spanSink struct {
	durs map[string][]time.Duration
}

func newSpanSink() *spanSink { return &spanSink{durs: make(map[string][]time.Duration)} }

func spanKey(cat trace.Category, name string) string { return cat.String() + "/" + name }

func (s *spanSink) Emit(ev trace.Event) {
	if ev.Kind != trace.KindSpan {
		return
	}
	if ev.Cat == trace.CatTxn {
		// Only answered transactions have a response time.
		for _, a := range ev.Attrs[:ev.NAttrs] {
			if a.Key == "status" && a.Str == "error" {
				return
			}
		}
	}
	k := spanKey(ev.Cat, ev.Name)
	s.durs[k] = append(s.durs[k], ev.Dur)
}

// quantile is the nearest-rank q-quantile in milliseconds (0 if empty).
func quantileMS(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Millisecond)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// virtualLayers fills the exact per-layer numbers of a traced run from the
// Result, the span sink and the last MMON sample. After a failover the
// counters are the crashed primary's, frozen at its last sample; ratios
// divide by tpcc.served of that same sample, so they stay consistent.
func virtualLayers(res *core.Result, sink *spanSink, rep *repReport) {
	L := rep.Layers
	v := rep.Virtual
	L["recovery_s"] = v.RecoveryS
	L["user_outage_s"] = v.UserOutageS

	last, _ := res.Repository.Last()
	counter := func(name string) float64 { return float64(last.Counter(name)) }
	served := counter("tpcc.served")
	elapsed := last.At.Seconds()

	L["bufcache.hit_ratio"] = v.CacheHitRate
	L["bufcache.evictions_per_txn"] = ratio(counter("cache.evictions"), served)
	L["bufcache.dirty_evict_writes"] = counter("cache.dirty_evict_writes")
	L["bufcache.checkpoint_writes"] = counter("cache.checkpoint_writes")

	flushes := sink.durs[spanKey(trace.CatLGWR, "flush")]
	L["redo.kb_per_txn"] = ratio(counter("redo.flushed_bytes")/1024, served)
	L["redo.flushes_per_commit"] = ratio(counter("redo.flushes"), served)
	L["redo.flush_p50_ms"] = quantileMS(flushes, 0.50)
	L["redo.flush_p90_ms"] = quantileMS(flushes, 0.90)
	L["redo.log_switches"] = counter("redo.switches")
	L["redo.stall_s"] = counter("redo.stall_ns") / 1e9

	// The first checkpoint span is set-up's (the one before the backup);
	// Result.Checkpoints does not count it either.
	ckpts := sink.durs[spanKey(trace.CatCkpt, "checkpoint")]
	if len(ckpts) > 0 {
		ckpts = ckpts[1:]
	}
	var ckptTotal time.Duration
	for _, d := range ckpts {
		ckptTotal += d
	}
	L["engine.checkpoints"] = float64(v.Checkpoints)
	L["engine.checkpoint_mean_s"] = ratio(ckptTotal.Seconds(), float64(len(ckpts)))

	L["simdisk.busy_share.data"] = ratio(v.BusyDataS, elapsed*float64(v.DataDisks))
	L["simdisk.busy_share.redo"] = ratio(v.BusyRedoS, elapsed)
	L["simdisk.busy_share.arch"] = ratio(v.BusyArchS, elapsed)

	L["txn.lock_waits_per_ktxn"] = ratio(1000*float64(v.LockWaits), float64(v.Committed))
	L["txn.lock_timeouts"] = float64(v.LockTimeouts)

	newOrder := sink.durs[spanKey(trace.CatTxn, "New-Order")]
	payment := sink.durs[spanKey(trace.CatTxn, "Payment")]
	L["tpcc.new_order.p50_ms"] = quantileMS(newOrder, 0.50)
	L["tpcc.new_order.p90_ms"] = quantileMS(newOrder, 0.90)
	L["tpcc.payment.p50_ms"] = quantileMS(payment, 0.50)
	L["tpcc.payment.p90_ms"] = quantileMS(payment, 0.90)
	rep.Notes = append(rep.Notes, fmt.Sprintf("response-time samples (every 32nd txn per terminal): new_order %d, payment %d; redo flush spans %d",
		len(newOrder), len(payment), len(flushes)))

	L["archivelog.archived_logs"] = float64(len(sink.durs[spanKey(trace.CatArch, "archive")]))

	phase := map[string]float64{}
	var scanned, applied float64
	if res.Outcome != nil && res.Outcome.Report != nil {
		r := res.Outcome.Report
		for _, ph := range r.Phases {
			phase[ph.Name] += ph.Duration().Seconds()
		}
		scanned, applied = float64(r.RecordsScanned), float64(r.RecordsApplied)
	}
	L["recovery.mount_s"] = phase[recovery.PhaseMount]
	L["recovery.redo_replay_s"] = phase[recovery.PhaseRedoReplay]
	L["recovery.undo_rollback_s"] = phase[recovery.PhaseUndoRollback]
	L["recovery.block_writes_s"] = phase[recovery.PhaseBlockWrites]
	L["recovery.open_s"] = phase[recovery.PhaseOpen]
	L["recovery.records_scanned"] = scanned
	L["recovery.apply_ratio"] = ratio(applied, scanned)

	var frames, bytes float64
	for _, row := range res.Replication {
		frames += float64(row.Frames)
		bytes += float64(row.Bytes)
	}
	L["standby.frames"] = frames
	L["standby.kb_per_txn"] = ratio(bytes/1024, float64(v.Committed))
	L["standby.sync_waits_per_txn"] = ratio(counter("repl.sync.waits"), served)
	L["standby.lag_records"] = float64(v.ReplLagRecords)
	L["standby.rto_estimate_ratio"] = ratio(v.RTOEstimateS, v.RecoveryS)
}
