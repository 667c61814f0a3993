package main

import (
	"encoding/json"
	"sort"
)

// metricDef names one metric. moves is, for a per-layer metric, the
// end-to-end metric and workload it is expected to move — written down
// before anything was measured, as the choosing-metrics guide asks.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
	moves  string  // per-layer only
}

// runSeconds is how long the repetition loop of one untraced run measures.
const runSeconds = 24

// endToEnd is what a user of dbench sees: the host cost of one experiment
// and the experiment's virtual result. Every metric is defined, and never
// zero, on every workload. A bound is about three times the widest spread
// (quartile distance over median) measured across seeds, see README.md; the
// two host times get the most the contract allows, because the builder's
// box runs a fifth slower for minutes at a time.
var endToEnd = []metricDef{
	{name: "host_us_per_txn", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_txn", unit: "count", better: "lower", bound: 0.025},
	{name: "alloc_kb_per_txn", unit: "KiB", better: "lower", bound: 0.04},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "tpmC", unit: "1/min", better: "higher", bound: 0.04},
	{name: "served_share", unit: "ratio", better: "higher", bound: 0.005},
}

// cpuBuckets are the layers a CPU sample can belong to: one per program
// package (core also takes faults, sqladmin, control, metrics and chaos),
// then the three runtime buckets for stacks without a program frame.
var cpuBuckets = []string{
	"sim", "simdisk", "storage", "redo", "bufcache", "txn", "catalog", "engine",
	"tpcc", "recovery", "standby", "archivelog", "backup", "monitor", "trace", "core",
	"rt_sched", "rt_gc", "rt_other",
}

// allocBuckets are the program buckets alone: every allocation the run
// makes has a program frame under it.
var allocBuckets = cpuBuckets[:16]

// probeNames are the isolated probes, each reporting <name>.ns (fastest
// batch, per operation) and <name>.allocs (leanest batch, per operation).
var probeNames = []struct{ name, moves string }{
	{"sim.sleep", "host_us_per_txn, allocs_per_txn @ oltp_cached"},
	{"sim.cond_pingpong", "host_us_per_txn, allocs_per_txn @ oltp_cached"},
	{"sim.schedule", "host_us_per_txn, allocs_per_txn @ oltp_cached"},
	{"simdisk.read", "host_us_per_txn @ oltp_io_bound; none @ oltp_cached"},
	{"storage.block_clone", "host_us_per_txn, alloc_kb_per_txn @ oltp_io_bound; none @ oltp_cached"},
	{"redo.record_codec", "host_us_per_txn, allocs_per_txn @ oltp_cached"},
	{"redo.append_flush", "host_us_per_txn, allocs_per_txn @ oltp_cached"},
	{"redo.stream_frame_codec", "host_us_per_txn, allocs_per_txn @ replica_failover only"},
	{"bufcache.get_hit", "host_us_per_txn @ oltp_cached"},
	{"bufcache.get_miss", "host_us_per_txn, alloc_kb_per_txn @ oltp_io_bound; none @ oltp_cached"},
	{"txn.update_commit", "host_us_per_txn, allocs_per_txn @ oltp_cached"},
	{"tpcc.row_codec", "host_us_per_txn, allocs_per_txn @ oltp_cached"},
	{"tpcc.new_order", "host_us_per_txn, allocs_per_txn @ oltp_cached"},
	{"recovery.instance_w1", "no end-to-end host metric (recovery is <1% of a run's host time)"},
	{"recovery.instance_w4", "no end-to-end host metric (recovery is <1% of a run's host time)"},
	{"recovery.media_datafile", "no end-to-end host metric (no media-recovery workload yet)"},
	{"standby.receive_apply", "host_us_per_txn, allocs_per_txn @ replica_failover only"},
}

// virtualLayerDefs are the exact counters and spans of the traced run.
var virtualLayerDefs = []metricDef{
	{name: "recovery_s", unit: "s", better: "lower", moves: "tpmC, served_share @ crash_recover, replica_failover (the run includes the outage)"},
	{name: "user_outage_s", unit: "s", better: "lower", moves: "tpmC, served_share @ crash_recover, replica_failover"},

	{name: "bufcache.hit_ratio", unit: "ratio", better: "higher", moves: "tpmC @ oltp_io_bound"},
	{name: "bufcache.evictions_per_txn", unit: "count", better: "lower", moves: "tpmC @ oltp_io_bound"},
	{name: "bufcache.dirty_evict_writes", unit: "count", better: "lower", moves: "tpmC @ oltp_io_bound"},
	{name: "bufcache.checkpoint_writes", unit: "count", better: "lower", moves: "tpmC @ oltp_io_bound"},

	{name: "redo.kb_per_txn", unit: "KiB", better: "lower", moves: "tpmC @ oltp_cached; recovery_s @ crash_recover"},
	{name: "redo.flushes_per_commit", unit: "ratio", better: "lower", moves: "tpmC @ oltp_cached, replica_failover"},
	{name: "redo.flush_p50_ms", unit: "ms", better: "lower", moves: "tpmC @ oltp_cached, replica_failover"},
	{name: "redo.flush_p90_ms", unit: "ms", better: "lower", moves: "tpmC @ oltp_cached, replica_failover"},
	{name: "redo.log_switches", unit: "count", better: "lower", moves: "tpmC @ oltp_io_bound"},
	{name: "redo.stall_s", unit: "s", better: "lower", moves: "tpmC @ oltp_io_bound"},

	{name: "engine.checkpoints", unit: "count", better: "lower", moves: "tpmC @ oltp_io_bound"},
	{name: "engine.checkpoint_mean_s", unit: "s", better: "lower", moves: "tpmC @ oltp_io_bound"},

	{name: "simdisk.busy_share.data", unit: "ratio", better: "lower", moves: "tpmC @ oltp_io_bound"},
	{name: "simdisk.busy_share.redo", unit: "ratio", better: "lower", moves: "tpmC @ oltp_cached, replica_failover"},
	{name: "simdisk.busy_share.arch", unit: "ratio", better: "lower", moves: "tpmC @ oltp_io_bound"},

	{name: "txn.lock_waits_per_ktxn", unit: "count", better: "lower", moves: "tpmC @ all (closed loop: throughput = terminals / response time)"},
	{name: "txn.lock_timeouts", unit: "count", better: "lower", moves: "tpmC @ oltp_io_bound"},

	{name: "tpcc.new_order.p50_ms", unit: "ms", better: "lower", moves: "tpmC @ all"},
	{name: "tpcc.new_order.p90_ms", unit: "ms", better: "lower", moves: "tpmC @ all"},
	{name: "tpcc.payment.p50_ms", unit: "ms", better: "lower", moves: "tpmC @ all"},
	{name: "tpcc.payment.p90_ms", unit: "ms", better: "lower", moves: "tpmC @ all"},

	{name: "archivelog.archived_logs", unit: "count", better: "lower", moves: "tpmC @ oltp_io_bound"},

	{name: "recovery.mount_s", unit: "s", better: "lower", moves: "recovery_s, tpmC @ crash_recover"},
	{name: "recovery.redo_replay_s", unit: "s", better: "lower", moves: "recovery_s, tpmC @ crash_recover, replica_failover"},
	{name: "recovery.undo_rollback_s", unit: "s", better: "lower", moves: "recovery_s, tpmC @ crash_recover"},
	{name: "recovery.block_writes_s", unit: "s", better: "lower", moves: "recovery_s, tpmC @ crash_recover"},
	{name: "recovery.open_s", unit: "s", better: "lower", moves: "recovery_s, tpmC @ crash_recover, replica_failover"},
	{name: "recovery.records_scanned", unit: "count", better: "lower", moves: "recovery_s @ crash_recover"},
	{name: "recovery.apply_ratio", unit: "ratio", better: "higher", moves: "recovery_s @ crash_recover (what coordinator-side pruning would raise)"},

	{name: "standby.frames", unit: "count", better: "lower", moves: "tpmC, host_us_per_txn @ replica_failover"},
	{name: "standby.kb_per_txn", unit: "KiB", better: "lower", moves: "tpmC, alloc_kb_per_txn @ replica_failover"},
	{name: "standby.sync_waits_per_txn", unit: "ratio", better: "lower", moves: "tpmC @ replica_failover"},
	{name: "standby.lag_records", unit: "count", better: "lower", moves: "recovery_s @ replica_failover"},
	{name: "standby.rto_estimate_ratio", unit: "ratio", better: "lower", moves: "recovery_s @ replica_failover (estimate / measured)"},

	{name: "core.trace_overhead", unit: "ratio", better: "lower", moves: "host_us_per_txn @ all (traced / untraced - 1)"},
}

// perLayer is every per-layer metric, in printing order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, b := range cpuBuckets {
		out = append(out, metricDef{name: "cpu_share." + b, unit: "ratio", better: "lower",
			moves: "host_us_per_txn of the same workload"})
	}
	for _, b := range allocBuckets {
		out = append(out, metricDef{name: "alloc_share." + b, unit: "ratio", better: "lower",
			moves: "alloc_kb_per_txn of the same workload"})
	}
	for _, p := range probeNames {
		out = append(out,
			metricDef{name: p.name + ".ns", unit: "ns", better: "lower", moves: p.moves},
			metricDef{name: p.name + ".allocs", unit: "count", better: "lower", moves: p.moves})
	}
	return append(out, virtualLayerDefs...)
}

// manifest renders BENCHMARK.json from the tables above, so the file and
// the harness cannot drift: the smoke test compares them, and rewrites the
// file when run with -update.
func manifest() []byte {
	type jw struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type je struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type jl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []jw     `json:"workloads"`
		EndToEnd   []je     `json:"end_to_end"`
		PerLayer   []jl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, jw{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, je{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, jl{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is plain strings and numbers
	}
	return append(b, '\n')
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches each metric's unit, and reports the names the run did
// not produce or produced without being declared.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var problems []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			problems = append(problems, "missing "+d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			problems = append(problems, "undeclared "+name)
		}
	}
	sort.Strings(problems)
	return out, problems
}
