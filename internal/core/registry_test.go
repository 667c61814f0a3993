package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"dbench/internal/control"
	"dbench/internal/sim"
	"dbench/internal/standby"
)

// TestRegistryOrderPinned pins the instance registry every report reads —
// Status(), V$SYSSTAT, the AWR report, the -stats CSV/JSON and the chaos
// MetricsHash — on a rig that registers every kind of counter: the engine,
// cache and redo rows, the driver's, two sync stand-bys' and a
// controller's, with sampling on. The names must come in this order, and
// after 30 virtual seconds of load their values must hash to the pinned
// value: every report that folds the registry depends on both.
func TestRegistryOrderPinned(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 5
	spec.TPCC = tinyScale().TPCC
	spec.Recovery = RecoveryConfig{FileSize: 1 << 20, Groups: 3, CheckpointTimeout: 10 * time.Second}
	spec.CacheBlocks = 512
	spec.SampleInterval = time.Second
	rig, err := NewRig(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = rig.Exec("registry", func(p *sim.Proc) error {
		if err := rig.Load(p); err != nil {
			return err
		}
		cluster, err := rig.StartCluster(p, 2, standby.ClusterConfig{Mode: standby.ModeSync})
		if err != nil {
			return err
		}
		cluster.RegisterProbes(rig.In.Monitor())
		ctl, err := control.New(rig.In, control.Config{Budget: 20 * time.Second})
		if err != nil {
			return err
		}
		ctl.Start()
		rig.Drv.Start()
		p.Sleep(30 * time.Second)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := rig.In.Registry()
	want := []string{
		"engine.checkpoints", "engine.switch_checkpoints", "engine.timeout_checkpoints",
		"engine.crashes", "engine.ts_offlines", "engine.ts_onlines", "engine.alters",
		"cache.hits", "cache.misses", "cache.evictions", "cache.dirty_evict_writes",
		"cache.checkpoint_writes", "cache.skipped_writes", "cache.unflushed_skips",
		"redo.switches", "redo.flushes", "redo.flushed_bytes",
		"redo.checkpoint_waits", "redo.archive_waits", "redo.stall_ns",
		"tpcc.offered", "tpcc.served", "tpcc.refused",
		"repl.frames", "repl.bytes", "repl.records", "repl.sync.waits", "repl.sync.lost", "repl.resyncs",
		"ctl.ticks", "ctl.skipped_ticks", "ctl.rung_changes", "ctl.knob_changes", "ctl.infeasible_ticks",
	}
	if got := reg.Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("registry names:\n got %q\nwant %q", got, want)
	}
	h := fnv.New64a()
	for _, c := range reg.Snapshot() {
		fmt.Fprintf(h, "%s=%d\n", c.Name, c.Value)
	}
	const wantHash = uint64(0xbd467cf29cdeb650)
	if got := h.Sum64(); got != wantHash {
		t.Errorf("registry snapshot hash = %#x, want %#x", got, wantHash)
		for _, c := range reg.Snapshot() {
			t.Logf("%s = %d", c.Name, c.Value)
		}
	}
}
