package main

import (
	"fmt"
	"time"

	"dbench/internal/core"
	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

const (
	wCached   = "oltp_cached"
	wIOBound  = "oltp_io_bound"
	wCrash    = "crash_recover"
	wFailover = "replica_failover"
)

// workload is one named set of inputs. why is the one-sentence reason it
// exists (printed in BENCHMARK.json); the README says which layers it
// exercises and which it bypasses.
type workload struct {
	name string
	why  string
	// config is the Table 3 recovery configuration, virtual the measured
	// run length; shape sets what else distinguishes the workload. tiny is
	// the smoke test's scale (W=1, a few hundred transactions).
	config  string
	virtual time.Duration
	shape   func(s *core.Spec, tiny bool)
}

// spec builds the experiment for a seed. What the four workloads share is
// the default two-warehouse TPC-C database (3 219 loaded 8 KiB blocks, about
// 25 MiB) under a closed loop of zero-think-time terminals, on the default
// cost model.
func (w workload) spec(seed int64, tiny bool) core.Spec {
	rc, ok := core.ConfigByName(w.config)
	if !ok {
		panic("benchmark: unknown recovery config " + w.config)
	}
	s := core.Spec{
		Name:      w.name,
		Seed:      seed,
		Recovery:  rc,
		TPCC:      tpcc.DefaultConfig(),
		Cost:      engine.DefaultCostModel(),
		Duration:  w.virtual,
		Detection: 2 * time.Second,
	}
	if tiny {
		s.TPCC.Warehouses = 1
		s.TPCC.CustomersPerDistrict = 60
		s.TPCC.Items = 1000
		s.Duration = 20 * time.Second
	}
	w.shape(&s, tiny)
	return s
}

// crashAt schedules the SHUTDOWN ABORT. The tiny variant needs the run to
// outlast the 12 s instance start-up that every recovery pays.
func crashAt(s *core.Spec, at time.Duration, tiny bool) {
	s.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
	s.InjectAt = at
	if tiny {
		s.InjectAt = 5 * time.Second
		s.Duration = 30 * time.Second
	}
}

var workloads = []workload{
	{
		name:   wCached,
		why:    "cache 2.5x the data, no fault: host time is sim handoff, txn/lock, TPC-C codec and redo; cache, disk and checkpoint changes must not move it",
		config: "F100G3T10", virtual: 100 * time.Second,
		shape: func(s *core.Spec, tiny bool) { s.CacheBlocks = 8192 },
	},
	{
		name:   wIOBound,
		why:    "cache 16% of the data, 10 MB logs, archiving: tpmC is set by the virtual disks; miss, evict, dirty-write, block-clone, log-switch, checkpoint and ARCH work shows here",
		config: "F10G3T1", virtual: 5 * time.Minute,
		shape: func(s *core.Spec, tiny bool) {
			s.CacheBlocks = 512
			s.Archive = true
			// Ten terminals, not twenty: tpmC is the same (the disks
			// set it) but Delivery transactions no longer queue past
			// the 10 s lock timeout, so no operation fails.
			s.TPCC.TerminalsPerWarehouse = 5
			if tiny {
				s.CacheBlocks = 64
				s.Duration = 30 * time.Second
			}
		},
	},
	{
		name:   wCrash,
		why:    "SHUTDOWN ABORT mid-run, 4-worker instance recovery: the redo the OLTP workloads write is read back; tpmC here includes the outage, so recovery time is gated end to end",
		config: "F100G3T10", virtual: 60 * time.Second,
		shape: func(s *core.Spec, tiny bool) {
			s.CacheBlocks = 4096
			s.CPUs = 4
			s.RecoveryWorkers = 4
			crashAt(s, 25*time.Second, tiny)
		},
	},
	{
		name:   wFailover,
		why:    "two sync stand-bys over a LAN link, primary crash, promotion: stream-frame codec, sim.Link, the commit gate and Promote, which the other three bypass",
		config: "F100G3T10", virtual: 60 * time.Second,
		shape: func(s *core.Spec, tiny bool) {
			s.CacheBlocks = 8192
			s.Standbys = 2
			s.ReplMode = standby.ModeSync
			s.ReplLink = core.LinkLAN
			crashAt(s, 30*time.Second, tiny)
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// loadOnly is the set-up of a spec and nothing else: create, load,
// checkpoint, backup, stand-by instantiation, consistency check, teardown.
func loadOnly(s core.Spec) core.Spec {
	s.Duration = 0
	s.Fault = nil
	return s
}
