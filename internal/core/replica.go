package core

import (
	"fmt"
	"time"

	"dbench/internal/monitor"
	"dbench/internal/sim"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

// Replication experiment: continuous redo streaming to N stand-bys with
// managed failover as the ShutdownAbort remedy, swept over stand-by
// count × commit mode × link profile. The measures are the two numbers
// every replication deployment is sized by: RPO (acknowledged commits
// lost at failover, checked against the external ledger — structurally 0
// in sync mode) and RTO (virtual failover time, with the MMON live
// estimate alongside for comparison).

// Link profiles for the primary→stand-by network. LinkLAN is the default
// when a replicated Spec leaves ReplLink zero.
var (
	// LinkLAN is a same-site link: sub-millisecond, effectively
	// unconstrained for a ~0.4 MB/s redo stream.
	LinkLAN = sim.LinkSpec{Name: "lan", Latency: 200 * time.Microsecond, BytesPerSec: 100 << 20}
	// LinkWAN is a remote-site link: 5 ms one way at 20 MB/s — enough
	// latency to make sync commit acknowledgement visibly expensive.
	LinkWAN = sim.LinkSpec{Name: "wan", Latency: 5 * time.Millisecond, BytesPerSec: 20 << 20}
)

// LinkByName resolves a profile name ("lan", "wan") for the CLI.
func LinkByName(name string) (sim.LinkSpec, bool) {
	l, ok := map[string]sim.LinkSpec{"lan": LinkLAN, "wan": LinkWAN}[name]
	return l, ok
}

// snapshotReplica adapts a streaming stand-by to the TPC-C Replica
// contract: each read-only transaction runs inside one stand-by snapshot
// (consistent as of the applied SCN, refused beyond the staleness
// bound), and pays its accumulated read cost when the snapshot closes.
type snapshotReplica struct{ s *standby.Standby }

// ReplicaOf serves read-only TPC-C traffic from the given stand-by.
func ReplicaOf(s *standby.Standby) tpcc.Replica { return snapshotReplica{s} }

func (r snapshotReplica) ReadOnly(p *sim.Proc, fn func(s tpcc.ReadSession) error) error {
	sn, err := r.s.Snapshot()
	if err != nil {
		return err
	}
	err = fn(sn)
	sn.Done(p)
	return err
}

// replicaReadShare is the fraction of read-only TPC-C transactions
// (Order-Status, Stock-Level) the sweep routes to a stand-by.
const replicaReadShare = 0.5

// ReplicaGrid is the sweep: stand-by counts × commit modes × links.
type ReplicaGrid struct {
	// Standbys are the first-tier stand-by counts to measure.
	Standbys []int
	// Modes are the commit-acknowledgement protocols.
	Modes []standby.Mode
	// Links are the network profiles.
	Links []sim.LinkSpec
	// CascadeAt adds one cascaded (second-tier) stand-by to every cell
	// with at least this many first-tier stand-bys; 0 never cascades.
	CascadeAt int
}

// DefaultReplicaGrid measures 1 and 3 stand-bys in both modes over both
// link profiles, cascading one extra stand-by off the 3-node cells.
func DefaultReplicaGrid() ReplicaGrid {
	return ReplicaGrid{
		Standbys:  []int{1, 3},
		Modes:     []standby.Mode{standby.ModeSync, standby.ModeAsync},
		Links:     []sim.LinkSpec{LinkLAN, LinkWAN},
		CascadeAt: 3,
	}
}

// Replica measures managed failover over the grid: each cell streams redo
// to its stand-bys, routes half the read-only traffic to the first
// stand-by, crashes the primary at the late instant, promotes, and lets
// the drivers re-target the promoted primary for the tail. The report is
// the RPO/RTO matrix plus the first cell's final V$REPLICATION view.
func Replica(sc Scale, grid ReplicaGrid) Experiment {
	cfg := mustConfig("F40G3T5")
	var cells [][]Spec
	for _, n := range grid.Standbys {
		for _, mode := range grid.Modes {
			for _, link := range grid.Links {
				spec := sc.spec(cfg)
				spec.Standbys = n
				spec.ReplMode = mode
				spec.ReplLink = link
				if grid.CascadeAt > 0 && n >= grid.CascadeAt {
					spec.ReplCascade = 1
				}
				spec.ReplicaReads = replicaReadShare
				sc.inject(&spec, abort, sc.InjectTimes[2])
				cells = append(cells, []Spec{spec})
			}
		}
	}
	x := table("Replication. Managed failover: RPO/RTO over stand-bys x mode x link.", cells,
		Column{"SB", 2, "%2d", func(r Row) any { return r[0].Spec.Standbys }}, // first-tier stand-bys
		Column{"CASC", 4, "%4d", func(r Row) any { return r[0].Spec.ReplCascade }},
		Column{"MODE", -5, "%-5s", func(r Row) any { return r[0].Spec.ReplMode }},
		Column{"LINK", -4, "%-4s", func(r Row) any { return r[0].Spec.ReplLink.Name }},
		Column{"tpmC", 6, "%6.0f", tpmC(0)}, // with the commit gate and replica reads active
		bar,
		Column{"RPO", 4, "%4d", func(r Row) any { return r[0].LostTransactions }}, // ledger-checked
		Column{"LAG_RECS", 8, "%8d", func(r Row) any { return r[0].ReplLagRecords }},
		Column{"RTO(s)", 7, "%7.1f", func(r Row) any { return r[0].RecoveryTime.Seconds() }},
		Column{"EST(s)", 7, "%7.1f", func(r Row) any { return r[0].RTOEstimate.Seconds() }},
		Column{"OUTAGE(s)", 9, "%9.1f", func(r Row) any { return r[0].UserOutage.Seconds() }},
		bar,
		Column{"SB-READ", 7, "%7d", func(r Row) any { return r[0].ReplicaServed }},
		Column{"FALLBACK", 8, "%8d", func(r Row) any { return r[0].ReplicaFallback }},
		Column{"VIOL", 4, "%4d", func(r Row) any { return len(r[0].IntegrityViolations) }},
		Column{"", 0, " %s", func(r Row) any { // the remedy was a restart, not a promotion
			if r[0].FailedOver {
				return ""
			}
			return "(no failover)"
		}})
	x.Foot = func(rows [][]Row) string {
		if len(rows[0]) == 0 || len(rows[0][0][0].Replication) == 0 {
			return ""
		}
		res := rows[0][0][0]
		return fmt.Sprintf("\nV$REPLICATION (cell s=%d+%d %s %s, post-failover):\n%s",
			res.Spec.Standbys, res.Spec.ReplCascade, res.Spec.ReplMode, res.Spec.ReplLink.Name,
			monitor.FormatVReplication(res.Replication))
	}
	return x
}
