package core

import (
	"fmt"
	"strings"
	"time"

	"dbench/internal/faults"
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
	switch name {
	case "lan":
		return LinkLAN, true
	case "wan":
		return LinkWAN, true
	}
	return sim.LinkSpec{}, false
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

// ReplicaRow is one sweep cell's measures.
type ReplicaRow struct {
	Standbys int // first-tier stand-bys
	Cascade  int // cascaded stand-bys
	Mode     standby.Mode
	Link     sim.LinkSpec

	// TpmC is throughput with the commit gate and replica reads active.
	TpmC float64
	// RPO is acknowledged commits lost at failover (ledger-checked).
	RPO int
	// LagRecords is how far the promoted stand-by trailed the primary's
	// flushed redo at the crash — the async exposure, in redo records.
	LagRecords int64
	// RTO is the measured failover duration; RTOEstimate the MMON live
	// estimate captured at the promotion decision; UserOutage the
	// end-user view (injection to first post-fault commit).
	RTO         time.Duration
	RTOEstimate time.Duration
	UserOutage  time.Duration
	// Served/Fallback count stand-by-routed read-only transactions and
	// their primary fallbacks (staleness refusals).
	Served   int64
	Fallback int64
	// Violations counts failed TPC-C consistency conditions after the
	// failover (0 = the promoted database is consistent).
	Violations int
	// FailedOver confirms the remedy was a promotion, not a restart.
	FailedOver bool
	// Replication is the cell's final V$REPLICATION view.
	Replication []monitor.ReplicationRow
}

// RunReplica measures managed failover over the grid: each cell streams
// redo to its stand-bys, routes half the read-only traffic to the first
// stand-by, crashes the primary at the late instant, promotes, and lets
// the drivers re-target the promoted primary for the tail.
func RunReplica(sc Scale, grid ReplicaGrid, progress Progress) ([]ReplicaRow, error) {
	if len(grid.Standbys) == 0 || len(grid.Modes) == 0 || len(grid.Links) == 0 {
		return nil, fmt.Errorf("core: replica grid needs at least one stand-by count, mode and link")
	}
	cfg := mustConfig("F40G3T5")
	var rows []ReplicaRow
	c := campaign{sc: sc}
	for _, n := range grid.Standbys {
		for _, mode := range grid.Modes {
			for _, link := range grid.Links {
				casc := 0
				if grid.CascadeAt > 0 && n >= grid.CascadeAt {
					casc = 1
				}
				r := len(rows)
				rows = append(rows, ReplicaRow{Standbys: n, Cascade: casc, Mode: mode, Link: link})
				spec := sc.spec(fmt.Sprintf("REPL/s%d-%s-%s", n, mode, link.Name), cfg)
				spec.Standbys = n
				spec.ReplMode = mode
				spec.ReplLink = link
				spec.ReplCascade = casc
				spec.ReplicaReads = replicaReadShare
				sc.inject(&spec, faults.Fault{Kind: faults.ShutdownAbort}, sc.InjectTimes[2])
				c.add(spec, func(res *Result) string {
					return fmt.Sprintf("REPL s=%d+%d %-5s %-3s rpo=%d rto=%.1fs",
						n, casc, mode, link.Name, res.LostTransactions, res.RecoveryTime.Seconds())
				}, func(res *Result) {
					row := &rows[r]
					row.TpmC = res.TpmC
					row.RPO = res.LostTransactions
					row.LagRecords = res.ReplLagRecords
					row.RTO = res.RecoveryTime
					row.RTOEstimate = res.RTOEstimate
					row.UserOutage = res.UserOutage
					row.Served = res.ReplicaServed
					row.Fallback = res.ReplicaFallback
					row.Violations = len(res.IntegrityViolations)
					row.FailedOver = res.FailedOver
					row.Replication = res.Replication
				})
			}
		}
	}
	return runCampaign(&c, rows, progress)
}

// FormatReplica renders the RPO/RTO matrix plus the first cell's final
// V$REPLICATION view.
func FormatReplica(rows []ReplicaRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replication. Managed failover: RPO/RTO over stand-bys x mode x link.\n")
	fmt.Fprintf(&b, "%2s %4s %-5s %-4s %6s | %4s %8s %7s %7s %9s | %7s %8s %4s\n",
		"SB", "CASC", "MODE", "LINK", "tpmC",
		"RPO", "LAG_RECS", "RTO(s)", "EST(s)", "OUTAGE(s)",
		"SB-READ", "FALLBACK", "VIOL")
	for _, r := range rows {
		fo := ""
		if !r.FailedOver {
			fo = "  (no failover)"
		}
		fmt.Fprintf(&b, "%2d %4d %-5s %-4s %6.0f | %4d %8d %7.1f %7.1f %9.1f | %7d %8d %4d%s\n",
			r.Standbys, r.Cascade, r.Mode, r.Link.Name, r.TpmC,
			r.RPO, r.LagRecords, r.RTO.Seconds(), r.RTOEstimate.Seconds(),
			r.UserOutage.Seconds(), r.Served, r.Fallback, r.Violations, fo)
	}
	if len(rows) > 0 && len(rows[0].Replication) > 0 {
		r := rows[0]
		fmt.Fprintf(&b, "\nV$REPLICATION (cell s=%d+%d %s %s, post-failover):\n%s",
			r.Standbys, r.Cascade, r.Mode, r.Link.Name,
			monitor.FormatVReplication(r.Replication))
	}
	return b.String()
}
