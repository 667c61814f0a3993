package core

// Logical recovery campaign and the `recover --scan` procedure: the
// flashback extension's measurement surface. RunLogicalVsPhysical drives
// every single-table logical fault through both remedies — FLASHBACK
// TABLE (instance stays open, one table rewound from the redo stream)
// and the paper's physical point-in-time baseline (whole database
// restored and rolled forward) — and tabulates recovery time,
// availability during the repair, and lost commits side by side.
// RunCatalogScan demonstrates dictionary reconstruction from datafile
// headers after a catalog-destroying fault.

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"time"

	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/sim"
	"dbench/internal/tpcc"
)

// LogicalKinds are the single-table logical faults the campaign compares
// remedies for.
var LogicalKinds = []faults.Kind{
	faults.DeleteUsersObject, faults.TruncateTable, faults.MisroutedBatchUpdate,
}

// LogicalArm is one remedy's measures for one fault class.
type LogicalArm struct {
	// RecoveryTime is the procedure time (detection excluded).
	RecoveryTime time.Duration
	// Avail is the global served fraction over the fault window.
	Avail float64
	// Lost counts committed transactions discarded by the recovery.
	Lost int
}

// LogicalRow compares the two remedies for one fault class.
type LogicalRow struct {
	Fault     faults.Kind
	Flashback LogicalArm
	Physical  LogicalArm
}

// Speedup is how many times faster flashback recovered than the
// physical baseline (0 when either arm is missing).
func (r LogicalRow) Speedup() float64 {
	if r.Flashback.RecoveryTime <= 0 || r.Physical.RecoveryTime <= 0 {
		return 0
	}
	return r.Physical.RecoveryTime.Seconds() / r.Flashback.RecoveryTime.Seconds()
}

// RunLogicalVsPhysical runs the logical-vs-physical comparison: for each
// fault class, one run recovering by flashback and one forced onto the
// physical point-in-time path, fault injected at full throughput against
// the stock table (the largest, most update-heavy segment).
func RunLogicalVsPhysical(sc Scale, progress Progress) ([]LogicalRow, error) {
	cfg := mustConfig("F100G3T10")
	rows := make([]LogicalRow, len(LogicalKinds))
	c := campaign{sc: sc}
	for i, kind := range LogicalKinds {
		row := &rows[i]
		row.Fault = kind
		add := func(remedy string, force bool, arm *LogicalArm) {
			spec := sc.spec(fmt.Sprintf("LvP/%v/physical=%v", kind, force), cfg)
			spec.Archive = true
			spec.ForcePhysical = force
			sc.inject(&spec, faults.Fault{Kind: kind, Target: tpcc.TableStock}, sc.InjectTimes[1])
			c.add(spec, func(res *Result) string {
				return fmt.Sprintf("LvP %-22v %-9s recovery=%v lost=%d",
					kind, remedy, res.RecoveryTime.Round(time.Second), res.LostTransactions)
			}, func(res *Result) {
				arm.RecoveryTime = res.RecoveryTime
				arm.Lost = res.LostTransactions
				if res.Availability != nil {
					arm.Avail = res.Availability.GlobalFraction()
				}
			})
		}
		add("flashback", false, &row.Flashback)
		add("physical", true, &row.Physical)
	}
	return runCampaign(&c, rows, progress)
}

// FormatLogical renders the logical-vs-physical comparison table.
func FormatLogical(rows []LogicalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Logical vs physical recovery of single-table operator faults.\n")
	fmt.Fprintf(&b, "(flashback = FLASHBACK TABLE from the redo stream, instance open;\n")
	fmt.Fprintf(&b, " physical = whole-database point-in-time restore, the paper's remedy)\n")
	fmt.Fprintf(&b, "%-24s | %9s %6s %5s | %9s %6s %5s | %8s\n", "Fault",
		"flash (s)", "avail", "lost", "phys (s)", "avail", "lost", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24v | %9s %5.0f%% %5d | %9s %5.0f%% %5d | %7.1fx\n",
			r.Fault,
			secs(r.Flashback.RecoveryTime), 100*r.Flashback.Avail, r.Flashback.Lost,
			secs(r.Physical.RecoveryTime), 100*r.Physical.Avail, r.Physical.Lost,
			r.Speedup())
	}
	return b.String()
}

// ---------------------------------------------------------------------
// recover --scan

// ScanReport is the outcome of a RunCatalogScan demonstration.
type ScanReport struct {
	// TablesBefore/TablesAfter are the dictionary's table names before
	// the wipe and after the header scan rebuilt it.
	TablesBefore, TablesAfter []string
	// Missing/Extra are tables lost or invented by the rebuild (both
	// empty on success).
	Missing, Extra []string
	// FlashbackOK reports that FLASHBACK TABLE still worked after the
	// rebuild: the truncated stock table's contents hash matched its
	// pre-truncate state.
	FlashbackOK bool
}

// OK reports a clean round-trip.
func (r *ScanReport) OK() bool {
	return len(r.Missing) == 0 && len(r.Extra) == 0 && r.FlashbackOK
}

// RunCatalogScan builds a seeded TPC-C database, truncates the stock
// table by mistake, destroys the dictionary, rebuilds it from the
// datafile headers (`recover --scan`), and verifies the rebuilt metadata
// round-trips — every table rediscovered and flashback still working on
// top of the rebuilt dictionary.
func RunCatalogScan(seed int64, warehouses int) (*ScanReport, error) {
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 1 << 20
	ecfg.Redo.Groups = 3
	ecfg.Redo.ArchiveMode = true
	ecfg.CacheBlocks = 256
	ecfg.CheckpointTimeout = 0
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = warehouses
	cfg.CustomersPerDistrict = 30
	cfg.Items = 300
	rig, err := NewRig(seed, ecfg, cfg, tpcc.DriverConfig{}, 0)
	if err != nil {
		return nil, err
	}
	in, ex := rig.In, rig.ex

	rep := &ScanReport{}
	err = rig.Exec("scan", func(p *sim.Proc) error {
		if err := rig.Load(p); err != nil {
			return err
		}
		rig.ReleaseLoadSet()
		rep.TablesBefore = tableNames(in)
		before, err := tableHash(p, in, tpcc.TableStock)
		if err != nil {
			return err
		}
		if _, err := ex.Execute(p, "TRUNCATE TABLE "+tpcc.TableStock); err != nil {
			return err
		}
		preSCN, _ := in.LastDDL()
		// The catalog-destroying operator fault.
		in.Catalog().Wipe()
		if _, err := ex.Execute(p, "RECOVER CATALOG SCAN"); err != nil {
			return fmt.Errorf("scan rebuild: %w", err)
		}
		rep.TablesAfter = tableNames(in)
		rep.Missing, rep.Extra = diffNames(rep.TablesBefore, rep.TablesAfter)
		if _, err := ex.Execute(p, fmt.Sprintf("FLASHBACK TABLE %s TO SCN %d", tpcc.TableStock, preSCN-1)); err != nil {
			return fmt.Errorf("flashback after rebuild: %w", err)
		}
		after, err := tableHash(p, in, tpcc.TableStock)
		if err != nil {
			return err
		}
		rep.FlashbackOK = before == after
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: recover --scan: %w", err)
	}
	return rep, nil
}

// FormatScan renders a scan report.
func FormatScan(r *ScanReport) string {
	s := fmt.Sprintf("recover --scan: %d tables before wipe, %d rebuilt from datafile headers\n",
		len(r.TablesBefore), len(r.TablesAfter))
	if len(r.Missing) > 0 {
		s += fmt.Sprintf("  MISSING after rebuild: %v\n", r.Missing)
	}
	if len(r.Extra) > 0 {
		s += fmt.Sprintf("  EXTRA after rebuild: %v\n", r.Extra)
	}
	if r.FlashbackOK {
		s += "  flashback on rebuilt dictionary: contents match pre-fault state\n"
	} else {
		s += "  flashback on rebuilt dictionary: MISMATCH\n"
	}
	if r.OK() {
		s += "  result: OK\n"
	} else {
		s += "  result: FAILED\n"
	}
	return s
}

// tableNames lists the dictionary's table names, sorted.
func tableNames(in *engine.Instance) []string {
	var names []string
	for _, t := range in.Catalog().Tables() {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// diffNames returns names in a but not b (missing) and in b but not a
// (extra); both inputs sorted.
func diffNames(a, b []string) (missing, extra []string) {
	for _, n := range a {
		if !slices.Contains(b, n) {
			missing = append(missing, n)
		}
	}
	for _, n := range b {
		if !slices.Contains(a, n) {
			extra = append(extra, n)
		}
	}
	return missing, extra
}

// tableHash is an order-independent fingerprint of a table's logical
// contents (key → value pairs).
func tableHash(p *sim.Proc, in *engine.Instance, table string) (uint64, error) {
	var sum uint64
	err := in.Scan(p, table, func(key int64, value []byte) bool {
		h := fnv.New64a()
		var kb [8]byte
		for i := range kb {
			kb[i] = byte(uint64(key) >> (8 * i))
		}
		h.Write(kb[:])
		h.Write(value)
		sum += h.Sum64()
		return true
	})
	return sum, err
}
