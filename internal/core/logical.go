package core

// Logical recovery campaign and the `recover --scan` procedure: the
// flashback extension's measurement surface. LogicalVsPhysical drives
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

// LogicalVsPhysical is the logical-vs-physical comparison: for each fault
// class, one run recovering by flashback and one forced onto the physical
// point-in-time path, fault injected at full throughput against the stock
// table (the largest, most update-heavy segment).
func LogicalVsPhysical(sc Scale) Experiment {
	cfg := mustConfig("F100G3T10")
	var grid [][]Spec
	for _, kind := range LogicalKinds {
		var row []Spec
		for _, force := range []bool{false, true} {
			spec := sc.spec(cfg)
			spec.Archive = true
			spec.ForcePhysical = force
			sc.inject(&spec, faults.Fault{Kind: kind, Target: tpcc.TableStock}, sc.InjectTimes[1])
			row = append(row, spec)
		}
		grid = append(grid, row)
	}
	lost := func(j int) func(Row) any { return func(r Row) any { return r[j].LostTransactions } }
	return table("Logical vs physical recovery of single-table operator faults.\n"+
		"(flashback = FLASHBACK TABLE from the redo stream, instance open;\n"+
		" physical = whole-database point-in-time restore, the paper's remedy)", grid,
		Column{"Fault", -24, "%-24v", func(r Row) any { return r[0].Spec.Fault.Kind }},
		bar,
		Column{"flash (s)", 9, "%9s", recSecs(0)},
		Column{"avail", 6, "%6s", served(0)},
		Column{"lost", 5, "%5d", lost(0)},
		bar,
		Column{"phys (s)", 9, "%9s", recSecs(1)},
		Column{"avail", 6, "%6s", served(1)},
		Column{"lost", 5, "%5d", lost(1)},
		bar,
		Column{"speedup", 8, "%7.1fx", func(r Row) any { // how many times faster flashback recovered (0: an arm is missing)
			if r[0].RecoveryTime <= 0 || r[1].RecoveryTime <= 0 {
				return 0.0
			}
			return r[1].RecoveryTime.Seconds() / r[0].RecoveryTime.Seconds()
		}})
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
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = warehouses
	cfg.CustomersPerDistrict = 30
	cfg.Items = 300
	rig, err := NewRig(Spec{
		Seed:        seed,
		Recovery:    RecoveryConfig{FileSize: 1 << 20, Groups: 3},
		Archive:     true,
		TPCC:        cfg,
		CacheBlocks: 256,
		Cost:        engine.DefaultCostModel(),
	})
	if err != nil {
		return nil, err
	}
	in, ex := rig.In, rig.ex

	rep := &ScanReport{}
	err = rig.Exec("scan", func(p *sim.Proc) error {
		if err := rig.Load(p); err != nil {
			return err
		}
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
