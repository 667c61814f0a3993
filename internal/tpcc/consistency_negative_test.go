package tpcc

import (
	"math/rand"
	"strings"
	"testing"

	"dbench/internal/sim"
)

// Negative tests for the consistency checker: corrupt the database on
// purpose and assert each condition fires. (The positive direction — no
// violations after clean runs and recoveries — is covered elsewhere.)

func corruptAndCheck(t *testing.T, mutate func(p *sim.Proc, r *rig) error) []Violation {
	t.Helper()
	r := newRig(t, smallConfig(), nil)
	var viols []Violation
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		if err := mutate(p, r); err != nil {
			return err
		}
		var err error
		viols, err = r.app.CheckConsistency(p)
		return err
	})
	return viols
}

func hasCondition(viols []Violation, cond string) bool {
	for _, v := range viols {
		if v.Condition == cond {
			return true
		}
	}
	return false
}

func TestConsistencyDetectsWarehouseYTDDrift(t *testing.T) {
	viols := corruptAndCheck(t, func(p *sim.Proc, r *rig) error {
		tx, _ := r.in.Begin()
		wb, err := r.in.ReadForUpdate(p, tx, TableWarehouse, WKey(1))
		if err != nil {
			return err
		}
		w, err := DecodeWarehouse(wb)
		if err != nil {
			return err
		}
		w.YTD += 1234.56 // no matching district update: breaks C1
		if err := r.in.Update(p, tx, TableWarehouse, WKey(1), w.Encode()); err != nil {
			return err
		}
		return r.in.Commit(p, tx)
	})
	if !hasCondition(viols, "C1") {
		t.Fatalf("C1 not detected: %v", viols)
	}
}

func TestConsistencyDetectsCounterSkew(t *testing.T) {
	viols := corruptAndCheck(t, func(p *sim.Proc, r *rig) error {
		tx, _ := r.in.Begin()
		db, err := r.in.ReadForUpdate(p, tx, TableDistrict, DKey(1, 1))
		if err != nil {
			return err
		}
		d, err := DecodeDistrict(db)
		if err != nil {
			return err
		}
		d.NextOID += 7 // counter ahead of max(o_id): breaks C2
		if err := r.in.Update(p, tx, TableDistrict, DKey(1, 1), d.Encode()); err != nil {
			return err
		}
		return r.in.Commit(p, tx)
	})
	if !hasCondition(viols, "C2") {
		t.Fatalf("C2 not detected: %v", viols)
	}
}

func TestConsistencyDetectsOrphanNewOrder(t *testing.T) {
	viols := corruptAndCheck(t, func(p *sim.Proc, r *rig) error {
		tx, _ := r.in.Begin()
		no := NewOrderRow{OID: 9999, DID: 1, WID: 1}
		if err := r.in.Insert(p, tx, TableNewOrder, OKey(1, 1, 9999), no.Encode()); err != nil {
			return err
		}
		return r.in.Commit(p, tx)
	})
	if !hasCondition(viols, "C3") {
		t.Fatalf("C3 not detected: %v", viols)
	}
}

func TestConsistencyDetectsMissingOrderLine(t *testing.T) {
	viols := corruptAndCheck(t, func(p *sim.Proc, r *rig) error {
		// Delete line 1 of the first order of district 1.
		tx, _ := r.in.Begin()
		if err := r.in.Delete(p, tx, TableOrderLine, OLKey(1, 1, 1, 1)); err != nil {
			return err
		}
		return r.in.Commit(p, tx)
	})
	if !hasCondition(viols, "C4") {
		t.Fatalf("C4 not detected: %v", viols)
	}
}

func TestConsistencyDetectsDeliveredNewOrder(t *testing.T) {
	viols := corruptAndCheck(t, func(p *sim.Proc, r *rig) error {
		// Mark an undelivered order delivered without removing its
		// NEW_ORDER row: breaks C5.
		var victim int64 = -1
		if err := r.in.Scan(p, TableNewOrder, func(k int64, v []byte) bool {
			victim = k
			return false
		}); err != nil {
			return err
		}
		if victim < 0 {
			t.Skip("no undelivered orders at this scale")
		}
		tx, _ := r.in.Begin()
		ob, err := r.in.ReadForUpdate(p, tx, TableOrder, victim)
		if err != nil {
			return err
		}
		o, err := DecodeOrder(ob)
		if err != nil {
			return err
		}
		o.CarrierID = 3
		if err := r.in.Update(p, tx, TableOrder, victim, o.Encode()); err != nil {
			return err
		}
		return r.in.Commit(p, tx)
	})
	if !hasCondition(viols, "C5") {
		t.Fatalf("C5 not detected: %v", viols)
	}
}

// A row that does not decode is a "decode" violation naming its table — also
// where the checker reads a row's numbers only and skips its text: an order
// line or a history row cut short inside the text column, with every number
// intact, is still a bad row.
func TestConsistencyDetectsRowCorruption(t *testing.T) {
	cutInsideText := func(p *sim.Proc, r *rig, table string, key int64) ([]byte, error) {
		tx, _ := r.in.Begin()
		defer r.in.Rollback(p, tx)
		row, err := r.in.Read(p, tx, table, key)
		return row[:len(row)-5], err
	}
	cases := []struct {
		table string
		key   int64
		row   func(p *sim.Proc, r *rig) ([]byte, error)
	}{
		{TableDistrict, DKey(1, 2), func(*sim.Proc, *rig) ([]byte, error) { return []byte("garbage"), nil }},
		{TableOrderLine, OLKey(1, 1, 1, 1), func(p *sim.Proc, r *rig) ([]byte, error) {
			return cutInsideText(p, r, TableOrderLine, OLKey(1, 1, 1, 1))
		}},
		{TableHistory, CKey(1, 1, 1), func(p *sim.Proc, r *rig) ([]byte, error) {
			return cutInsideText(p, r, TableHistory, CKey(1, 1, 1))
		}},
	}
	for _, tc := range cases {
		viols := corruptAndCheck(t, func(p *sim.Proc, r *rig) error {
			row, err := tc.row(p, r)
			if err != nil {
				return err
			}
			tx, _ := r.in.Begin()
			if err := r.in.Update(p, tx, tc.table, tc.key, row); err != nil {
				return err
			}
			return r.in.Commit(p, tx)
		})
		found := false
		for _, v := range viols {
			if v.Condition == "decode" && strings.Contains(v.Detail, tc.table) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: decode violation not detected: %v", tc.table, viols)
		}
	}
}

// Property: a batch of clean New-Order + Payment + Delivery executions on
// a fresh database never violates consistency, for random seeds.
func TestQuickWorkloadConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []int64{2, 3} {
		r := newRig(t, smallConfig(), nil)
		r.run(t, func(p *sim.Proc) error {
			if err := r.boot(p); err != nil {
				return err
			}
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 120; i++ {
				switch i % 3 {
				case 0:
					_, _ = r.app.NewOrder(p, rnd, 1)
				case 1:
					_, _ = r.app.Payment(p, rnd, 1)
				case 2:
					_, _ = r.app.Delivery(p, rnd, 1)
				}
			}
			viols, err := r.app.CheckConsistency(p)
			if err != nil {
				return err
			}
			if len(viols) != 0 {
				t.Errorf("seed %d: %v", seed, viols[0])
			}
			return nil
		})
	}
}
