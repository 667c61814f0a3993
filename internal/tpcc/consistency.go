package tpcc

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"dbench/internal/sim"
)

// Violation is one failed consistency condition.
type Violation struct {
	Condition string
	Detail    string
}

func (v Violation) String() string { return v.Condition + ": " + v.Detail }

// CheckConsistency runs the TPC-C consistency conditions (spec §3.3.2)
// against the database, returning every violation found. The paper uses
// these checks to decide whether a fault caused data-integrity
// violations. The checks scan tables directly (outside any transaction),
// so they must run on a quiesced database.
//
// Conditions checked:
//
//	C1: W_YTD = sum(D_YTD) per warehouse.
//	C2: D_NEXT_O_ID - 1 = max(O_ID) per district.
//	C3: every NEW_ORDER row has a matching ORDERS row.
//	C4: per order, count(ORDER_LINE rows) = O_OL_CNT.
//	C5: every undelivered order (carrier = 0) has a NEW_ORDER row and
//	    vice versa (modulo delivered ones).
//	C8: W_YTD = sum(H_AMOUNT) over the history rows whose home warehouse
//	    is W (spec §3.3.2.8).
//	C9: D_YTD = sum(H_AMOUNT) over the history rows whose home district
//	    is (W, D) (spec §3.3.2.9).
//
// C8/C9 matter once Payments cross warehouses: a payment for a remote
// customer must still book its amount — and its history row — against the
// *home* warehouse and district. C1 alone cannot see a payment routed to
// the wrong warehouse (both sides stay internally balanced); the history
// audit trail can.
type checker struct {
	a *App
	p *sim.Proc
	// scan supplies the table walk: the primary's direct scan for
	// CheckConsistency, a stand-by snapshot's for
	// CheckReplicaConsistency.
	scan func(p *sim.Proc, table string, fn func(key int64, value []byte) bool) error

	violations []Violation
}

// CheckConsistency runs all conditions.
func (a *App) CheckConsistency(p *sim.Proc) ([]Violation, error) {
	c := &checker{a: a, p: p, scan: a.In.Scan}
	if err := c.run(); err != nil {
		return nil, err
	}
	return c.violations, nil
}

func (c *checker) addf(cond, format string, args ...any) {
	c.violations = append(c.violations, Violation{Condition: cond, Detail: fmt.Sprintf(format, args...)})
}

func (c *checker) run() error {
	// Gather per-district aggregates in one pass per table.
	dYTD := make(map[int64]float64)
	dNext := make(map[int64]int)
	if err := c.scan(c.p, TableDistrict, func(k int64, v []byte) bool {
		d, err := DecodeDistrict(v)
		if err != nil {
			c.addf("decode", "district[%d]: %v", k, err)
			return true
		}
		dYTD[DKey(d.WID, d.ID)] = d.YTD
		dNext[DKey(d.WID, d.ID)] = d.NextOID
		return true
	}); err != nil {
		return err
	}

	wYTD := make(map[int]float64)
	if err := c.scan(c.p, TableWarehouse, func(k int64, v []byte) bool {
		w, err := DecodeWarehouse(v)
		if err != nil {
			c.addf("decode", "warehouse[%d]: %v", k, err)
			return true
		}
		wYTD[w.ID] = w.YTD
		return true
	}); err != nil {
		return err
	}

	type orderInfo struct {
		olCnt     int
		carrier   int
		lineCount int
	}
	orders := make(map[int64]orderInfo)
	maxOID := make(map[int64]int)
	if err := c.scan(c.p, TableOrder, func(k int64, v []byte) bool {
		o, err := DecodeOrder(v)
		if err != nil {
			c.addf("decode", "orders[%d]: %v", k, err)
			return true
		}
		orders[OKey(o.WID, o.DID, o.ID)] = orderInfo{olCnt: o.OLCnt, carrier: o.CarrierID}
		dk := DKey(o.WID, o.DID)
		if o.ID > maxOID[dk] {
			maxOID[dk] = o.ID
		}
		return true
	}); err != nil {
		return err
	}

	if err := c.scan(c.p, TableOrderLine, func(k int64, v []byte) bool {
		l, err := DecodeOrderLine(v)
		if err != nil {
			c.addf("decode", "order_line[%d]: %v", k, err)
			return true
		}
		okey := OKey(l.WID, l.DID, l.OID)
		if oi, ok := orders[okey]; ok {
			oi.lineCount++
			orders[okey] = oi
		} else {
			c.addf("C4", "order_line %s#%d has no order", fmtOrderKey(l.WID, l.DID, l.OID), l.Number)
		}
		return true
	}); err != nil {
		return err
	}

	newOrders := make(map[int64]bool)
	if err := c.scan(c.p, TableNewOrder, func(k int64, v []byte) bool {
		n, err := DecodeNewOrder(v)
		if err != nil {
			c.addf("decode", "new_order[%d]: %v", k, err)
			return true
		}
		newOrders[OKey(n.WID, n.DID, n.OID)] = true
		return true
	}); err != nil {
		return err
	}

	// History: per-warehouse and per-district amount sums, keyed by the
	// row's *home* (WID, DID) — where the payment was entered, not where
	// the customer lives.
	hWarehouse := make(map[int]float64)
	hDistrict := make(map[int64]float64)
	if err := c.scan(c.p, TableHistory, func(k int64, v []byte) bool {
		h, err := DecodeHistory(v)
		if err != nil {
			c.addf("decode", "history[%d]: %v", k, err)
			return true
		}
		hWarehouse[h.WID] += h.Amount
		hDistrict[DKey(h.WID, h.DID)] += h.Amount
		return true
	}); err != nil {
		return err
	}

	// C1: warehouse YTD equals the sum of its districts' YTD.
	for w, ytd := range wYTD {
		var sum float64
		for d := 1; d <= Districts; d++ {
			sum += dYTD[DKey(w, d)]
		}
		if math.Abs(sum-ytd) > 0.01 {
			c.addf("C1", "warehouse %d: W_YTD=%.2f sum(D_YTD)=%.2f", w, ytd, sum)
		}
	}

	// C2: district order counter matches the maximum order id.
	for dk, next := range dNext {
		if got := maxOID[dk]; got != next-1 {
			c.addf("C2", "district %d: next_o_id-1=%d max(o_id)=%d", dk, next-1, got)
		}
	}

	// C8: warehouse YTD equals the warehouse's history amount sum.
	for w, ytd := range wYTD {
		if sum := hWarehouse[w]; math.Abs(sum-ytd) > 0.01 {
			c.addf("C8", "warehouse %d: W_YTD=%.2f sum(H_AMOUNT)=%.2f", w, ytd, sum)
		}
	}

	// C9: district YTD equals the district's history amount sum.
	for dk, ytd := range dYTD {
		if sum := hDistrict[dk]; math.Abs(sum-ytd) > 0.01 {
			c.addf("C9", "district %d: D_YTD=%.2f sum(H_AMOUNT)=%.2f", dk, ytd, sum)
		}
	}

	// C3: every NEW_ORDER row has an order.
	for ok := range newOrders {
		if _, found := orders[ok]; !found {
			c.addf("C3", "new_order %d has no order", ok)
		}
	}

	// C4 + C5 over all orders.
	for okey, oi := range orders {
		if oi.lineCount != oi.olCnt {
			c.addf("C4", "order %d: ol_cnt=%d lines=%d", okey, oi.olCnt, oi.lineCount)
		}
		undelivered := oi.carrier == 0
		if undelivered && !newOrders[okey] {
			c.addf("C5", "undelivered order %d missing from new_order", okey)
		}
		if !undelivered && newOrders[okey] {
			c.addf("C5", "delivered order %d still in new_order", okey)
		}
	}
	// The loops above walk maps: sort, for one order every time.
	slices.SortFunc(c.violations, func(a, b Violation) int {
		return cmp.Or(strings.Compare(a.Condition, b.Condition), strings.Compare(a.Detail, b.Detail))
	})
	return nil
}
