// Package metrics provides the served-fraction measure the availability
// reports are built from.
package metrics

import "dbench/internal/sim"

// AvailabilityCell accumulates one warehouse's offered and served
// transaction counts inside an availability window.
type AvailabilityCell struct {
	// Offered counts transaction attempts the terminals submitted.
	Offered int
	// Served counts attempts the database completed (commits plus
	// intentional user aborts — the terminal got its answer either way).
	Served int
}

// Refused returns the attempts the database turned away (errors).
func (c AvailabilityCell) Refused() int { return c.Offered - c.Served }

// Fraction returns served/offered. A warehouse that was never asked for
// anything refused nothing, so zero offered reports fully available.
func (c AvailabilityCell) Fraction() float64 {
	if c.Offered == 0 {
		return 1.0
	}
	return float64(c.Served) / float64(c.Offered)
}

// Availability is the served-fraction measure over a window [From, To):
// per warehouse and globally, what share of the transactions the
// terminals offered did the database actually serve? During an outage the
// fraction collapses to ~0 everywhere; during a localized fault only the
// affected warehouse's column should collapse.
type Availability struct {
	From, To sim.Time

	cells []AvailabilityCell // indexed by warehouse-1
}

// NewAvailability returns an empty availability window over `warehouses`
// warehouses.
func NewAvailability(from, to sim.Time, warehouses int) *Availability {
	if warehouses < 0 {
		warehouses = 0
	}
	return &Availability{From: from, To: to, cells: make([]AvailabilityCell, warehouses)}
}

// Record adds one transaction attempt against warehouse w at time `at`.
// Attempts outside [From, To) or against unknown warehouses are ignored.
func (a *Availability) Record(at sim.Time, w int, served bool) {
	if at < a.From || at >= a.To {
		return
	}
	if w < 1 || w > len(a.cells) {
		return
	}
	a.cells[w-1].Offered++
	if served {
		a.cells[w-1].Served++
	}
}

// Warehouses returns the number of warehouse cells.
func (a *Availability) Warehouses() int { return len(a.cells) }

// Warehouse returns warehouse w's cell (w is 1-based).
func (a *Availability) Warehouse(w int) AvailabilityCell {
	if w < 1 || w > len(a.cells) {
		return AvailabilityCell{}
	}
	return a.cells[w-1]
}

// Global returns the sum over all warehouses.
func (a *Availability) Global() AvailabilityCell {
	var g AvailabilityCell
	for _, c := range a.cells {
		g.Offered += c.Offered
		g.Served += c.Served
	}
	return g
}

// GlobalFraction is Global().Fraction().
func (a *Availability) GlobalFraction() float64 { return a.Global().Fraction() }
