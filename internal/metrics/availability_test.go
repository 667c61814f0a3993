package metrics

import (
	"testing"
	"time"

	"dbench/internal/sim"
)

func at(sec int) sim.Time { return sim.Time(time.Duration(sec) * time.Second) }

func TestAvailabilityWindowEdges(t *testing.T) {
	a := NewAvailability(at(10), at(20), 1)
	a.Record(at(9), 1, true)  // before the window: ignored
	a.Record(at(10), 1, true) // From is inclusive
	a.Record(at(15), 1, true)
	a.Record(at(20), 1, true) // To is exclusive: ignored
	a.Record(at(25), 1, true) // after the window: ignored
	c := a.Warehouse(1)
	if c.Offered != 2 || c.Served != 2 {
		t.Errorf("cell = %+v, want Offered=2 Served=2", c)
	}
}

func TestAvailabilityIgnoresUnknownWarehouses(t *testing.T) {
	a := NewAvailability(0, at(60), 2)
	a.Record(at(1), 0, true)  // warehouses are 1-based
	a.Record(at(1), 3, true)  // beyond the cell count
	a.Record(at(1), -7, true) // nonsense
	if g := a.Global(); g.Offered != 0 {
		t.Errorf("global = %+v after only unknown-warehouse records", g)
	}
	if c := a.Warehouse(0); c != (AvailabilityCell{}) {
		t.Errorf("Warehouse(0) = %+v, want zero cell", c)
	}
	if c := a.Warehouse(3); c != (AvailabilityCell{}) {
		t.Errorf("Warehouse(3) = %+v, want zero cell", c)
	}
}

func TestAvailabilityServedVsRefused(t *testing.T) {
	a := NewAvailability(0, at(60), 2)
	for i := 0; i < 8; i++ {
		a.Record(at(1), 1, true)
	}
	for i := 0; i < 2; i++ {
		a.Record(at(1), 1, false)
	}
	for i := 0; i < 5; i++ {
		a.Record(at(1), 2, false)
	}
	w1 := a.Warehouse(1)
	if w1.Offered != 10 || w1.Served != 8 || w1.Refused() != 2 {
		t.Errorf("w1 = %+v (refused %d), want 10/8/2", w1, w1.Refused())
	}
	if f := w1.Fraction(); f != 0.8 {
		t.Errorf("w1 fraction = %v, want 0.8", f)
	}
	if f := a.Warehouse(2).Fraction(); f != 0 {
		t.Errorf("w2 fraction = %v, want 0 (all refused)", f)
	}
	g := a.Global()
	if g.Offered != 15 || g.Served != 8 {
		t.Errorf("global = %+v, want 15/8", g)
	}
	if f := a.GlobalFraction(); f != 8.0/15.0 {
		t.Errorf("global fraction = %v, want 8/15", f)
	}
}

func TestAvailabilityZeroOfferedIsFullyAvailable(t *testing.T) {
	// A warehouse nobody asked anything of refused nothing: an idle
	// warehouse must not drag the availability table down.
	a := NewAvailability(0, at(60), 3)
	a.Record(at(1), 2, true)
	if f := a.Warehouse(1).Fraction(); f != 1.0 {
		t.Errorf("idle warehouse fraction = %v, want 1.0", f)
	}
	if f := a.GlobalFraction(); f != 1.0 {
		t.Errorf("global fraction = %v, want 1.0", f)
	}
	if n := a.Warehouses(); n != 3 {
		t.Errorf("Warehouses() = %d, want 3", n)
	}
}
