package tpcc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dbench/internal/engine"
	"dbench/internal/sim"
)

// TestAdoptGivesTheIndexesGenerateGave: an app that adopts a Generated gets
// what the app that drew it got — the name index itself, the history
// sequence, and new-order queues equal in content, length and capacity, in
// arrays of its own. Virtual results depend on a queue's capacity (see
// cloneQueues), so a copy cut to length changes a run that adopted the set.
// The Generated keeps its queues as drawn whatever the apps do to theirs.
func TestAdoptGivesTheIndexesGenerateGave(t *testing.T) {
	r := newRig(t, TinyConfig(), nil)
	r.run(t, func(p *sim.Proc) error {
		if err := r.in.Open(p); err != nil {
			return err
		}
		return r.app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2})
	})
	g, err := r.app.Generate(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	drawer := r.app
	adopter := NewApp(r.in, drawer.Cfg)
	adopter.Adopt(g)

	if reflect.ValueOf(adopter.byName).UnsafePointer() != reflect.ValueOf(drawer.byName).UnsafePointer() {
		t.Error("the adopter holds a name index other than the drawer's")
	}
	if adopter.histSeq != drawer.histSeq {
		t.Errorf("history sequence %d, the drawer's %d", adopter.histSeq, drawer.histSeq)
	}
	if len(adopter.noQueue) != len(drawer.noQueue) || len(drawer.noQueue) == 0 {
		t.Fatalf("%d new-order queues, the drawer's %d", len(adopter.noQueue), len(drawer.noQueue))
	}
	spare := 0 // queues with room past their length: where a cut copy differs
	for dk, want := range drawer.noQueue {
		got := adopter.noQueue[dk]
		if !slices.Equal(got, want) || len(got) != len(want) || cap(got) != cap(want) {
			t.Errorf("district %d: queue %v (len %d, cap %d), the drawer's %v (len %d, cap %d)",
				dk, got, len(got), cap(got), want, len(want), cap(want))
		}
		if len(want) > 0 && &got[0] == &want[0] {
			t.Errorf("district %d: the adopter's queue is the drawer's array", dk)
		}
		if cap(want) > len(want) {
			spare++
		}
	}
	if spare == 0 {
		t.Error("no drawn queue has spare capacity: the test cannot tell a cut copy")
	}

	// The apps change their queues; a second adopter still gets the draw.
	for dk, q := range drawer.noQueue {
		drawer.noQueue[dk] = append(q[1:], -1)
		adopter.noQueue[dk] = append(adopter.noQueue[dk], -2)
	}
	late := NewApp(r.in, drawer.Cfg)
	late.Adopt(g)
	for dk, q := range late.noQueue {
		if len(q) == 0 || slices.Contains(q, -1) || slices.Contains(q, -2) || cap(q) != cap(g.noQueue[dk]) {
			t.Errorf("district %d: a late adopter's queue %v (cap %d) is not the draw", dk, q, cap(q))
		}
	}
}
