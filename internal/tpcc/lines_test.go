package tpcc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// New-Order's line sort allocates nothing, and orders every line set —
// also one that draws an item twice with different quantities — exactly
// as the sort.Slice it replaced, whose order every golden was made with.
func TestSortLinesAllocatesNothingAndKeepsTheOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	lines := make([]orderLineReq, 15)
	for round := 0; round < 2000; round++ {
		n := 5 + r.Intn(11)
		for i := range lines[:n] {
			lines[i] = orderLineReq{item: 1 + r.Intn(8), supply: 1 + r.Intn(3), qty: 1 + r.Intn(10)}
		}
		want := slices.Clone(lines[:n])
		sort.Slice(want, func(i, j int) bool {
			if want[i].supply != want[j].supply {
				return want[i].supply < want[j].supply
			}
			return want[i].item < want[j].item
		})
		sortLines(lines[:n])
		if !slices.Equal(lines[:n], want) {
			t.Fatalf("round %d: sortLines gave %v, sort.Slice %v", round, lines[:n], want)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		r.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		sortLines(lines)
	}); got != 0 {
		t.Fatalf("sorting a New-Order's lines allocates %v objects, want 0", got)
	}
}
