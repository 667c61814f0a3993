package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestFanOut: one process per non-empty part, started in index order and
// named <name>-<i>; Join waits for every process — also one that finishes
// after the failing one — and returns the first error returned, whether
// it is called at once, between the failure and the last exit, or after
// the processes are gone.
func TestFanOut(t *testing.T) {
	errFirst, errLater := errors.New("first"), errors.New("later")
	for _, joinAfter := range []time.Duration{0, 3 * time.Second, 10 * time.Second} {
		k := NewKernel(1)
		var started []string
		var joined Time
		var got error
		k.Go("joiner", func(p *Proc) {
			parts := [][]time.Duration{{time.Second}, {}, {2 * time.Second}, {5 * time.Second}}
			fan := FanOut(k, "w", parts, func(wp *Proc, i int, part []time.Duration) error {
				started = append(started, wp.Name())
				wp.Sleep(part[0])
				switch i {
				case 2:
					return errFirst
				case 3:
					return errLater
				}
				return nil
			})
			p.Sleep(joinAfter)
			got = fan.Join(p)
			joined = p.Now()
		})
		k.RunAll()
		if want := []string{"w-0", "w-2", "w-3"}; !reflect.DeepEqual(started, want) {
			t.Errorf("join after %v: started %v, want %v", joinAfter, started, want)
		}
		if got != errFirst {
			t.Errorf("join after %v: Join returned %v, want %v", joinAfter, got, errFirst)
		}
		if want := Time(max(5*time.Second, joinAfter)); joined != want {
			t.Errorf("join after %v: joined at %v, want %v", joinAfter, joined, want)
		}
		if k.Procs() != 0 {
			t.Errorf("join after %v: %d processes left", joinAfter, k.Procs())
		}
	}
}

// TestFanOutOfEmptyPartsStartsNothing: nothing to do starts no process, and
// the join returns at once.
func TestFanOutOfEmptyPartsStartsNothing(t *testing.T) {
	k := NewKernel(1)
	var got error = errors.New("not joined")
	k.Go("joiner", func(p *Proc) {
		fan := FanOut(k, "w", make([][]int, 4), func(*Proc, int, []int) error {
			t.Error("a process started for an empty part")
			return nil
		})
		if k.Procs() != 1 {
			t.Errorf("%d processes live, want the joiner alone", k.Procs())
		}
		got = fan.Join(p)
	})
	if end := k.RunAll(); end != 0 || got != nil {
		t.Errorf("joined at %v with %v, want at 0 with nil", end, got)
	}
}
