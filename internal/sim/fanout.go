package sim

import "fmt"

// Fan is a group of processes started together by FanOut and joined
// together by Join.
type Fan struct {
	live int
	done Cond
	err  error
}

// FanOut starts one process per non-empty part, in index order: process i
// is named "<name>-<i>" and runs work on parts[i]. It never blocks; Join
// waits for the processes and returns the first error one of them
// returned. An empty part starts nothing, so a Fan of empty parts is
// joined at once.
func FanOut[T any](k *Kernel, name string, parts [][]T, work func(p *Proc, i int, part []T) error) *Fan {
	f := &Fan{}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		f.live++
		k.Go(fmt.Sprintf("%s-%d", name, i), func(p *Proc) {
			defer f.exit(p.k)
			if err := work(p, i, part); err != nil && f.err == nil {
				f.err = err
			}
		})
	}
	return f
}

// exit counts one process out; the last one out wakes the joiners.
func (f *Fan) exit(k *Kernel) {
	f.live--
	if f.live == 0 {
		f.done.Broadcast(k)
	}
}

// Join blocks p until every process of the Fan has finished and returns
// the first error any of them returned.
func (f *Fan) Join(p *Proc) error {
	for f.live > 0 {
		f.done.Wait(p)
	}
	return f.err
}
