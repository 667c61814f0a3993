package core

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the campaign executor: every experiment first *declares*
// its runs (table.go), then submits the list to a pool of workers. Results come back in enumeration order regardless of
// completion order or worker count, so campaign tables are bit-identical
// whether they ran on one core or sixteen. Each Run owns
// its entire simulated platform (kernel, RNG, disks, engine), so runs
// share no mutable state and the pool needs no coordination beyond one
// lock over the next job's index and the results.

// Progress receives one line per completed run; may be nil. The pool
// serializes calls and prefixes each line with a completed/total counter,
// so it is safe to write to a shared sink.
type Progress func(line string)

// Workers resolves a user-facing parallelism knob to a worker count for
// a campaign of n jobs: 0 (or negative) means one worker per available
// CPU, anything else is used as-is, and the result is clamped to n so a
// small campaign does not spawn idle workers.
func Workers(parallel, n int) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return max(1, min(parallel, n))
}

// RunSpecs executes every spec on a pool of workers and returns the
// results in enumeration order. parallel follows the Workers convention
// (0 = all CPUs, 1 = sequential). Execution is fail-fast: the first Run
// error cancels all queued jobs (in-flight runs complete and are
// discarded) and is returned; the result slice is nil on error.
// Progress, when non-nil, receives one mutex-serialized line per
// completed run, prefixed with a completed/total counter.
func RunSpecs(specs []Spec, parallel int, progress Progress) ([]*Result, error) {
	return RunIndexed(len(specs), parallel, func(i int) (*Result, error) {
		return Run(specs[i])
	}, progress, func(_ int, res *Result) string { return res.String() })
}

// RunIndexed executes jobs 0..n-1 on a pool of workers and returns their
// results in index order. It is the generic core of the campaign
// executor, shared by RunSpecs and by other enumerated campaigns (the
// chaos crash-point explorer fans its points through it). parallel
// follows the Workers convention (0 = all CPUs, 1 = sequential).
// Execution is fail-fast: the first job error cancels all queued jobs
// (in-flight jobs complete and are discarded) and is returned; the
// result slice is nil on error. Progress, when non-nil, receives one
// mutex-serialized line per completed job, prefixed with a
// completed/total counter; jobs must not share mutable state, since up
// to `parallel` of them run concurrently.
func RunIndexed[T any](n, parallel int, run func(i int) (T, error), progress Progress, line func(i int, r T) string) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	workers := Workers(parallel, n)

	results := make([]T, n)
	var (
		mu        sync.Mutex
		next      int // the next job to hand out
		firstErr  error
		completed int
		wg        sync.WaitGroup
	)
	// Each worker takes the next index under the lock that guards the
	// results, and none takes one once a job has failed.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == n || firstErr != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				res, err := run(i)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					results[i] = res
					completed++
					if progress != nil && line != nil {
						progress(fmt.Sprintf("[%d/%d] %s", completed, n, line(i, res)))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
