package core

import (
	"time"

	"dbench/internal/faults"
)

// job is one run of a campaign, carrying everything that depends on which
// table cell it measures: the spec, the progress line announcing its
// completion, and the fold that writes the result into the job's own row
// cell. No runner ever maps a job's position back to a row.
type job struct {
	spec Spec
	line func(res *Result) string
	fold func(res *Result)
}

// campaign is an ordered list of jobs over one scale. Every Run* runner
// enumerates its jobs with add and hands them to runCampaign; scale
// validation and the instrument-one-run rule live here once.
type campaign struct {
	sc   Scale
	jobs []job
	// instrumented is the job observed by the scale's tracer and MMON
	// sampling (0 = the first job, which makes the choice reproducible).
	instrumented int
	nominated    bool
}

func (c *campaign) add(spec Spec, line func(res *Result) string, fold func(res *Result)) {
	c.jobs = append(c.jobs, job{spec, line, fold})
}

// nominate makes the job just added the campaign's instrumented run, for
// runners whose first job is not the one a -trace/-stats user wants to
// see. The first nomination wins.
func (c *campaign) nominate() {
	if !c.nominated {
		c.instrumented, c.nominated = len(c.jobs)-1, true
	}
}

// inject makes spec a fault run: f is injected at `at` and the run ends
// Scale.Tail after the recovery completes.
func (sc Scale) inject(spec *Spec, f faults.Fault, at time.Duration) {
	spec.Fault = &f
	spec.InjectAt = at
	spec.TailAfterRecovery = sc.Tail
}

// runCampaign executes the jobs on the worker pool, folds every result
// into its row — in job order, after the pool has joined, so rows are
// identical for every Parallel setting and need no progress sink — and
// returns rows, the table the folds fill (its zero value on error).
// Exactly one job carries the scale's instrumentation: runs have
// independent virtual timebases, and interleaving several into one trace
// or repository would be meaningless.
func runCampaign[R any](c *campaign, rows R, progress Progress) (R, error) {
	var none R
	if err := c.sc.Validate(); err != nil {
		return none, err
	}
	if len(c.jobs) > 0 {
		spec := &c.jobs[c.instrumented].spec
		spec.Tracer = c.sc.Tracer
		spec.OnRepository = c.sc.OnRepository
		if c.sc.SampleInterval > 0 {
			spec.SampleInterval = c.sc.SampleInterval
		}
	}
	results, err := RunIndexed(len(c.jobs), c.sc.Parallel, func(i int) (*Result, error) {
		return Run(c.jobs[i].spec)
	}, progress, func(i int, res *Result) string { return c.jobs[i].line(res) })
	if err != nil {
		return none, err
	}
	for i, res := range results {
		c.jobs[i].fold(res)
	}
	return rows, nil
}
