package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dbench/internal/monitor"
	"dbench/internal/trace"
)

// TestCampaignFoldsAndInstrumentsOneJob pins the campaign contract the
// Run* runners rely on: every job's fold runs (in job order, with no
// progress sink attached), the folded rows do not depend on the worker
// count, and exactly one job — the first nominated one, else the first —
// carries the scale's tracer, sampling interval and repository hook.
func TestCampaignFoldsAndInstrumentsOneJob(t *testing.T) {
	const jobs = 3
	run := func(parallel, nominateFrom int) (rows []float64, instrumented []string, repos int) {
		t.Helper()
		sc := tinyScale()
		sc.Duration = 40 * time.Second
		sc.Parallel = parallel
		sc.Tracer = trace.New(trace.NewHashSink())
		sc.SampleInterval = time.Second
		sc.OnRepository = func(r *monitor.Repository) {
			if r.Len() > 0 {
				repos++
			}
		}
		rows = make([]float64, jobs)
		c := campaign{sc: sc}
		for i := range rows {
			name := fmt.Sprintf("camp/job%d", i)
			c.add(sc.spec(name, Table3Configs[5*i]), func(*Result) string { return name }, func(res *Result) {
				rows[i] = res.TpmC
				if s := res.Spec; s.Tracer != nil || s.SampleInterval > 0 || s.OnRepository != nil {
					instrumented = append(instrumented, name)
				}
			})
			if nominateFrom >= 0 && i >= nominateFrom {
				c.nominate() // repeated nominations: the first one wins
			}
		}
		if _, err := runCampaign(&c, rows, nil); err != nil {
			t.Fatal(err)
		}
		return rows, instrumented, repos
	}

	seq, inst, repos := run(1, 1)
	for i, tpmC := range seq {
		if tpmC <= 0 {
			t.Errorf("job %d: fold did not run without a progress sink (tpmC=%v)", i, tpmC)
		}
	}
	if want := []string{"camp/job1"}; !reflect.DeepEqual(inst, want) || repos != 1 {
		t.Errorf("nominated job1: instrumented=%v repositories=%d, want %v and 1", inst, repos, want)
	}
	par, _, _ := run(4, 1)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("rows differ across worker counts:\nseq: %v\npar: %v", seq, par)
	}
	_, inst, repos = run(4, -1)
	if want := []string{"camp/job0"}; !reflect.DeepEqual(inst, want) || repos != 1 {
		t.Errorf("no nomination: instrumented=%v repositories=%d, want %v and 1", inst, repos, want)
	}
}
