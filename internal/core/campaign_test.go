package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dbench/internal/monitor"
	"dbench/internal/trace"
)

// TestCampaignFoldsAndInstrumentsOneJob pins the contract every
// declaration relies on: Run fills every line with no progress sink
// attached, the rows do not depend on the worker count, exactly one job —
// the declared Instrumented one, else the first — carries the scale's
// tracer, sampling interval and repository hook, and a spec name measured
// once is not run again, whether an earlier line of the grid or an earlier
// experiment of the invocation (done) measured it. A job is its content
// (Spec.Key), not its label: two names for one spec run once, and one name
// for two specs runs both.
func TestCampaignFoldsAndInstrumentsOneJob(t *testing.T) {
	scale := func(parallel int) Scale {
		sc := tinyScale()
		sc.Duration = 40 * time.Second
		sc.Parallel = parallel
		return sc
	}
	run := func(parallel, instrumented int, done map[string]*Result, progress Progress) (vals [][]any, inst []string, repos int) {
		t.Helper()
		sc := scale(parallel)
		sc.Tracer = trace.New(trace.NewHashSink())
		sc.SampleInterval = time.Second
		sc.OnRepository = func(r *monitor.Repository) {
			if r.Len() > 0 {
				repos++
			}
		}
		var grid [][]Spec
		for i := 0; i < 3; i++ {
			grid = append(grid, []Spec{sc.spec(Table3Configs[5*i])})
		}
		grid = append(grid, grid[0]) // a line repeating a job
		x := table("", grid, Column{"tpmC", 6, "%6.0f", tpmC(0)})
		x.Instrumented = instrumented
		if done == nil {
			done = map[string]*Result{}
		}
		rows, err := x.Run(sc, done, progress)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows[0] {
			vals = append(vals, x.Tables[0].Values(r))
		}
		for _, res := range done {
			if s := res.Spec; s.Tracer != nil || s.SampleInterval > 0 || s.OnRepository != nil {
				inst = append(inst, s.Recovery.Name)
			}
		}
		slices.Sort(inst)
		return vals, inst, repos
	}

	done := map[string]*Result{}
	seq, inst, repos := run(1, 1, done, nil)
	for i, v := range seq {
		if v[0].(float64) <= 0 {
			t.Errorf("line %d: no result without a progress sink (tpmC=%v)", i, v[0])
		}
	}
	if !reflect.DeepEqual(seq[3], seq[0]) {
		t.Errorf("a repeated job reads differently: %v vs %v", seq[3], seq[0])
	}
	if want := []string{Table3Configs[5].Name}; !reflect.DeepEqual(inst, want) || repos != 1 {
		t.Errorf("instrumented job 1: instrumented=%v repositories=%d, want %v and 1", inst, repos, want)
	}
	var lines int
	par, _, _ := run(4, 1, nil, func(string) { lines++ })
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("rows differ across worker counts:\nseq: %v\npar: %v", seq, par)
	}
	if lines != 3 {
		t.Errorf("%d jobs ran for 3 distinct specs", lines)
	}
	if _, inst, repos = run(4, 0, nil, nil); !reflect.DeepEqual(inst, []string{Table3Configs[0].Name}) || repos != 1 {
		t.Errorf("default: instrumented=%v repositories=%d, want [%s] and 1", inst, repos, Table3Configs[0].Name)
	}
	lines = 0
	again, _, repos := run(2, 1, done, func(string) { lines++ })
	if lines != 0 || repos != 0 || !reflect.DeepEqual(again, seq) {
		t.Errorf("measured jobs ran again: %d runs, %d repositories, rows %v (want %v)", lines, repos, again, seq)
	}

	sc := scale(2)
	a, b, c := sc.spec(Table3Configs[0]), sc.spec(Table3Configs[0]), sc.spec(Table3Configs[5])
	a.Name, b.Name, c.Name = "a", "b", "a"
	for _, tc := range []struct {
		grid [][]Spec
		runs int
	}{{[][]Spec{{a}, {b}}, 1}, {[][]Spec{{a}, {c}}, 2}} {
		lines = 0
		rows, err := table("", tc.grid).Run(sc, nil, func(string) { lines++ })
		if err != nil {
			t.Fatal(err)
		}
		if lines != tc.runs {
			t.Errorf("jobs named %s, %s with configs %s, %s: %d runs, want %d", tc.grid[0][0].Name, tc.grid[1][0].Name,
				tc.grid[0][0].Recovery, tc.grid[1][0].Recovery, lines, tc.runs)
		}
		for i, r := range rows[0] {
			if got, want := r[0].Spec.Recovery, tc.grid[i][0].Recovery; got != want {
				t.Errorf("line %d reads a run of %s, declared %s", i, got, want)
			}
		}
	}
}
