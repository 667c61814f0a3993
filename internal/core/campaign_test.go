package core

import (
	"reflect"
	"testing"
	"time"
)

// TestCampaignFoldsJobs pins the contract every declaration relies on: Run
// fills every line with no progress sink attached, the rows do not depend
// on the worker count, and a spec measured once is not run again, whether
// an earlier line of the grid or an earlier experiment of the invocation
// (done) measured it. A job is its content (Spec.Key), not its label: two
// names for one spec run once, and one name for two specs runs both.
func TestCampaignFoldsJobs(t *testing.T) {
	scale := func(parallel int) Scale {
		sc := tinyScale()
		sc.Duration = 40 * time.Second
		sc.Parallel = parallel
		return sc
	}
	run := func(parallel int, done map[string]*Result, progress Progress) (vals [][]any) {
		t.Helper()
		sc := scale(parallel)
		var grid [][]Spec
		for i := 0; i < 3; i++ {
			grid = append(grid, []Spec{sc.spec(Table3Configs[5*i])})
		}
		grid = append(grid, grid[0]) // a line repeating a job
		x := table("", grid, Column{"tpmC", 6, "%6.0f", tpmC(0)})
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
		return vals
	}

	done := map[string]*Result{}
	seq := run(1, done, nil)
	for i, v := range seq {
		if v[0].(float64) <= 0 {
			t.Errorf("line %d: no result without a progress sink (tpmC=%v)", i, v[0])
		}
	}
	if !reflect.DeepEqual(seq[3], seq[0]) {
		t.Errorf("a repeated job reads differently: %v vs %v", seq[3], seq[0])
	}
	var lines int
	par := run(4, nil, func(string) { lines++ })
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("rows differ across worker counts:\nseq: %v\npar: %v", seq, par)
	}
	if lines != 3 {
		t.Errorf("%d jobs ran for 3 distinct specs", lines)
	}
	lines = 0
	again := run(2, done, func(string) { lines++ })
	if lines != 0 || !reflect.DeepEqual(again, seq) {
		t.Errorf("measured jobs ran again: %d runs, rows %v (want %v)", lines, again, seq)
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
