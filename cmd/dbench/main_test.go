package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbench/internal/monitor"
	"dbench/internal/trace"
)

func TestParseExperimentsValid(t *testing.T) {
	want, err := parseExperiments("t3, F4 ,t5")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"t3", "f4", "t5"} {
		if !want[e] {
			t.Errorf("token %q not selected: %v", e, want)
		}
	}
	if want["all"] || want["f5"] {
		t.Errorf("unexpected selections: %v", want)
	}
	if _, err := parseExperiments("all"); err != nil {
		t.Errorf("all: %v", err)
	}
}

// An unknown or misspelled -exp token must be an error listing the valid
// names — dbench used to exit 0 having run nothing.
func TestParseExperimentsUnknownToken(t *testing.T) {
	for _, list := range []string{"f8", "t3,f44", "table3", "", "t3,,f4"} {
		_, err := parseExperiments(list)
		if err == nil {
			t.Errorf("parseExperiments(%q): expected error", list)
			continue
		}
		if !strings.Contains(err.Error(), "t3, f4, f5, t4, t5, f6, f7") {
			t.Errorf("parseExperiments(%q): error does not list valid names: %v", list, err)
		}
	}
}

// "chaos" is a valid -exp token but must never be selected by "all":
// the exploration harness is opt-in, not a paper table.
func TestParseExperimentsChaosOptIn(t *testing.T) {
	want, err := parseExperiments("chaos")
	if err != nil {
		t.Fatal(err)
	}
	if !want["chaos"] {
		t.Errorf("chaos not selected: %v", want)
	}
	want, err = parseExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if want["chaos"] {
		t.Errorf("\"all\" must not select chaos: %v", want)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scale", "huge"},
		{"-exp", "f8"},
		{"-exp", "t3,f44"},
		{"-parallel", "-2"},
		{"-nosuchflag"},
		{"-exp", "chaos", "-crashpoints", "0"},
		{"-exp", "t4", "-stats", "m.csv", "-sample-interval", "0s"},
		{"-exp", "t4", "-awr", "-sample-interval", "-1s"},
		{"-exp", "pareto", "-budget", "0"},
		{"-exp", "pareto", "-budget", "-5s"},
		// Every output path is created before the first run: a bad one
		// fails in a second, not after the campaign.
		{"-exp", "t4", "-cpuprofile", "no/such/dir/cpu.prof"},
		{"-exp", "t4", "-memprofile", "no/such/dir/mem.prof"},
		{"-exp", "t4", "-stats", "no/such/dir/stats.csv"},
		{"-exp", "t4", "-trace", "no/such/dir/trace.json"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// Only the first selected experiment is instrumented: runs have
// independent virtual timelines, so a second experiment sharing the
// tracer or the repository hook would interleave two timelines in one
// trace file and overwrite the first one's repository.
func TestRunExperimentsInstrumentsFirstOnly(t *testing.T) {
	type seen struct{ traced, sampled, hooked bool }
	var got []seen
	record := func(e *env) error {
		got = append(got, seen{e.sc.Tracer != nil, e.sc.SampleInterval > 0, e.sc.OnRepository != nil})
		return nil
	}
	stub := []experiment{{"first", true, nil, record}, {"skipped", false, nil, record}, {"second", true, nil, record}}
	e := &env{}
	e.sc.Tracer = trace.New(trace.NewHashSink())
	e.sc.SampleInterval = time.Second
	e.sc.OnRepository = func(*monitor.Repository) {}
	if err := runExperiments(stub, map[string]bool{"all": true}, e); err != nil {
		t.Fatal(err)
	}
	want := []seen{{true, true, true}, {false, false, false}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entries saw (traced, sampled, hooked) = %v, want %v", got, want)
	}
}

// The package doc's usage block is hand-written; hold it to the registry.
func TestPackageDocListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	for _, inAll := range []bool{true, false} {
		if list := strings.Join(expNames(registry, inAll), ","); !strings.Contains(doc, "-exp "+list) {
			t.Errorf("package doc usage block does not list %q", "-exp "+list)
		}
	}
}

// -cpuprofile/-memprofile: both files are written, non-empty, when the
// returned stop function runs, and a second CPU profile cannot start while
// one is running.
func TestStartProfilesWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := startProfiles(filepath.Join(dir, "second.prof"), ""); err == nil {
		t.Error("a second CPU profile started while the first was running")
	}
	if _, err := startProfiles("", filepath.Join(dir, "no", "mem.prof")); err == nil {
		t.Error("a memory profile path in a missing directory was accepted")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	if stop, err := startProfiles("", ""); err != nil || stop() != nil {
		t.Errorf("no profile requested: %v", err)
	}
}
