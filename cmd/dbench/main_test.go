package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbench/internal/core"
	"dbench/internal/faults"
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
		{"-exp", "pareto", "-budget", "0"},
		{"-exp", "pareto", "-budget", "-5s"},
		// Every output path is created before the first run: a bad one
		// fails in a second, not after the campaign.
		{"-exp", "t4", "-cpuprofile", "no/such/dir/cpu.prof"},
		{"-exp", "t4", "-memprofile", "no/such/dir/mem.prof"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
	// The observation flags belong to `dbench run`: a campaign has no
	// single run to observe.
	for _, args := range [][]string{{"-trace", "t.json"}, {"-timeline"}, {"-stats", "s.csv"}, {"-awr"}, {"-sample-interval", "1s"}} {
		if err := run(append(args, "-scale", "huge")); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("run(%v): %v, want the flag rejected", args, err)
		}
	}
}

// A bad observation flag fails `dbench run` before the run starts: the key
// below would fail in core.Run, and the flag's error must come first.
func TestRunKeyRejectsBadFlags(t *testing.T) {
	const doomed = "F100G3T10 W0 dur=1m"
	for _, args := range [][]string{
		{"-stats", "no/such/dir/stats.csv"},
		{"-trace", "no/such/dir/trace.json"},
		{"-nosuchflag"},
	} {
		err := runKey(io.Discard, append([]string{doomed}, args...))
		if err == nil || strings.Contains(err.Error(), "Warehouses") {
			t.Errorf("dbench run %q %v: %v, want the flag's error before the run", doomed, args, err)
		}
	}
}

// `dbench run` observes the run its key names: two replays of one key with
// every observation flag write byte-identical trace and stats files and print
// identical reports, AWR diffs and recovery timelines. The flags may come
// before, between or after the key's words.
func TestRunKeyObservesReproducibly(t *testing.T) {
	dir := t.TempDir()
	replay := func(n int) (stdout string, traceFile, statsFile []byte) {
		t.Helper()
		tr, st := filepath.Join(dir, fmt.Sprint("t", n, ".json")), filepath.Join(dir, fmt.Sprint("s", n, ".csv"))
		args := []string{"-trace", tr, "F100G3T10 W1 cust=150 items=2500 cache=2048", "-timeline", "-stats", st,
			"dur=30s fault=shutdown at=10s", "-awr"}
		var out bytes.Buffer
		if err := runKey(&out, args); err != nil {
			t.Fatal(err)
		}
		var files [2][]byte
		for i, path := range []string{tr, st} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = b
		}
		return out.String(), files[0], files[1]
	}
	out1, trace1, stats1 := replay(1)
	out2, trace2, stats2 := replay(2)
	if out1 != out2 {
		t.Errorf("stdout differs between replays:\n%s\n---\n%s", out1, out2)
	}
	if !bytes.Equal(trace1, trace2) || !bytes.Equal(stats1, stats2) {
		t.Error("trace or stats file differs between replays")
	}
	report, rest, ok := strings.Cut(out1, "Workload repository diff report")
	if !ok || !strings.Contains(rest, "Recovery timeline") || !strings.Contains(report, "sample=1s\n") {
		t.Errorf("stdout is not the sampled key's report, then the AWR diff, then the timeline:\n%s", out1)
	}
	if len(trace1) < 1000 || len(stats1) < 1000 {
		t.Errorf("trace (%d bytes) or stats (%d bytes) suspiciously small", len(trace1), len(stats1))
	}
}

// -stats/-awr sample at the key's own sample= cadence: the replay runs the
// spec the key names, not one the flags rewrite.
func TestRunKeyKeepsItsSampleCadence(t *testing.T) {
	var out bytes.Buffer
	if err := runKey(&out, []string{"F40G3T5 W1 cust=60 items=1000 dur=10s sample=2s", "-awr"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sample=2s\n") || !strings.Contains(out.String(), "Workload repository diff report") {
		t.Errorf("dbench run -awr on a sample=2s key did not run that key:\n%s", out.String())
	}
}

// A load-only key (dur=0s) has no redo rate: the report prints none, not
// NaN MB/s.
func TestRunKeyLoadOnlyPrintsNoRate(t *testing.T) {
	var out bytes.Buffer
	if err := runKey(&out, []string{"F100G3T10 W1 cust=60 items=1000 dur=0s"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "NaN") || !strings.Contains(out.String(), "redo written:     0.0 MB\n") {
		t.Errorf("load-only report:\n%s", out.String())
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

// An unknown fault must fail before anything runs, with a message that
// lists every valid name — "shutdown-abort" is the spelling people reach
// for, and a bare "unknown fault" left them guessing.
func TestUnknownFaultListsValidNames(t *testing.T) {
	err := runKey(io.Discard, []string{"F40G3T5 W1 fault=shutdown-abort at=5m"})
	if err == nil {
		t.Fatal("unknown fault accepted")
	}
	if !strings.Contains(err.Error(), `unknown fault "shutdown-abort"`) {
		t.Errorf("error %q does not name the rejected fault", err)
	}
	for k := faults.ShutdownAbort; k <= faults.MisroutedBatchUpdate; k++ {
		if !strings.Contains(err.Error(), k.Token()) {
			t.Errorf("error %q does not list valid fault %q", err, k.Token())
		}
	}
}

// A progress line starts with its run's key, and `dbench run '<key>'`
// replays that run: the same tpmC and the same committed count.
func TestRunReplaysAProgressLine(t *testing.T) {
	sc := core.QuickScale()
	sc.Duration = 30 * time.Second
	x := core.Table3(sc)
	x.Tables[0].Grid = x.Tables[0].Grid[:1]
	var line string
	rows, err := x.Run(sc, nil, func(l string) { line = l })
	if err != nil {
		t.Fatal(err)
	}
	key, _, ok := strings.Cut(strings.TrimPrefix(line, "[1/1] "), ": tpmC=")
	if !ok {
		t.Fatalf("progress line %q holds no key", line)
	}
	var out bytes.Buffer
	if err := runKey(&out, []string{key}); err != nil {
		t.Fatal(err)
	}
	res := rows[0][0][0]
	for _, want := range []string{fmt.Sprintf("%-18s%.0f\n", "tpmC:", res.TpmC), fmt.Sprintf("%-18s%d ", "committed:", res.Committed)} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dbench run %q printed\n%s\nwant a line starting %q", key, out.String(), want)
		}
	}
}
