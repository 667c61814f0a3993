package core

import (
	"fmt"
	"strings"
	"time"
)

// Experiments are declared tables. A declaration (Table3, Scaling, ...)
// builds, from a Scale and the experiment's own parameters, the jobs that
// measure each table line and the columns that print it. Run measures the
// jobs as one campaign on the worker pool (pool.go); Text prints the
// paper-style report. Every table goes through the same two functions, so a
// column added to a declaration is one line and appears wherever the table
// is printed.

// Row is one table line: the results of the jobs its grid row declared, in
// declaration order.
type Row []*Result

// Column is one table column: its header, right-aligned in Width characters
// (left-aligned when negative), and its cell, Value formatted with Verb. A
// column without a Value prints Verb itself.
type Column struct {
	Head  string
	Width int
	Verb  string
	Value func(r Row) any
}

// bar is the rule between column groups.
var bar = Column{Head: "|", Verb: "|"}

// Table is one printed table: its title lines, one row of jobs per table
// line, and its columns.
type Table struct {
	Title string
	Grid  [][]Spec
	Cols  []Column
}

// Experiment is one report: its tables, the job that carries the scale's
// instrumentation, and the lines printed below the tables.
type Experiment struct {
	Tables []Table
	// Instrumented indexes, over every table's jobs in declaration order,
	// the one run the scale's tracer and MMON sampling observe: runs have
	// independent virtual timebases, and interleaving several into one
	// trace or repository would be meaningless. 0 is the first job, which
	// keeps the choice reproducible; a declaration points it at a more
	// telling run.
	Instrumented int
	// Foot, when set, renders the lines below the tables from their rows.
	Foot func(rows [][]Row) string
}

// table declares a one-table experiment.
func table(title string, grid [][]Spec, cols ...Column) Experiment {
	return Experiment{Tables: []Table{{Title: title, Grid: grid, Cols: cols}}}
}

// Run measures x on sc's worker pool and returns each table's rows. Every
// job is validated before any runs. A job whose key (Spec.Key) is already
// in done is not run again — within one invocation f4 reuses t3's
// fault-free runs, and a job listed on several lines runs once; every
// result measured here is added to done (nil keeps none). The rows are
// identical for every Scale.Parallel, since the pool returns results in
// enumeration order.
func (x Experiment) Run(sc Scale, done map[string]*Result, progress Progress) ([][]Row, error) {
	if done == nil {
		done = map[string]*Result{}
	}
	var specs []Spec
	var keys []string // every job's, in declaration order
	queued := map[string]bool{}
	for _, t := range x.Tables {
		for _, row := range t.Grid {
			for _, spec := range row {
				if len(keys) == x.Instrumented {
					spec.Tracer, spec.OnRepository = sc.Tracer, sc.OnRepository
					if sc.SampleInterval > 0 {
						spec.SampleInterval = sc.SampleInterval
					}
				}
				if err := spec.validate(); err != nil {
					return nil, err
				}
				key := spec.Key()
				keys = append(keys, key)
				if done[key] == nil && !queued[key] {
					queued[key] = true
					specs = append(specs, spec)
				}
			}
		}
	}
	results, err := RunSpecs(specs, sc.Parallel, progress)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		done[specs[i].Key()] = res
	}
	rows := make([][]Row, len(x.Tables))
	for i, t := range x.Tables {
		for _, grid := range t.Grid {
			row := make(Row, len(grid))
			for j := range row {
				row[j], keys = done[keys[0]], keys[1:]
			}
			rows[i] = append(rows[i], row)
		}
	}
	return rows, nil
}

// Values returns r's unrounded cell values, one per column (nil for a
// column without a Value).
func (t Table) Values(r Row) []any {
	vals := make([]any, len(t.Cols))
	for i, c := range t.Cols {
		if c.Value != nil {
			vals[i] = c.Value(r)
		}
	}
	return vals
}

// Text renders the report as fixed-width text: per table its title, the
// header and one line per row, columns joined by a blank and no line
// ending in one, a label repeated from the line above left blank; then
// the footer. The output is a pure function of the
// rows, so a reproduced campaign renders byte-identically.
func (x Experiment) Text(rows [][]Row) string {
	var b strings.Builder
	writeLine := func(cells []string) {
		b.WriteString(strings.TrimRight(strings.Join(cells, " "), " "))
		b.WriteByte('\n')
	}
	for i, t := range x.Tables {
		if t.Title != "" {
			b.WriteString(t.Title + "\n")
		}
		cells := make([]string, len(t.Cols))
		for j, c := range t.Cols {
			cells[j] = fmt.Sprintf("%*s", c.Width, c.Head)
		}
		writeLine(cells)
		var prev []any
		for _, r := range rows[i] {
			vals := t.Values(r)
			for j, v := range vals {
				cells[j] = t.Cols[j].Verb
				if t.Cols[j].Value == nil {
					continue
				}
				if _, ok := v.(label); ok && prev != nil && v == prev[j] {
					v = label("")
				}
				cells[j] = fmt.Sprintf(cells[j], v)
			}
			writeLine(cells)
			prev = vals
		}
	}
	if x.Foot != nil {
		b.WriteString(x.Foot(rows))
	}
	return b.String()
}

// label is a cell naming the group of lines it starts: the text prints it
// only where it differs from the line above.
type label string

// secs is a recovery-time cell: whole seconds, "-" when nothing was
// measured.
type secs time.Duration

func (d secs) String() string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", time.Duration(d).Seconds())
}

// pct is a served-fraction cell, printed as a whole percentage.
type pct float64

func (f pct) String() string { return fmt.Sprintf("%.0f%%", 100*float64(f)) }

// The cells most tables share, read from job j of the row.

func tpmC(j int) func(Row) any    { return func(r Row) any { return r[j].TpmC } }
func recSecs(j int) func(Row) any { return func(r Row) any { return secs(r[j].RecoveryTime) } }
func served(j int) func(Row) any  { return func(r Row) any { return pct(avail(r[j])) } }

func redoMBps(j int) func(Row) any {
	return func(r Row) any {
		return float64(r[j].RedoWritten) / (1 << 20) / r[j].Spec.Duration.Seconds()
	}
}

// configCol names the row's recovery configuration.
var configCol = Column{"Config", -10, "%-10s", func(r Row) any { return r[0].Spec.Recovery.Name }}

// avail is the global served fraction over a fault run's fault window (0
// for a run without one).
func avail(res *Result) float64 {
	if res.Availability == nil {
		return 0
	}
	return res.Availability.GlobalFraction()
}
