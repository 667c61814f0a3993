// Package sqladmin implements the administrative command interface of the
// engine: a small SQL-style language covering the commands a DBA (and
// therefore the operator-fault injector) uses. The paper's method is to
// reproduce operator faults "using exactly the same means used by the real
// database administrator in the field" — this package is that surface.
//
// Supported statements:
//
//	SHUTDOWN ABORT | SHUTDOWN IMMEDIATE
//	STARTUP
//	ALTER SYSTEM CHECKPOINT
//	ALTER SYSTEM SWITCH LOGFILE
//	ALTER SYSTEM SET <parameter> = <value>
//	ALTER DATABASE DATAFILE '<file>' OFFLINE|ONLINE
//	ALTER TABLESPACE <name> OFFLINE|ONLINE
//	DROP TABLE <name>
//	DROP TABLESPACE <name> INCLUDING CONTENTS
//	DROP USER <name> CASCADE
//	TRUNCATE TABLE <name>
//	FLASHBACK TABLE <name> TO SCN <n>
//	RECOVER DATAFILE '<file>'
//	RECOVER DATABASE UNTIL SCN <n>
//	RECOVER CATALOG SCAN
//	BACKUP DATABASE
//	SHOW STATUS | SHOW PARAMETERS
//	SELECT * FROM V$PARAMETER | V$SYSSTAT | V$METRIC | V$RECOVERY_ESTIMATE
//
// SHUTDOWN IMMEDIATE closes the database first, so from then on every
// statement that needs an open instance fails with engine.ErrInstanceDown;
// it then ends the transactions in flight (a commit already logged
// finishes, the rest roll back), takes a checkpoint and records the clean
// stop in the control file, so STARTUP opens without recovery. After
// SHUTDOWN ABORT the control file records an unclean stop, and STARTUP
// runs instance recovery first.
//
// The SELECT surface is deliberately narrow: V$PARAMETER projects the
// instance parameter table (static/dynamic scope, current and pending
// values) and SHOW PARAMETERS is a synonym for it; the other V$ views
// project the MMON workload repository (see internal/monitor) and require
// Config.SampleInterval > 0.
package sqladmin

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/monitor"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
)

// ErrSyntax reports an unparsable statement.
var ErrSyntax = errors.New("sqladmin: syntax error")

// Executor runs administrative statements against one instance.
type Executor struct {
	in *engine.Instance
	rm *recovery.Manager
	bk *backup.Manager
}

// NewExecutor wires an executor. rm and bk may be nil if RECOVER/BACKUP
// statements are not needed.
func NewExecutor(in *engine.Instance, rm *recovery.Manager, bk *backup.Manager) *Executor {
	return &Executor{in: in, rm: rm, bk: bk}
}

// tokenize splits a statement into upper-cased tokens, keeping quoted
// strings intact (and case-preserved).
func tokenize(stmt string) []string {
	var toks []string
	s := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	for len(s) > 0 {
		s = strings.TrimLeft(s, " \t\n")
		if len(s) == 0 {
			break
		}
		if s[0] == '\'' {
			end := strings.IndexByte(s[1:], '\'')
			if end < 0 {
				toks = append(toks, s[1:])
				return toks
			}
			toks = append(toks, s[1:1+end])
			s = s[end+2:]
			continue
		}
		sp := strings.IndexAny(s, " \t\n")
		if sp < 0 {
			toks = append(toks, strings.ToUpper(s))
			break
		}
		toks = append(toks, strings.ToUpper(s[:sp]))
		s = s[sp:]
	}
	return toks
}

// Execute parses and runs one statement, returning a human-readable
// result line.
func (e *Executor) Execute(p *sim.Proc, stmt string) (string, error) {
	toks := tokenize(stmt)
	if len(toks) == 0 {
		return "", fmt.Errorf("%w: empty statement", ErrSyntax)
	}
	switch toks[0] {
	case "SHUTDOWN":
		return e.shutdown(p, toks)
	case "STARTUP":
		return e.startup(p)
	case "ALTER":
		return e.alter(p, toks)
	case "DROP":
		return e.drop(p, toks)
	case "TRUNCATE":
		return e.truncate(p, toks)
	case "FLASHBACK":
		return e.flashback(p, toks)
	case "RECOVER":
		return e.recover(p, toks)
	case "BACKUP":
		return e.backupDB(p, toks)
	case "SHOW":
		return e.show(toks)
	case "SELECT":
		return e.selectView(toks)
	default:
		return "", fmt.Errorf("%w: unknown statement %q", ErrSyntax, toks[0])
	}
}

// show handles SHOW STATUS and SHOW PARAMETERS (the V$PARAMETER table);
// an unknown target lists the valid ones so the operator is not left
// guessing.
func (e *Executor) show(toks []string) (string, error) {
	if len(toks) >= 2 {
		switch toks[1] {
		case "STATUS":
			return e.in.Status(), nil
		case "PARAMETERS":
			return formatVParameter(e.in.Parameters()), nil
		}
	}
	got := "nothing"
	if len(toks) >= 2 {
		got = toks[1]
	}
	return "", fmt.Errorf("%w: SHOW %s (valid targets: STATUS, PARAMETERS)", ErrSyntax, got)
}

// formatVParameter renders V$PARAMETER and SHOW PARAMETERS: the parameter
// table with each knob's live value, its scope (static vs dynamic) and,
// for a deferred change, the pending value it converges to at the next
// log switch.
func formatVParameter(params []engine.Parameter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-8s %-20s %s\n", "NAME", "SCOPE", "VALUE", "PENDING")
	for _, p := range params {
		scope := "static"
		if p.Adjustable {
			scope = "dynamic"
		}
		pending := "-"
		if p.Pending != "" {
			pending = p.Pending
		}
		fmt.Fprintf(&b, "%-30s %-8s %-20s %s\n", p.Name, scope, p.Value, pending)
	}
	fmt.Fprintf(&b, "%d parameters.", len(params))
	return b.String()
}

// selectView serves the V$ views: V$PARAMETER over the instance
// parameter table, the rest over the MMON workload repository.
func (e *Executor) selectView(toks []string) (string, error) {
	if len(toks) < 4 || toks[1] != "*" || toks[2] != "FROM" {
		return "", fmt.Errorf("%w: SELECT * FROM V$PARAMETER | V$SYSSTAT | V$METRIC | V$RECOVERY_ESTIMATE", ErrSyntax)
	}
	if toks[3] == "V$PARAMETER" {
		return formatVParameter(e.in.Parameters()), nil
	}
	repo := e.in.Monitor()
	if repo == nil {
		return "", errors.New("sqladmin: workload repository disabled (set Config.SampleInterval > 0)")
	}
	switch toks[3] {
	case "V$SYSSTAT":
		return strings.TrimSuffix(monitor.FormatVSysstat(repo), "\n"), nil
	case "V$METRIC":
		return strings.TrimSuffix(monitor.FormatVMetric(repo), "\n"), nil
	case "V$RECOVERY_ESTIMATE":
		return strings.TrimSuffix(monitor.FormatVRecoveryEstimate(repo), "\n"), nil
	default:
		return "", fmt.Errorf("%w: unknown view %s (valid views: V$PARAMETER, V$SYSSTAT, V$METRIC, V$RECOVERY_ESTIMATE)", ErrSyntax, toks[3])
	}
}

// done is a statement's result: msg, or the error that kept it from
// being true.
func done(msg string, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return msg, nil
}

func (e *Executor) shutdown(p *sim.Proc, toks []string) (string, error) {
	if len(toks) < 2 {
		return "", fmt.Errorf("%w: SHUTDOWN needs ABORT or IMMEDIATE", ErrSyntax)
	}
	switch toks[1] {
	case "ABORT":
		e.in.Crash()
		return "instance aborted", nil
	case "IMMEDIATE":
		return done("instance shut down", e.in.ShutdownImmediate(p))
	default:
		return "", fmt.Errorf("%w: SHUTDOWN %s", ErrSyntax, toks[1])
	}
}

func (e *Executor) startup(p *sim.Proc) (string, error) {
	err := e.in.Open(p)
	if errors.Is(err, engine.ErrCrashRecoveryNeeded) && e.rm != nil {
		rep, rerr := e.rm.InstanceRecovery(p)
		if rerr != nil {
			return "", rerr
		}
		return fmt.Sprintf("database opened after crash recovery (%d records, %v)",
			rep.RecordsApplied, rep.Duration()), nil
	}
	return done("database opened", err)
}

func (e *Executor) alter(p *sim.Proc, toks []string) (string, error) {
	if len(toks) < 3 {
		return "", fmt.Errorf("%w: incomplete ALTER", ErrSyntax)
	}
	switch toks[1] {
	case "SYSTEM":
		switch {
		case toks[2] == "CHECKPOINT":
			return done("checkpoint completed", e.in.Checkpoint(p))
		case toks[2] == "SWITCH" && len(toks) >= 4 && toks[3] == "LOGFILE":
			switched, err := e.in.SwitchLogfile(p)
			if err != nil {
				return "", err
			}
			if !switched {
				return "log not switched: the current group is empty", nil
			}
			return "log switched", nil
		case toks[2] == "SET":
			return e.alterSet(p, toks[3:])
		}
	case "DATABASE":
		if len(toks) >= 5 && toks[2] == "DATAFILE" {
			file, mode := toks[3], toks[4]
			switch mode {
			case "OFFLINE":
				return done("datafile offline", e.in.OfflineDatafile(p, file))
			case "ONLINE":
				return done("datafile online", e.in.OnlineDatafile(p, file))
			}
		}
	case "TABLESPACE":
		if len(toks) >= 4 {
			name, mode := toks[2], toks[3]
			switch mode {
			case "OFFLINE":
				return done("tablespace offline", e.in.OfflineTablespace(p, name))
			case "ONLINE":
				return done("tablespace online", e.in.OnlineTablespace(p, name))
			}
		}
	}
	return "", fmt.Errorf("%w: unsupported ALTER", ErrSyntax)
}

// alterSet handles ALTER SYSTEM SET <parameter> = <value>. The
// tokenizer upper-cases unquoted tokens, so both sides are folded back
// to lower case — parameter names are lower-case by convention, and
// values are parsed case-insensitively (durations like "30s", integers,
// booleans).
func (e *Executor) alterSet(p *sim.Proc, toks []string) (string, error) {
	assign := strings.Join(toks, " ")
	name, value, ok := strings.Cut(assign, "=")
	if !ok || strings.TrimSpace(name) == "" || strings.TrimSpace(value) == "" {
		return "", fmt.Errorf("%w: ALTER SYSTEM SET <parameter> = <value>", ErrSyntax)
	}
	msg, _, err := e.in.AlterSystem(p,
		strings.ToLower(strings.TrimSpace(name)),
		strings.ToLower(strings.TrimSpace(value)))
	return msg, err
}

func (e *Executor) drop(p *sim.Proc, toks []string) (string, error) {
	if len(toks) < 3 {
		return "", fmt.Errorf("%w: incomplete DROP", ErrSyntax)
	}
	switch toks[1] {
	case "TABLE":
		return done("table dropped", e.in.DropTable(p, e.tableName(toks[2])))
	case "TABLESPACE":
		return done("tablespace dropped", e.in.DropTablespace(p, toks[2]))
	case "USER":
		return done("user dropped", e.in.DropUser(p, strings.ToLower(toks[2])))
	default:
		return "", fmt.Errorf("%w: DROP %s", ErrSyntax, toks[1])
	}
}

// tableName resolves the table token of DROP, TRUNCATE and FLASHBACK:
// names are stored lower-case by the TPC-C schema, and admin SQL is
// case-insensitive, so prefer the lower-cased form when it resolves, and
// otherwise take the token as given (a quoted name keeps its case).
func (e *Executor) tableName(tok string) string {
	if _, err := e.in.Catalog().Table(strings.ToLower(tok)); err == nil {
		return strings.ToLower(tok)
	}
	return tok
}

func (e *Executor) truncate(p *sim.Proc, toks []string) (string, error) {
	if len(toks) < 3 || toks[1] != "TABLE" {
		return "", fmt.Errorf("%w: TRUNCATE TABLE <name>", ErrSyntax)
	}
	return done("table truncated", e.in.TruncateTable(p, e.tableName(toks[2])))
}

func (e *Executor) flashback(p *sim.Proc, toks []string) (string, error) {
	if e.rm == nil {
		return "", errors.New("sqladmin: no recovery manager configured")
	}
	if len(toks) < 6 || toks[1] != "TABLE" || toks[3] != "TO" || toks[4] != "SCN" {
		return "", fmt.Errorf("%w: FLASHBACK TABLE <name> TO SCN <n>", ErrSyntax)
	}
	scn, err := strconv.ParseInt(toks[5], 10, 64)
	if err != nil {
		return "", fmt.Errorf("%w: bad SCN %q", ErrSyntax, toks[5])
	}
	rep, err := e.rm.FlashbackTable(p, e.tableName(toks[2]), redo.SCN(scn))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("table flashed back to SCN %d (%d records, %v)",
		scn, rep.RecordsApplied, rep.Duration()), nil
}

func (e *Executor) recover(p *sim.Proc, toks []string) (string, error) {
	if e.rm == nil {
		return "", errors.New("sqladmin: no recovery manager configured")
	}
	if len(toks) >= 3 && toks[1] == "DATAFILE" {
		rep, err := e.rm.RecoverDatafile(p, toks[2])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("datafile recovered (%d records, %v)", rep.RecordsApplied, rep.Duration()), nil
	}
	if len(toks) >= 5 && toks[1] == "DATABASE" && toks[2] == "UNTIL" && toks[3] == "SCN" {
		scn, err := strconv.ParseInt(toks[4], 10, 64)
		if err != nil {
			return "", fmt.Errorf("%w: bad SCN %q", ErrSyntax, toks[4])
		}
		rep, err := e.rm.PointInTime(p, redo.SCN(scn))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("database recovered until SCN %d (%d commits lost, %v)",
			scn, rep.LostCommits, rep.Duration()), nil
	}
	if len(toks) >= 3 && toks[1] == "CATALOG" && toks[2] == "SCAN" {
		names, err := e.rm.RebuildCatalog(p)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("catalog rebuilt from datafile headers (%d tables)", len(names)), nil
	}
	return "", fmt.Errorf("%w: unsupported RECOVER", ErrSyntax)
}

func (e *Executor) backupDB(p *sim.Proc, toks []string) (string, error) {
	if e.bk == nil {
		return "", errors.New("sqladmin: no backup manager configured")
	}
	if len(toks) < 2 || toks[1] != "DATABASE" {
		return "", fmt.Errorf("%w: BACKUP DATABASE", ErrSyntax)
	}
	if err := e.in.Checkpoint(p); err != nil {
		return "", err
	}
	b, err := e.bk.TakeFull(p, e.in.DB(), e.in.Catalog(), e.in.DB().Control.CheckpointSCN)
	if err != nil {
		return "", err
	}
	if e.in.Config().Redo.ArchiveMode {
		if err := e.in.ForceLogSwitch(p); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("backup %d taken at SCN %d", b.ID, b.SCN), nil
}
