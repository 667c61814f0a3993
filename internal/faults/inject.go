package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/sqladmin"
	"dbench/internal/trace"
	"dbench/internal/txn"
)

// Kind is one of the six fault types injected in the paper's experiments
// (§4): chosen for their ability to represent the effects of the other
// types, their diversity of impact, and the diversity of required
// recovery.
type Kind uint8

// The injected fault kinds.
const (
	ShutdownAbort Kind = iota + 1
	DeleteDatafile
	DeleteTablespace
	SetDatafileOffline
	SetTablespaceOffline
	DeleteUsersObject

	// Extension kinds beyond the paper's six (other Table 2 rows):
	// CorruptDatafile damages a datafile's content in place (recovered
	// like a deleted datafile); KillUserSession kills one connected
	// session, whose in-flight transaction PMON rolls back.
	CorruptDatafile
	KillUserSession

	// Logical-damage extension kinds (paper Table 2 "wrong
	// administration command" family): TruncateTable purges one table's
	// rows by mistake; MisroutedBatchUpdate commits a batch job's
	// updates against the wrong table. Both damage exactly one table
	// while the database stays structurally intact — the home turf of
	// FLASHBACK TABLE, with point-in-time recovery as the physical
	// fallback.
	TruncateTable
	MisroutedBatchUpdate
)

// kinds is one row per kind: its name in reports; its one-word token, the
// way a run key (core.Spec.Key) and the command line write it; whether its
// recovery is complete (no committed transactions lost, paper Table 5) or
// incomplete (Table 4); and whether it damages exactly one table logically,
// making FLASHBACK TABLE applicable. The physical remedy for a logical kind
// is incomplete (point-in-time) recovery; flashback upgrades it to a complete
// recovery of the database as a whole — only the damaged table is rewound —
// which the per-outcome Report records.
var kinds = [...]struct {
	name, token       string
	complete, logical bool
}{
	ShutdownAbort:        {"Shutdown abort", "shutdown", true, false},
	DeleteDatafile:       {"Delete datafile", "delete-datafile", true, false},
	DeleteTablespace:     {"Delete tablespace", "delete-tablespace", false, false},
	SetDatafileOffline:   {"Set datafile offline", "offline-datafile", true, false},
	SetTablespaceOffline: {"Set tablespace offline", "offline-tablespace", true, false},
	DeleteUsersObject:    {"Delete user's object", "drop-table", false, true},
	CorruptDatafile:      {"Corrupt datafile", "corrupt-datafile", true, false},
	KillUserSession:      {"Kill user session", "kill-session", true, false},
	TruncateTable:        {"Truncate table", "truncate-table", false, true},
	MisroutedBatchUpdate: {"Mis-routed batch update", "misrouted-batch", false, true},
}

func (k Kind) known() bool { return k > 0 && int(k) < len(kinds) }

func (k Kind) String() string {
	if k.known() {
		return kinds[k].name
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Token is k's one-word spelling; ParseKind reads it back.
func (k Kind) Token() string {
	if k.known() {
		return kinds[k].token
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// ParseKind returns the kind a token spells. An unknown token is an error
// that lists every valid one.
func ParseKind(tok string) (Kind, error) {
	var valid []string
	for k := Kind(1); k.known(); k++ {
		if kinds[k].token == tok {
			return k, nil
		}
		valid = append(valid, kinds[k].token)
	}
	return 0, fmt.Errorf("unknown fault %q (valid: %s)", tok, strings.Join(valid, ", "))
}

// Kinds lists all injected fault kinds in the paper's presentation order.
var Kinds = []Kind{
	ShutdownAbort, DeleteDatafile, DeleteTablespace,
	SetDatafileOffline, SetTablespaceOffline, DeleteUsersObject,
}

// CompleteRecovery reports whether the fault's recovery is complete (paper
// Table 5) or incomplete (Table 4).
func (k Kind) CompleteRecovery() bool { return !k.known() || kinds[k].complete }

// Fault is one concrete injection: a kind plus its target.
type Fault struct {
	Kind Kind
	// Target names the object the mistake hits: a datafile for
	// DeleteDatafile/SetDatafileOffline, a tablespace for
	// DeleteTablespace/SetTablespaceOffline, a table for
	// DeleteUsersObject/TruncateTable/MisroutedBatchUpdate. Unused for
	// ShutdownAbort.
	Target string
}

func (f Fault) String() string {
	if f.Target == "" {
		return f.Kind.String()
	}
	return fmt.Sprintf("%v(%s)", f.Kind, f.Target)
}

// Outcome records one injection and its recovery.
type Outcome struct {
	Fault      Fault
	InjectedAt sim.Time
	// PreFaultSCN is the last SCN before the fault took effect; the
	// recovery target for incomplete recoveries. Captured atomically with
	// InjectedAt at the instant the destructive action takes effect, so
	// commits landing during the simulated operator action cannot fall
	// between the two.
	PreFaultSCN redo.SCN
	// Tablespace names the tablespace the fault's damage localized to
	// ("" when the fault hits the whole instance, e.g. ShutdownAbort).
	Tablespace string
	// Localized reports whether the blast radius was contained to
	// Tablespace, making online tablespace recovery applicable while the
	// rest of the database keeps serving.
	Localized bool
	// DetectedAt is when the (simulated) DBA notices and starts acting.
	DetectedAt sim.Time
	// Report is the recovery manager's account; nil when the recovery
	// is a pure administrative action (set tablespace offline).
	Report *recovery.Report
	// FailedOver reports that the remedy was a stand-by promotion (the
	// injector's Failover hook) rather than recovery of the faulted
	// instance: Report describes the promotion and the caller must
	// re-target sessions at the new primary.
	FailedOver bool
	// RecoveredAt is when the recovery procedure completed.
	RecoveredAt sim.Time
}

// RecoveryDuration is the procedure time (detection excluded, like the
// paper's tables).
func (o *Outcome) RecoveryDuration() time.Duration {
	return o.RecoveredAt.Sub(o.DetectedAt)
}

// OutageDuration is the end-user outage window: from the instant the
// fault took effect to the end of recovery, detection time included. For
// a localized fault this is the affected tablespace's outage — the rest
// of the database keeps serving inside it — whereas RecoveryDuration is
// the DBA-procedure time the paper's tables report.
func (o *Outcome) OutageDuration() time.Duration {
	return o.RecoveredAt.Sub(o.InjectedAt)
}

// zombieCleanupDeadline bounds how long Recover waits for PMON to roll a
// killed session's transaction back before declaring the cleanup wedged.
const zombieCleanupDeadline = 5 * time.Minute

// Injector reproduces operator faults on one instance and automates the
// matching recovery procedure.
type Injector struct {
	in *engine.Instance
	rm *recovery.Manager
	ex *sqladmin.Executor

	// Detection is the constant error-detection time assumed before the
	// recovery procedure starts (paper §3.2 fixes this per experiment).
	Detection time.Duration

	// ForcePhysical disables the flashback remedy for single-table
	// logical faults, forcing the physical point-in-time procedure — the
	// paper's baseline, and the control arm of the logical-vs-physical
	// differential harness.
	ForcePhysical bool

	// Failover, when set, turns a primary crash (ShutdownAbort) into a
	// managed failover: instead of recovering the crashed instance, a
	// stand-by is promoted and the outcome reports FailedOver. Every
	// failover of a run enters here.
	Failover Promoter
}

// Promoter is a stand-by configuration that can take over after a primary
// crash — a standby.Cluster, in any of its modes (an interface here keeps
// faults free of the replication machinery).
type Promoter interface {
	Promote(p *sim.Proc) (*recovery.Report, error)
}

// misroutedBatchSize is how many rows the mis-routed batch job updates
// before committing.
const misroutedBatchSize = 50

// NewInjector wires an injector. The executor carries the DBA interface;
// the recovery manager runs the procedures.
func NewInjector(in *engine.Instance, rm *recovery.Manager, ex *sqladmin.Executor) *Injector {
	return &Injector{in: in, rm: rm, ex: ex, Detection: 2 * time.Second}
}

// Inject performs the wrong operator action right now, through the same
// means a real DBA would use: administrative SQL for commands, file
// deletion at the "operating system" level for file faults.
//
// (PreFaultSCN, InjectedAt) are captured atomically at the instant the
// fault takes effect: for immediate actions that is the moment the call
// starts damaging state, for DDL mistakes it is the instant the DROP's
// redo record is durably flushed (engine.LastDDL) — commits landing
// while the operator "types" can no longer fall between the SCN and the
// timestamp.
//
// Faults whose damage is contained to one tablespace (a deleted,
// corrupted or offlined datafile; an offlined or — at multi-tablespace
// layouts — dropped tablespace) take only that tablespace offline: the
// instance stays open, transactions touching it fail fast with
// storage.ErrTbsOffline, and Recover repairs it online.
func (inj *Injector) Inject(p *sim.Proc, f Fault) (*Outcome, error) {
	o := &Outcome{Fault: f}
	// capture stamps the fault instant for actions that take effect the
	// moment they are invoked.
	capture := func() {
		o.PreFaultSCN = inj.in.Log().NextSCN() - 1
		o.InjectedAt = p.Now()
	}
	// captureDDL stamps the fault instant of a DDL mistake: the moment
	// its redo record hit disk, excluding the DROP record itself.
	captureDDL := func() {
		scn, at := inj.in.LastDDL()
		o.PreFaultSCN = scn - 1
		o.InjectedAt = at
	}
	// offlineFileTablespace reacts to a damaged datafile: the owning
	// tablespace goes offline so the rest of the database keeps serving
	// while the tablespace awaits media recovery.
	offlineFileTablespace := func() error {
		df, err := inj.in.DB().Datafile(f.Target)
		if err != nil {
			return err
		}
		o.Tablespace = df.Tablespace
		o.Localized = true
		return inj.in.OfflineTablespaceForRecovery(p, df.Tablespace)
	}
	var err error
	switch f.Kind {
	case ShutdownAbort:
		capture()
		_, err = inj.ex.Execute(p, "SHUTDOWN ABORT")
	case DeleteDatafile:
		// The operator deletes the file at OS level (rm).
		capture()
		if err = inj.in.FS().Delete(f.Target); err == nil {
			err = offlineFileTablespace()
		}
	case DeleteTablespace:
		// Whether the drop is recoverable online is decided by what it
		// destroys: if no table lives fully inside the tablespace (the
		// per-warehouse layout), restoring its files brings everything
		// back; otherwise the tables are gone and point-in-time recovery
		// is needed.
		o.Tablespace = f.Target
		o.Localized = len(inj.in.Catalog().TablesFullyIn(f.Target)) == 0
		_, err = inj.ex.Execute(p, "DROP TABLESPACE "+f.Target+" INCLUDING CONTENTS")
		if err == nil {
			captureDDL()
		}
	case SetDatafileOffline:
		capture()
		_, err = inj.ex.Execute(p, "ALTER DATABASE DATAFILE '"+f.Target+"' OFFLINE")
		if err == nil {
			err = offlineFileTablespace()
		}
	case SetTablespaceOffline:
		capture()
		o.Tablespace = f.Target
		o.Localized = true
		_, err = inj.ex.Execute(p, "ALTER TABLESPACE "+f.Target+" OFFLINE")
	case DeleteUsersObject:
		_, err = inj.ex.Execute(p, "DROP TABLE "+f.Target)
		if err == nil {
			captureDDL()
		}
	case CorruptDatafile:
		// The operator overwrites part of the file at OS level.
		capture()
		if err = inj.in.FS().Corrupt(f.Target); err == nil {
			err = offlineFileTablespace()
		}
	case KillUserSession:
		// ALTER SYSTEM KILL SESSION: the oldest in-flight transaction
		// is killed; PMON rolls it back.
		capture()
		err = inj.in.Txns().KillOldestActive()
	case TruncateTable:
		_, err = inj.ex.Execute(p, "TRUNCATE TABLE "+f.Target)
		if err == nil {
			// The truncate's DDL marker precedes its logged row purge, so
			// LastDDL-1 is the table's last good SCN.
			captureDDL()
		}
	case MisroutedBatchUpdate:
		// The batch job was pointed at the wrong table: a committed run
		// of updates lands on f.Target. The fault instant is when the
		// batch starts — everything it writes is damage.
		capture()
		err = inj.misrouteBatch(p, f.Target)
	default:
		err = fmt.Errorf("faults: unknown kind %v", f.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("faults: inject %v: %w", f, err)
	}
	if kinds[f.Kind].logical {
		// Pin the undo retention horizon at the pre-fault SCN so the
		// online log keeps every record a flashback will need, however
		// long detection takes. Recover clears the pin.
		inj.in.Txns().SetRetention(o.PreFaultSCN + 1)
	}
	inj.in.Tracer().Instant(p.Now(), trace.CatFault, "fault", "inject",
		trace.S("fault", f.String()), trace.I("pre_scn", int64(o.PreFaultSCN)))
	return o, nil
}

// Observed records a fault the caller performed itself — the chaos
// harness crashes the instance directly rather than through the DBA
// interface — so that Recover can drive the matching procedure with the
// usual detection accounting. injectedAt is when the fault took effect;
// preSCN is the last SCN assigned before it (the recovery target for
// incomplete recoveries).
func Observed(f Fault, injectedAt sim.Time, preSCN redo.SCN) *Outcome {
	return &Outcome{Fault: f, InjectedAt: injectedAt, PreFaultSCN: preSCN}
}

// Recover waits out the detection time and runs the recovery procedure
// appropriate for the fault, filling in the outcome.
func (inj *Injector) Recover(p *sim.Proc, o *Outcome) error {
	span := inj.in.Tracer().Begin(p.Now(), trace.CatFault, "fault", "recover",
		trace.S("fault", o.Fault.String()))
	p.Sleep(inj.Detection)
	o.DetectedAt = p.Now()
	var err error
	switch o.Fault.Kind {
	case ShutdownAbort:
		if inj.Failover != nil {
			o.Report, err = inj.Failover.Promote(p)
			o.FailedOver = err == nil
		} else {
			o.Report, err = inj.rm.InstanceRecovery(p)
		}
	case DeleteDatafile, CorruptDatafile, SetDatafileOffline:
		// The file's tablespace (Inject recorded it) is offline while the
		// rest of the database serves: restore what is damaged and roll
		// it forward online.
		o.Report, err = inj.rm.OnlineTablespaceRecovery(p, o.Tablespace)
	case SetTablespaceOffline:
		// The tablespace was offlined cleanly: bringing it back is a
		// pure administrative command (the paper measures ~1 s).
		_, err = inj.ex.Execute(p, "ALTER TABLESPACE "+o.Fault.Target+" ONLINE")
	case DeleteTablespace:
		if o.Localized {
			// No table lived fully inside the tablespace: restoring its
			// files online brings every partition back, with no committed
			// work lost and the other warehouses serving throughout.
			o.Report, err = inj.rm.OnlineTablespaceRecovery(p, o.Tablespace)
		} else {
			// Tables went down with the tablespace: incomplete recovery,
			// restore the whole database and stop just before the drop.
			o.Report, err = inj.rm.PointInTime(p, o.PreFaultSCN)
		}
	case DeleteUsersObject, TruncateTable, MisroutedBatchUpdate:
		// Single-table logical damage: the preferred remedy is FLASHBACK
		// TABLE — rewind just the damaged table from the redo stream
		// while the instance stays open — with physical point-in-time
		// recovery as the fallback (and the forced baseline).
		o.Report, err = inj.recoverLogical(p, o)
	case KillUserSession:
		// Nothing for the DBA to do: PMON cleans the session up; wait
		// for the rollback to land — but not forever: if the instance
		// goes down or PMON wedges mid-rollback, report it instead of
		// spinning for eternity.
		deadline := p.Now().Add(zombieCleanupDeadline)
		for inj.in.Txns().ZombieCount() > 0 {
			if inj.in.State() != engine.StateOpen {
				err = fmt.Errorf("faults: instance went down with %d zombie transaction(s) awaiting PMON cleanup",
					inj.in.Txns().ZombieCount())
				break
			}
			if p.Now() >= deadline {
				err = fmt.Errorf("faults: PMON did not clean up %d zombie transaction(s) within %v",
					inj.in.Txns().ZombieCount(), zombieCleanupDeadline)
				break
			}
			p.Sleep(500 * time.Millisecond)
		}
	default:
		err = fmt.Errorf("faults: unknown kind %v", o.Fault.Kind)
	}
	if err != nil {
		inj.in.Tracer().End(p.Now(), span, trace.S("error", err.Error()))
		return fmt.Errorf("faults: recover %v: %w", o.Fault, err)
	}
	o.RecoveredAt = p.Now()
	inj.in.Tracer().End(p.Now(), span)
	return nil
}

// misrouteBatch commits a batch of updates against the wrong table, the
// mis-routed job's damage: garbage values over the table's lowest
// misroutedBatchSize keys.
func (inj *Injector) misrouteBatch(p *sim.Proc, table string) error {
	var keys []int64
	if err := inj.in.Scan(p, table, func(key int64, _ []byte) bool {
		keys = append(keys, key)
		return true
	}); err != nil {
		return err
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) > misroutedBatchSize {
		keys = keys[:misroutedBatchSize]
	}
	_, err := inj.in.Atomically(p, func(t *txn.Txn) error {
		for _, key := range keys {
			if err := inj.in.Update(p, t, table, key, []byte("misrouted batch value")); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// recoverLogical runs the flashback-preferred remedy for single-table
// logical faults and clears the retention pin Inject set. Flashback
// applies only while the instance is open; if it is unavailable or
// fails, the physical point-in-time procedure takes over.
func (inj *Injector) recoverLogical(p *sim.Proc, o *Outcome) (*recovery.Report, error) {
	defer func() {
		inj.in.Txns().SetRetention(0)
		inj.in.Log().NotifyUndoFloorChanged()
	}()
	if !inj.ForcePhysical && inj.in.State() == engine.StateOpen {
		rep, err := inj.rm.FlashbackTable(p, o.Fault.Target, o.PreFaultSCN)
		if err == nil {
			// Damage contained to one table; the rest of the database
			// served throughout.
			o.Localized = true
			return rep, nil
		}
		inj.in.Tracer().Instant(p.Now(), trace.CatFault, "fault", "flashback-fallback",
			trace.S("error", err.Error()))
	}
	return inj.rm.PointInTime(p, o.PreFaultSCN)
}

// InjectAndRecover is the full §3.2 procedure: inject, wait detection,
// recover.
func (inj *Injector) InjectAndRecover(p *sim.Proc, f Fault) (*Outcome, error) {
	o, err := inj.Inject(p, f)
	if err != nil {
		return nil, err
	}
	if err := inj.Recover(p, o); err != nil {
		return o, err
	}
	return o, nil
}
