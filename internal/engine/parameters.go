package engine

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dbench/internal/sim"
	"dbench/internal/trace"
)

// parameter is one row of the instance parameter table below — the only
// place an engine knob is declared. The listings (Config.Parameters,
// Instance.Parameters, and through them V$PARAMETER) and ALTER SYSTEM SET
// (validation, the static rejection, the no-op test, the apply) are all
// read off the rows, so adding a knob is adding a row.
type parameter struct {
	name string
	// get reads the value from a configuration; it is listed the way
	// fmt.Sprint prints it.
	get func(c *Config) any
	// set is what ALTER SYSTEM SET needs to change the knob on a running
	// instance; nil makes the parameter static.
	set *setter
}

// setter is the dynamic half of a row. Values are carried as int64 in the
// knob's unit (nanoseconds or a plain count).
type setter struct {
	unit unit
	// min and max bound the accepted values, inclusive; anything outside
	// is rejected before it is applied.
	min, max int64
	// target is the value the knob holds or, when a change lands later
	// than it is accepted, the value it is converging to. Setting the
	// target again is a no-op.
	target func(in *Instance) int64
	// apply makes v the target. Each knob takes effect at its natural
	// point: the checkpoint timer re-arms immediately, recovery
	// parallelism is read at the next recovery start, and a deferred
	// change (the redo geometry) lands at the next log switch.
	apply    func(in *Instance, v int64) error
	deferred bool
}

// unit is how a dynamic parameter's values are written and read.
type unit struct {
	what   string // completes the error "<value> is not ..."
	parse  func(s string) (int64, error)
	format func(v int64) string
}

var (
	durations = unit{"a duration",
		func(s string) (int64, error) {
			d, err := time.ParseDuration(strings.ToLower(s))
			return int64(d), err
		},
		func(v int64) string { return time.Duration(v).String() }}
	integers = unit{"an integer",
		func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) },
		func(v int64) string { return strconv.FormatInt(v, 10) }}
)

// parameters is the table, in listing order: stable, alphabetical within
// each group (instance, redo, cost model).
var parameters = []parameter{
	{name: "archive_disk", get: func(c *Config) any { return DiskArch }},
	{name: "cache_blocks", get: func(c *Config) any { return c.CacheBlocks }},
	{name: "checkpoint_timeout", get: func(c *Config) any { return c.CheckpointTimeout }, set: &setter{
		unit: durations, min: int64(time.Second), max: int64(2 * time.Hour),
		target: func(in *Instance) int64 { return int64(in.cfg.CheckpointTimeout) },
		apply: func(in *Instance, v int64) error {
			in.cfg.CheckpointTimeout = time.Duration(v)
			// Re-arm the timer so the new interval counts from now, not
			// from whenever the old interval happened to expire.
			if in.ckpt != nil {
				in.ckpt.rearmTimer()
			}
			return nil
		},
	}},
	{name: "control_disk", get: func(c *Config) any { return DiskData1 }},
	{name: "cpus", get: func(c *Config) any { return max(c.CPUs, 1) }},
	{name: "instance_name", get: func(c *Config) any { return c.Name }},
	{name: "recovery_parallelism", get: func(c *Config) any { return max(c.RecoveryParallelism, 1) }, set: &setter{
		unit: integers, min: 1, max: 64,
		target: func(in *Instance) int64 { return int64(in.RecoveryParallelism()) },
		apply: func(in *Instance, v int64) error {
			in.cfg.RecoveryParallelism = int(v)
			// The live estimate must model the fan-out the next recovery
			// will actually use (bounded by CPU slots, like recovery is).
			if est := in.repo.Estimator(); est != nil {
				est.SetParallel(min(int(v), max(in.cfg.CPUs, 1)))
			}
			return nil
		},
	}},
	{name: "sample_interval", get: func(c *Config) any { return c.SampleInterval }},
	{name: "log_archive_mode", get: func(c *Config) any { return c.Redo.ArchiveMode }},
	{name: "log_disk", get: func(c *Config) any { return c.Redo.Disk }},
	{name: "log_group_size_bytes", get: func(c *Config) any { return c.Redo.GroupSizeBytes }, set: &setter{
		unit: integers, min: 1 << 20, max: 1 << 30, deferred: true,
		target: func(in *Instance) int64 { return in.log.TargetGroupSize() },
		apply: func(in *Instance, v int64) error {
			return in.log.RequestResize(v, in.log.TargetGroups())
		},
	}},
	{name: "log_groups", get: func(c *Config) any { return c.Redo.Groups }, set: &setter{
		unit: integers, min: 2, max: 16, deferred: true,
		target: func(in *Instance) int64 { return int64(in.log.TargetGroups()) },
		apply: func(in *Instance, v int64) error {
			return in.log.RequestResize(in.log.TargetGroupSize(), int(v))
		},
	}},
	{name: "log_members_per_group", get: func(c *Config) any { return max(c.Redo.MembersPerGroup, 1) }},
	{name: "cost_archive_open_overhead", get: func(c *Config) any { return c.Cost.ArchiveOpenOverhead }},
	{name: "cost_backup_restore_overhead", get: func(c *Config) any { return c.Cost.BackupRestoreOverhead }},
	{name: "cost_cpu_per_op", get: func(c *Config) any { return c.Cost.CPUPerOp }},
	{name: "cost_instance_startup", get: func(c *Config) any { return c.Cost.InstanceStartup }},
	{name: "cost_lock_timeout", get: func(c *Config) any { return c.Cost.LockTimeout }},
	{name: "cost_redo_apply_per_record", get: func(c *Config) any { return c.Cost.RedoApplyPerRecord }},
}

// Parameter is one listed row of the parameter table. Adjustable marks
// knobs changeable on a running instance via ALTER SYSTEM SET; Pending
// carries the value a deferred change (redo group resize) will take at
// the next log switch, empty when nothing is pending.
type Parameter struct {
	Name       string
	Value      string
	Adjustable bool
	Pending    string
}

// Parameters lists the configuration in table order.
func (c Config) Parameters() []Parameter {
	ps := make([]Parameter, len(parameters))
	for i, row := range parameters {
		ps[i] = Parameter{Name: row.name, Value: fmt.Sprint(row.get(&c)), Adjustable: row.set != nil}
	}
	return ps
}

// Parameters lists the live configuration, with the pending value of a
// knob whose target has not fully landed yet.
func (in *Instance) Parameters() []Parameter {
	ps := in.Config().Parameters()
	for i, row := range parameters {
		if row.set == nil {
			continue
		}
		if target := row.set.unit.format(row.set.target(in)); target != ps[i].Value {
			ps[i].Pending = target
		}
	}
	return ps
}

// RecoveryParallelism returns the recovery fan-out. The recovery manager
// reads it once at recovery start, so an ALTER SYSTEM applies to the next
// recovery, never one in flight.
func (in *Instance) RecoveryParallelism() int { return max(in.cfg.RecoveryParallelism, 1) }

// settable finds the setter of a dynamic parameter, telling a static
// parameter from one that does not exist.
func settable(name string) (*setter, error) {
	for _, row := range parameters {
		if row.name != name {
			continue
		}
		if row.set == nil {
			return nil, fmt.Errorf("engine: parameter %q is static: set at instance creation, not adjustable with ALTER SYSTEM", name)
		}
		return row.set, nil
	}
	return nil, fmt.Errorf("engine: unknown parameter %q", name)
}

// AlterSystem applies ALTER SYSTEM SET name = value against the open
// instance. Static parameters and out-of-range values are rejected with
// a descriptive error and no effect. The returned message describes
// what happened, including whether the change is deferred to the next
// log switch. Accepted changes charge the administrative latency on p;
// setting a knob to the value it already holds or is converging to is a
// free no-op, reported as changed == false, so the controller can
// re-assert a target without perturbing timing. Altered values survive
// crash and restart (SPFILE semantics): a re-Open picks them up, not the
// ones the instance was created with.
func (in *Instance) AlterSystem(p *sim.Proc, name, value string) (msg string, changed bool, err error) {
	if in.state != StateOpen {
		return "", false, ErrInstanceDown
	}
	name = strings.ToLower(strings.TrimSpace(name))
	value = strings.TrimSpace(value)
	if name == "" || value == "" {
		return "", false, fmt.Errorf("engine: ALTER SYSTEM SET needs <parameter> = <value>")
	}
	s, err := settable(name)
	if err != nil {
		return "", false, err
	}
	v, err := s.unit.parse(value)
	if err != nil {
		return "", false, fmt.Errorf("engine: %s: %q is not %s", name, value, s.unit.what)
	}
	if v < s.min || v > s.max {
		return "", false, fmt.Errorf("engine: %s %s out of range [%s, %s]",
			name, s.unit.format(v), s.unit.format(s.min), s.unit.format(s.max))
	}
	if v == s.target(in) {
		return fmt.Sprintf("%s unchanged (%s)", name, s.unit.format(v)), false, nil
	}
	p.Sleep(adminLatency)
	// Re-check: the instance may have crashed during the admin latency.
	if in.state != StateOpen {
		return "", false, ErrInstanceDown
	}
	if err := s.apply(in, v); err != nil {
		return "", false, err
	}
	in.st.Alters++
	in.tr.Instant(p.Now(), trace.CatEngine, "engine", "alter system",
		trace.S("param", name), trace.S("value", value))
	msg = fmt.Sprintf("%s = %s", name, s.unit.format(v))
	if s.deferred {
		msg += " (pending: applies at the next log switch)"
	}
	return msg, true, nil
}
