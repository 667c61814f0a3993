package core

import (
	"fmt"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"time"

	"dbench/internal/faults"
	"dbench/internal/sim"
	"dbench/internal/standby"
)

// A run key is a Spec written as one line of text, for example
//
//	F40G3T5 arch W1 seed=3 fault=drop-table:stock at=5m0s standbys=2 mode=sync link=lan
//
// Key writes one token per keyFields row, leaving out fields at DefaultSpec's
// value (the recovery configuration is always written); ParseSpec reads the
// tokens back onto DefaultSpec. One key is one run: a campaign measures each
// key once (Experiment.Run), a progress line starts with it and `dbench run`
// replays it. Name and Tracer only label or observe a run: `dbench run
// -trace/-timeline` attaches a tracer to the run a key names, and -stats/-awr
// set its SampleInterval, which the key carries.

// keyFields are the key's rows, in the order Key writes them: a token and
// the Spec field (a dotted path) whose value follows it. A field that
// changes a run is one row here. A bool field is a flag, false by default:
// its bare token when true.
var keyFields = []struct{ tok, field string }{
	{"", "Recovery"}, {"arch", "Archive"},
	{"W", "TPCC.Warehouses"}, {"cust=", "TPCC.CustomersPerDistrict"}, {"items=", "TPCC.Items"},
	{"terms=", "TPCC.TerminalsPerWarehouse"}, {"cache=", "CacheBlocks"}, {"cpus=", "CPUs"},
	{"disks=", "DataDisks"}, {"workers=", "RecoveryWorkers"}, {"cost=", "Cost"}, {"seed=", "Seed"},
	{"dur=", "Duration"}, {"fault=", "Fault"}, {"at=", "InjectAt"}, {"detect=", "Detection"},
	{"tail=", "TailAfterRecovery"}, {"physical", "ForcePhysical"}, {"standbys=", "Standbys"},
	{"mode=", "ReplMode"}, {"link=", "ReplLink"}, {"cascade=", "ReplCascade"}, {"reads=", "ReplicaReads"},
	{"sample=", "SampleInterval"}, {"ctl=", "Control"}, {"phases=", "Phases"}, {"script=", "Script"},
}

// specField is the field of *s that a dotted path names.
func specField(s *Spec, path string) reflect.Value {
	v := reflect.ValueOf(s).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// Key is the spec's run key.
func (s Spec) Key() string {
	def := DefaultSpec()
	var toks []string
	for i, f := range keyFields {
		v := specField(&s, f.field)
		t := text(v)
		if i > 0 && t == text(specField(&def, f.field)) {
			continue
		}
		if v.Kind() == reflect.Bool {
			t = ""
		}
		toks = append(toks, f.tok+t)
	}
	return strings.Join(toks, " ")
}

// ParseSpec reads a run key back: DefaultSpec with each token's field set.
// A key that sets one field twice is an error: one key is one run.
func ParseSpec(key string) (Spec, error) {
	s := DefaultSpec()
	set := map[string]string{} // field -> the token that set it
	for _, t := range strings.Fields(key) {
		f := keyFields[0] // the one row without a token
		for _, g := range keyFields[1:] {
			if strings.HasPrefix(t, g.tok) && len(g.tok) > len(f.tok) {
				f = g
			}
		}
		if prev, ok := set[f.field]; ok {
			return Spec{}, fmt.Errorf("core: run key sets %s twice: %q and %q", f.field, prev, t)
		}
		set[f.field] = t
		if err := setText(specField(&s, f.field), t[len(f.tok):]); err != nil {
			return Spec{}, fmt.Errorf("core: run key token %q: %w", t, err)
		}
	}
	return s, nil
}

// text writes a key field's value: a configuration, a fault kind, a
// stand-by mode, a named link and a duration in their own spellings; a
// struct as its fields, colon-separated and without trailing empty ones;
// a slice as its elements, comma-separated; a string query-escaped, so
// that it holds no space, colon or comma.
func text(v reflect.Value) string {
	switch x := v.Interface().(type) {
	case RecoveryConfig:
		return x.key()
	case faults.Kind:
		return x.Token()
	case standby.Mode, time.Duration:
		return fmt.Sprint(x)
	case sim.LinkSpec:
		if named, ok := LinkByName(x.Name); ok && named == x {
			return x.Name
		}
	}
	var parts []string
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		return text(v.Elem())
	case reflect.String:
		return url.QueryEscape(v.String())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			parts = append(parts, text(v.Index(i)))
		}
		return strings.Join(parts, ",")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			parts = append(parts, text(v.Field(i)))
		}
		for len(parts) > 0 && parts[len(parts)-1] == "" {
			parts = parts[:len(parts)-1]
		}
		return strings.Join(parts, ":")
	}
	return fmt.Sprint(v.Interface())
}

// setText reads a value text wrote back into v.
func setText(v reflect.Value, s string) (err error) {
	switch p := v.Addr().Interface().(type) {
	case *RecoveryConfig:
		*p, err = ParseConfig(s)
		return err
	case *faults.Kind:
		*p, err = faults.ParseKind(s)
		return err
	case *standby.Mode:
		*p, err = standby.ParseMode(s)
		if s == "archive" { // a cluster mode, but not a streaming one
			*p, err = standby.ModeArchive, nil
		}
		return err
	case *time.Duration:
		*p, err = time.ParseDuration(s)
		return err
	case *sim.LinkSpec:
		if l, ok := LinkByName(s); ok {
			*p = l
			return nil
		}
	}
	switch v.Kind() {
	case reflect.Bool: // a flag
		if s != "" {
			return fmt.Errorf("a flag takes no value")
		}
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return setText(v.Elem(), s)
	case reflect.String:
		s, err = url.QueryUnescape(s)
		v.SetString(s)
	case reflect.Slice:
		parts := strings.Split(s, ",")
		v.Set(reflect.MakeSlice(v.Type(), len(parts), len(parts)))
		for i, part := range parts {
			if err = setText(v.Index(i), part); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i, part := range strings.SplitN(s, ":", v.NumField()) {
			if err = setText(v.Field(i), part); err != nil {
				return err
			}
		}
	case reflect.Float64:
		var f float64
		f, err = strconv.ParseFloat(s, 64)
		v.SetFloat(f)
	default:
		var n int64
		n, err = strconv.ParseInt(s, 10, 64)
		v.SetInt(n)
	}
	return err
}

// key writes c in the paper's scheme F<sizeMB>G<groups>T<timeoutMin>; a
// size that is not whole megabytes is written in bytes (F1536BG3T1), a
// timeout that is not whole minutes as a duration (F1G3T15s).
func (c RecoveryConfig) key() string {
	size := strconv.FormatInt(c.FileSize>>20, 10)
	if c.FileSize%(1<<20) != 0 {
		size = strconv.FormatInt(c.FileSize, 10) + "B"
	}
	timeout := c.CheckpointTimeout.String()
	if c.CheckpointTimeout%time.Minute == 0 {
		timeout = strconv.Itoa(int(c.CheckpointTimeout / time.Minute))
	}
	return fmt.Sprintf("F%sG%dT%s", size, c.Groups, timeout)
}

// ParseConfig reads a configuration written the way its key writes it, and
// names it so.
func ParseConfig(name string) (RecoveryConfig, error) {
	var c RecoveryConfig
	var timeout string
	_, err := fmt.Sscanf(name, "F%dG%dT%s", &c.FileSize, &c.Groups, &timeout)
	if err == nil {
		c.FileSize <<= 20
	} else {
		_, err = fmt.Sscanf(name, "F%dBG%dT%s", &c.FileSize, &c.Groups, &timeout)
	}
	if m, merr := strconv.Atoi(timeout); merr == nil {
		c.CheckpointTimeout = time.Duration(m) * time.Minute
	} else if err == nil {
		c.CheckpointTimeout, err = time.ParseDuration(timeout)
	}
	if err != nil {
		return RecoveryConfig{}, fmt.Errorf("not a recovery configuration F<sizeMB>G<groups>T<timeoutMin>, e.g. F40G3T5")
	}
	c.Name = c.key()
	return c, nil
}
