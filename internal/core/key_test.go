package core_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dbench/internal/chaos"
	"dbench/internal/control"
	"dbench/internal/core"
	"dbench/internal/faults"
	"dbench/internal/standby"
	"dbench/internal/tpcc"
)

// notInKey are the Spec leaves that label or observe a run and change
// nothing in it. A configuration's name is its key text, which ParseSpec
// derives from the configuration's content.
var notInKey = map[string]bool{"Name": true, "Tracer": true, "Recovery.Name": true}

// fullSpec switches every part of a Spec on, so that each of its fields
// changes the run: a fault, stand-bys, replica reads, the controller, load
// phases and a script.
func fullSpec() core.Spec {
	s := core.DefaultSpec()
	s.Fault = &faults.Fault{Kind: faults.DeleteDatafile, Target: "TPCC_01.dbf"}
	s.InjectAt, s.TailAfterRecovery = time.Minute, 30*time.Second
	s.Standbys, s.ReplMode, s.ReplLink, s.ReplCascade, s.ReplicaReads = 2, standby.ModeSync, core.LinkWAN, 1, 0.5
	s.SampleInterval = time.Second
	s.Control = &control.Config{Budget: 30 * time.Second}
	s.Phases = []tpcc.LoadPhase{{Duration: time.Minute, ActiveFrac: 0.4}, {ActiveFrac: 1}}
	s.Script = []core.ScriptedStmt{{At: time.Minute, Stmt: "ALTER SYSTEM SET log_checkpoint_timeout = 60"}}
	return s
}

// eachLeaf calls f on every leaf of v — through structs, pointers and every
// slice element — with the path of field names that reaches it, skipping
// notInKey.
func eachLeaf(v reflect.Value, path string, f func(path string, leaf reflect.Value)) {
	if notInKey[path] {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), f)
		}
	case reflect.Pointer:
		eachLeaf(v.Elem(), path, f)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(v.Index(i), path, f)
		}
	default:
		f(path, v)
	}
}

// Every field a run reads is in the key: two specs that differ in any one
// leaf get different keys, and each key reads back to itself.
func TestKeyTellsEveryFieldApart(t *testing.T) {
	base := fullSpec()
	key := base.Key()
	leaves := 0
	eachLeaf(reflect.ValueOf(&base).Elem(), "", func(string, reflect.Value) { leaves++ })
	for n := 0; n < leaves; n++ {
		s, i, changed := fullSpec(), 0, ""
		eachLeaf(reflect.ValueOf(&s).Elem(), "", func(path string, v reflect.Value) {
			if i++; i-1 != n {
				return
			}
			changed = path
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint8:
				v.SetUint(v.Uint() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.25)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.String:
				v.SetString(v.String() + "x")
			default:
				t.Fatalf("%s: no way to change a %v", path, v.Kind())
			}
		})
		k := s.Key()
		if k == key {
			t.Errorf("changing %s leaves the key at %q", changed, k)
		}
		if back, err := core.ParseSpec(k); err != nil || back.Key() != k {
			t.Errorf("changed %s: key %q reads back as %q (%v)", changed, k, back.Key(), err)
		}
	}
	t.Logf("%d leaves, base key %s", leaves, key)
	if leaves < 40 {
		t.Errorf("only %d leaves reached", leaves)
	}
}

// ParseSpec reads back every spec the declarations build, at every scale,
// and the chaos harness's: the key is a complete command line. Every one of
// them is also a valid run.
func TestParseSpecReadsBackEveryDeclaredSpec(t *testing.T) {
	specs := []core.Spec{chaos.DefaultConfig().Spec, fullSpec()}
	for _, sc := range []core.Scale{core.QuickScale(), core.StdScale(), core.FullScale()} {
		for _, x := range []core.Experiment{core.Table3(sc), core.Figure4(sc), core.Figure5(sc), core.Table4(sc),
			core.Table5(sc), core.Figure6(sc), core.Figure7(sc), core.Scaling(sc, nil), core.LogicalVsPhysical(sc),
			core.Pareto(sc, 30*time.Second, core.ParetoGrid()), core.Replica(sc, core.DefaultReplicaGrid())} {
			for _, tab := range x.Tables {
				for _, row := range tab.Grid {
					specs = append(specs, row...)
				}
			}
		}
	}
	keys := map[string]bool{}
	for _, s := range specs {
		k := s.Key()
		keys[k] = true
		if err := s.Validate(); err != nil {
			t.Error(err)
		}
		got, err := core.ParseSpec(k)
		if err != nil {
			t.Errorf("%q: %v", k, err)
			continue
		}
		s.Name = ""
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%q reads back as\n%+v, want\n%+v", k, got, s)
		}
	}
	t.Logf("%d specs, %d distinct keys", len(specs), len(keys))
}

// A token ParseSpec cannot read is an error naming it; a fault token it
// does not know lists every one it does. A token that sets a field an
// earlier one set is an error naming the field and both tokens: read
// leniently, the last would win, and the key would name a run other than
// the one its reader sees.
func TestParseSpecRejectsUnknownTokens(t *testing.T) {
	for key, want := range map[string]string{
		"F40G3T5 W1 colour=red":      `"colour=red"`,
		"F40G3T5 archive":            `"archive"`,
		"F40G3T5 W":                  `"W"`,
		"F40G3T5 fault=nope":         "valid: shutdown, delete-datafile",
		"F40G3T5 mode=quorum":        `unknown replication mode "quorum"`,
		"F40G3T5 W1 W2":              `TPCC.Warehouses twice: "W1" and "W2"`,
		"F40G3T5 F100G3T10":          `Recovery twice: "F40G3T5" and "F100G3T10"`,
		"F40G3T5 arch W1 arch":       `Archive twice: "arch" and "arch"`,
		"F40G3T5 dur=1m at=5s at=5s": `InjectAt twice: "at=5s" and "at=5s"`,
	} {
		if _, err := core.ParseSpec(key); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSpec(%q) = %v, want an error containing %s", key, err, want)
		}
	}
}
