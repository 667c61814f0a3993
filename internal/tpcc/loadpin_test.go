package tpcc_test

import (
	"testing"

	"dbench/internal/chaos"
	"dbench/internal/core"
	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/tpcc"
)

// TestGeneratedDatabasePinned holds a seed's loaded database still: the
// durable state right after Rig.Load (every block image, SCN and checkpoint
// position), the driver-side indexes and the virtual time the load took are
// what the loader produced before it was split into Generate and Install
// (computed at the parent commit, 34d4364, where Load drew and encoded one
// row map per table and bulk-loaded them in turn). Every golden, fingerprint
// and recorded result starts from this content, so a loader change that moves
// it fails here in a second, not in the goldens after minutes. It lives beside
// the loader, not in core or chaos, because only a test of this package sees
// the indexes (export_test.go).
func TestGeneratedDatabasePinned(t *testing.T) {
	const tinyLoaded, defaultLoaded = sim.Time(16089237500), sim.Time(50386943750)
	cases := []struct {
		name         string
		cfg          tpcc.Config
		seed         int64
		state, index uint64
		loaded       sim.Time
	}{
		{"tiny W=1 shared", tpcc.TinyConfig(), 11, 0x1f7f9f58ca853ea3, 0x97a1f9275dc07b2d, tinyLoaded},
		{"tiny W=1 shared", tpcc.TinyConfig(), 42, 0x92b8f3d95cf11e1d, 0xca9d546de98d619b, tinyLoaded},
		{"default W=2 partitioned", tpcc.DefaultConfig(), 11, 0xafd994a337e23e84, 0x106f4b1c8c1f5fb9, defaultLoaded},
		{"default W=2 partitioned", tpcc.DefaultConfig(), 42, 0x897220ff5513f3a4, 0xd5a70e34487bf6f5, defaultLoaded},
	}
	for _, tc := range cases {
		ecfg := engine.DefaultConfig()
		ecfg.Redo.ArchiveMode = true
		rig, err := core.NewRig(tc.seed, ecfg, tc.cfg, tpcc.DriverConfig{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var loaded sim.Time
		err = rig.Exec("load-pin", func(p *sim.Proc) error {
			err := rig.Load(p)
			loaded = p.Now()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := chaos.StateHash(rig.In); got != tc.state {
			t.Errorf("%s, seed %d: the loaded database hashes to %#x, pinned %#x", tc.name, tc.seed, got, tc.state)
		}
		if got := rig.App.IndexHash(); got != tc.index {
			t.Errorf("%s, seed %d: the driver-side indexes hash to %#x, pinned %#x", tc.name, tc.seed, got, tc.index)
		}
		if loaded != tc.loaded {
			t.Errorf("%s, seed %d: load, checkpoint and backup end at %d virtual ns, pinned %d", tc.name, tc.seed, loaded, tc.loaded)
		}
	}
}
