package tpcc_test

import (
	"math/rand"
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
// the indexes (export_test.go). The generator's next Int63 after Generate
// (computed at the parent commit 38fe872, before the character draw was
// inlined) pins the number of draws, so a change to it fails under its own
// name, not only as a changed hash.
func TestGeneratedDatabasePinned(t *testing.T) {
	const tinyLoaded, defaultLoaded = sim.Time(16089237500), sim.Time(50386943750)
	cases := []struct {
		name         string
		cfg          tpcc.Config
		seed         int64
		state, index uint64
		loaded       sim.Time
		next         int64
	}{
		{"tiny W=1 shared", tpcc.TinyConfig(), 11, 0x1f7f9f58ca853ea3, 0x97a1f9275dc07b2d, tinyLoaded, 0x28d019cda8e7041c},
		{"tiny W=1 shared", tpcc.TinyConfig(), 42, 0x92b8f3d95cf11e1d, 0xca9d546de98d619b, tinyLoaded, 0x63f7a7f53be66b67},
		{"default W=2 partitioned", tpcc.DefaultConfig(), 11, 0xafd994a337e23e84, 0x106f4b1c8c1f5fb9, defaultLoaded, 0x2b6a0a010ccfe9d5},
		{"default W=2 partitioned", tpcc.DefaultConfig(), 42, 0x897220ff5513f3a4, 0xd5a70e34487bf6f5, defaultLoaded, 0x1771de531c9c7c78},
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
		// The rig generated from this seed; generate again, past the
		// indexes already checked, to see where the generator stopped.
		r := rand.New(rand.NewSource(tc.seed))
		if _, err := rig.App.Generate(r); err != nil {
			t.Fatal(err)
		}
		if got := r.Int63(); got != tc.next {
			t.Errorf("%s, seed %d: the generator's next Int63 after Generate is %#x, pinned %#x", tc.name, tc.seed, got, tc.next)
		}
	}
}
