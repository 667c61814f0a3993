package core

import (
	"fmt"
	"reflect"
	"testing"

	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/tpcc"
)

// TestRigStandbyMatchesPrimaryAfterLoad pins the instantiate-from-backup
// contract Run and the chaos harness both rely on: a stand-by populated
// from the rig's seed holds, block for block, the datafile images of the
// loaded and checkpointed primary — so redo streamed from the reference
// backup's SCN applies to the stand-by exactly as it would to the backup.
func TestRigStandbyMatchesPrimaryAfterLoad(t *testing.T) {
	ecfg := engine.DefaultConfig()
	ecfg.Redo.ArchiveMode = true
	ecfg.CacheBlocks = 512
	rig, err := NewRig(11, ecfg, tinyScale().TPCC, tpcc.DefaultDriverConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	err = rig.Exec("rig-test", func(p *sim.Proc) error {
		if err := rig.Load(p); err != nil {
			return err
		}
		sb, err := rig.Standby(p, ecfg, "standby")
		if err != nil {
			return err
		}
		if got := sb.AppliedSCN(); got != rig.backupSCN {
			t.Errorf("stand-by starts at SCN %d, want the reference backup's %d", got, rig.backupSCN)
		}
		primary, replica := rig.In.DB().Datafiles(), sb.Instance().DB().Datafiles()
		if len(primary) == 0 || len(primary) != len(replica) {
			return fmt.Errorf("datafiles: primary %d, stand-by %d", len(primary), len(replica))
		}
		for i, f := range primary {
			g := replica[i]
			if f.Name != g.Name || f.NumBlocks() != g.NumBlocks() {
				t.Errorf("file %d: primary %s (%d blocks), stand-by %s (%d blocks)",
					i, f.Name, f.NumBlocks(), g.Name, g.NumBlocks())
				continue
			}
			for no := 0; no < f.NumBlocks(); no++ {
				if !reflect.DeepEqual(f.PeekBlock(no), g.PeekBlock(no)) {
					t.Errorf("%s block %d differs between primary and stand-by", f.Name, no)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
