package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"dbench/internal/core"
	"dbench/internal/engine"
	"dbench/internal/faults"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/standby"
	"dbench/internal/storage"
	"dbench/internal/tpcc"
	"dbench/internal/txn"
)

// imagesHash is StateHash's block hash over a bare set of images.
func imagesHash(images []*storage.Block) uint64 {
	h := fnv.New64a()
	for no, img := range images {
		hashImage(h, no, img)
	}
	return h.Sum64()
}

// A backup shares its images with the datafile it was taken of, and a
// restore shares them back: nothing is copied, so everything that changes a
// block afterwards — the workload through the cache, write-backs and
// checkpoints, a datafile's restore-and-recover under live traffic, instance
// recovery after SHUTDOWN ABORT with transactions in flight — has to leave
// the backup's images alone. Hash them when taken and after each stage, and
// restore the same file a second time, with nothing new in the redo: it must
// come out the same file.
//
// The media recoveries come before the crash on purpose. Instance recovery
// rolls its losers back without logging the compensation, so a media
// recovery that later replays the same redo undoes them a second time, at
// the end of the stream, over whatever committed since (ROADMAP item 1 has
// it as a found bug; the parent commit shows it too). No experiment injects
// two faults, and this test is not about that.
func TestBackupImagesSurviveWorkloadRestoresAndCrash(t *testing.T) {
	spec := quickConfig().Spec
	spec.Seed = 5
	spec.Recovery.CheckpointTimeout = 2 * time.Second
	spec.CacheBlocks = 48 // far below the working set: evictions write dirty blocks back
	spec.SampleInterval = 0
	rig, err := core.NewRig(spec)
	if err != nil {
		t.Fatal(err)
	}
	const target = "TPCC_01.dbf"
	err = rig.Exec("backup-share", func(p *sim.Proc) error {
		if err := rig.Load(p); err != nil {
			return err
		}
		in := rig.In
		// Load took the reference backup a moment ago and nothing has
		// changed a block since: a snapshot taken now holds the very
		// images the backup does.
		held := make(map[string][]*storage.Block)
		taken := make(map[string]uint64)
		for _, f := range in.DB().Datafiles() {
			held[f.Name] = f.SnapshotImages()
			taken[f.Name] = imagesHash(held[f.Name])
		}
		backupIntact := func(stage string) {
			t.Helper()
			for name, images := range held {
				if got := imagesHash(images); got != taken[name] {
					t.Errorf("after %s: backup images of %s hash %#x, %#x when taken", stage, name, got, taken[name])
				}
			}
		}

		rig.Drv.Start()
		p.Sleep(6 * time.Second)
		if err := in.Checkpoint(p); err != nil {
			return err
		}
		p.Sleep(time.Second)
		if st := in.Cache().Stats(); st.DirtyEvictWrites == 0 || st.CheckpointWrites == 0 {
			t.Errorf("workload wrote back nothing (evict %d, checkpoint %d): the test exercises no write-back", st.DirtyEvictWrites, st.CheckpointWrites)
		}
		backupIntact("workload and checkpoints")

		o, err := rig.Inj.InjectAndRecover(p, faults.Fault{Kind: faults.DeleteDatafile, Target: target})
		if err != nil {
			return err
		}
		if o.Report.RecordsApplied == 0 {
			t.Error("media recovery applied no record")
		}
		backupIntact("datafile restore and recovery")

		// The second restore, with nothing new in the redo: the same file.
		p.Sleep(2 * time.Second)
		rig.Drv.Quiesce(p)
		if err := in.Checkpoint(p); err != nil {
			return err
		}
		f, err := in.DB().Datafile(target)
		if err != nil {
			return err
		}
		first := imagesHash(f.SnapshotImages())
		if first == taken[target] {
			t.Errorf("%s is what the backup holds: the workload never changed it", target)
		}
		if _, err := rig.Rm.RestoreAndRecoverDatafile(p, target); err != nil {
			return err
		}
		backupIntact("a second restore and recovery")
		if again := imagesHash(f.SnapshotImages()); again != first {
			t.Errorf("second restore of %s yields %#x, the first %#x", target, again, first)
		}

		rig.Drv.Start()
		p.Sleep(4 * time.Second)
		preSCN := in.Log().NextSCN() - 1
		in.Crash()
		crash := faults.Observed(faults.Fault{Kind: faults.ShutdownAbort}, p.Now(), preSCN)
		if err := rig.Inj.Recover(p, crash); err != nil {
			return err
		}
		if rep := crash.Report; rep.RecordsApplied == 0 || rep.LosersRolledBack == 0 {
			t.Errorf("instance recovery applied %d records and rolled back %d transactions: no redo or no undo exercised", rep.RecordsApplied, rep.LosersRolledBack)
		}
		backupIntact("SHUTDOWN ABORT and instance recovery")

		p.Sleep(2 * time.Second)
		rig.Drv.Quiesce(p)
		backupIntact("the tail workload")
		if v, err := rig.App.CheckConsistency(p); err != nil || len(v) != 0 {
			t.Errorf("consistency at the end: %d violations, err %v: %v", len(v), err, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fileHashes is imagesHash per datafile, over the images the files hold now
// (peeked: taking a snapshot would mark them all shared).
func fileHashes(in *engine.Instance) map[string]uint64 {
	out := make(map[string]uint64)
	for _, f := range in.DB().Datafiles() {
		h := fnv.New64a()
		for no := 0; no < f.NumBlocks(); no++ {
			hashImage(h, no, f.PeekBlock(no))
		}
		out[f.Name] = h.Sum64()
	}
	return out
}

// A stand-by is instantiated by installing the primary's generated images,
// not equal ones: after Load and StartCluster the primary's datafiles, the
// reference backup and every stand-by hold the same blocks. So everything that
// changes a block anywhere — the workload, write-backs and checkpoints on the
// primary, continuous redo apply on each stand-by, a promotion's roll-forward
// and rollback — has to leave everyone else's images alone. The backup must
// hash to the load at the end, and the stand-by that was not promoted —
// promoted afterwards, on its own — must come out as a serial recovery of the
// redo prefix it received does on a third copy of the same images (the
// failover differential's oracle).
func TestStandbysShareTheLoadedImagesAndNobodyWritesThrough(t *testing.T) {
	spec := quickConfig().Spec
	spec.Seed = 6
	spec.Recovery.CheckpointTimeout = 2 * time.Second
	spec.CacheBlocks = 48 // far below the working set: evictions write dirty blocks back
	spec.SampleInterval = 0
	rig, err := core.NewRig(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = rig.Exec("standby-share", func(p *sim.Proc) error {
		if err := rig.Load(p); err != nil {
			return err
		}
		in := rig.In
		loaded := fileHashes(in)
		backup := make(map[string][]*storage.Block) // what the reference backup holds
		for _, f := range in.DB().Datafiles() {
			backup[f.Name] = f.SnapshotImages()
		}
		cluster, err := rig.StartCluster(p, 2, standby.ClusterConfig{Mode: standby.ModeSync})
		if err != nil {
			return err
		}
		ref, err := rig.Standby(p, "reference")
		if err != nil {
			return err
		}

		rows := 0
		for _, sb := range slices.Concat(cluster.Standbys(), []*standby.Standby{ref}) {
			if a, b := StateHash(sb.Instance()), StateHash(in); a != b {
				t.Errorf("%s: state hash %#x when instantiated, the primary's %#x", sb.Name(), a, b)
			}
			for _, f := range sb.Instance().DB().Datafiles() {
				for no := 0; no < f.NumBlocks(); no++ {
					img := f.PeekBlock(no)
					if len(img.Rows) == 0 {
						continue
					}
					rows += len(img.Rows)
					if img != backup[f.Name][no] {
						return fmt.Errorf("%s: %s block %d is a copy, not the image the backup holds", sb.Name(), f.Name, no)
					}
					if !img.Shared() {
						return fmt.Errorf("%s: %s block %d is installed unshared: a Put would write through to the backup", sb.Name(), f.Name, no)
					}
				}
			}
		}
		if rows == 0 {
			return fmt.Errorf("the stand-bys hold no rows")
		}
		victim := backup["TPCC_01.dbf"][0]
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Put on an installed image did not panic")
				}
			}()
			victim.Put(1, []byte("x"))
		}()

		// The redo the cluster is offered, captured ahead of the streamers.
		var captured []redo.Record
		stream := in.Log().OnDurable
		in.Log().OnDurable = func(dp *sim.Proc, recs []redo.Record) {
			captured = append(captured, recs...)
			stream(dp, recs)
		}
		rig.Drv.Start()
		p.Sleep(6 * time.Second)
		if err := in.Checkpoint(p); err != nil {
			return err
		}
		p.Sleep(2 * time.Second)
		if st := in.Cache().Stats(); st.DirtyEvictWrites == 0 || st.CheckpointWrites == 0 {
			t.Errorf("workload wrote back nothing (evict %d, checkpoint %d)", st.DirtyEvictWrites, st.CheckpointWrites)
		}
		in.Crash()
		rig.Drv.Stop()
		if _, err := cluster.Promote(p); err != nil {
			return err
		}

		for name, images := range backup {
			if got := imagesHash(images); got != loaded[name] {
				t.Errorf("after workload, crash and promotion: backup images of %s hash %#x, %#x when loaded", name, got, loaded[name])
			}
		}
		var other *standby.Standby
		for _, sb := range cluster.Standbys() {
			if sb != cluster.Promoted() {
				other = sb
			}
		}
		if other.AppliedSCN() <= ref.AppliedSCN() {
			return fmt.Errorf("%s applied nothing past the backup", other.Name())
		}
		if _, err := other.Promote(p); err != nil {
			return err
		}
		var prefix []redo.Record
		for _, rec := range captured {
			if rec.SCN <= other.AppliedSCN() {
				prefix = append(prefix, rec)
			}
		}
		if err := ref.Instance().Mount(p); err != nil {
			return err
		}
		if _, err := recovery.NewManager(ref.Instance(), nil).Failover(p, [][]redo.Record{prefix}, recovery.NewLosers(ref.Instance()), other.AppliedSCN()); err != nil {
			return err
		}
		want, got := fileHashes(ref.Instance()), fileHashes(other.Instance())
		for name := range want {
			if got[name] != want[name] {
				t.Errorf("%s: %s hashes to %#x, a serial recovery of the same %d records to %#x", other.Name(), name, got[name], len(prefix), want[name])
			}
			if want[name] == loaded[name] && name == "TPCC_01.dbf" {
				t.Errorf("%s is what was loaded: the redo prefix changed nothing", name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// heldRows keeps row images as they were handed out: each slice beside a
// deep copy of its bytes when kept.
type heldRows struct{ views, copies [][]byte }

func (h *heldRows) keep(v []byte) {
	if len(v) > 0 {
		h.views = append(h.views, v)
		h.copies = append(h.copies, append([]byte(nil), v...))
	}
}

// changed counts the kept slices whose bytes differ from their copy now.
func (h *heldRows) changed() (n int, first string) {
	for i, v := range h.views {
		if !bytes.Equal(v, h.copies[i]) {
			if n == 0 {
				first = fmt.Sprintf("%q, kept as %q", v, h.copies[i])
			}
			n++
		}
	}
	return n, first
}

// Row images are replaced, never written in place (DESIGN.md §4b), and
// nothing else guards it: the block, the redo record's After, the next
// change's Before, the undo list, recovery's images and the stand-bys' all
// hold the one slice. So keep every reference-backup row and the Before and
// After of every redo record as LGWR makes it durable, each beside a deep
// copy, through TPC-C, a rollback of a durable change, SHUTDOWN ABORT with a
// durable loser and instance recovery on four apply workers, more workload, a
// second crash and the promotion of a sync stand-by that applied the whole
// stream — and no byte may differ at the end.
func TestRowImagesAreNeverWrittenInPlace(t *testing.T) {
	spec := quickConfig().Spec
	spec.Seed = 8
	spec.RecoveryWorkers = 4
	spec.SampleInterval = 0
	rig, err := core.NewRig(spec)
	if err != nil {
		t.Fatal(err)
	}
	var held heldRows
	err = rig.Exec("row-images", func(p *sim.Proc) error {
		if err := rig.Load(p); err != nil {
			return err
		}
		in := rig.In
		// Nothing has changed a block since the reference backup: the
		// files hold its images.
		for _, f := range in.DB().Datafiles() {
			for _, img := range f.SnapshotImages() {
				for _, v := range img.Rows {
					held.keep(v)
				}
			}
		}
		cluster, err := rig.StartCluster(p, 1, standby.ClusterConfig{Mode: standby.ModeSync})
		if err != nil {
			return err
		}
		records := 0
		stream := in.Log().OnDurable
		in.Log().OnDurable = func(dp *sim.Proc, recs []redo.Record) {
			for _, rec := range recs {
				held.keep(rec.Before)
				held.keep(rec.After)
			}
			records += len(recs)
			stream(dp, recs)
		}
		// durableChange updates warehouse 1 in a transaction of its own
		// and waits until the redo log holds the change.
		durableChange := func(value string) (*txn.Txn, error) {
			tx, err := in.Begin()
			if err != nil {
				return nil, err
			}
			if err := in.Update(p, tx, tpcc.TableWarehouse, tpcc.WKey(1), []byte(value)); err != nil {
				return nil, err
			}
			return tx, in.Log().WaitFlushed(p, in.Log().NextSCN()-1)
		}

		rig.Drv.Start()
		p.Sleep(10 * time.Second)
		undone, err := durableChange("rolled back")
		if err != nil {
			return err
		}
		if err := in.Rollback(p, undone); err != nil {
			return err
		}
		if _, err := durableChange("never committed"); err != nil {
			return err
		}
		in.Crash()
		rep, err := rig.Rm.InstanceRecovery(p)
		if err != nil {
			return err
		}
		if rep.RecordsApplied == 0 || rep.LosersRolledBack == 0 {
			t.Errorf("instance recovery applied %d records and rolled back %d transactions: no redo or no undo exercised", rep.RecordsApplied, rep.LosersRolledBack)
		}
		p.Sleep(4 * time.Second)
		in.Crash()
		rig.Drv.Stop()
		if _, err := cluster.Promote(p); err != nil {
			return err
		}
		if records == 0 {
			t.Error("no redo record became durable")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, first := held.changed(); n > 0 {
		t.Errorf("%d of %d kept row images changed in place; the first reads %s", n, len(held.views), first)
	}
}
