package recovery

import (
	"fmt"
	"testing"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/txn"
)

// The tests below hold the second invariant block images stand on
// (DESIGN.md §4b): an image with a second holder is never changed again.

// frozen is what a held image read when it was taken.
type frozen struct {
	img  *storage.Block
	scn  redo.SCN
	rows map[int64]string
}

func freeze(img *storage.Block) frozen {
	f := frozen{img: img, scn: img.SCN, rows: make(map[int64]string, len(img.Rows))}
	for k, v := range img.Rows {
		f.rows[k] = string(v)
	}
	return f
}

func (f frozen) changed() string {
	if f.img.SCN != f.scn || len(f.img.Rows) != len(f.rows) {
		return fmt.Sprintf("SCN %d with %d rows, was SCN %d with %d", f.img.SCN, len(f.img.Rows), f.scn, len(f.rows))
	}
	for k, want := range f.rows {
		if got, ok := f.img.Rows[k]; !ok || string(got) != want {
			return fmt.Sprintf("row %d reads %q, was %q", k, got, want)
		}
	}
	return ""
}

// sharedBlockRig sets up the acct table and returns one of its blocks with
// four keys that live in it: the first three committed and checkpointed,
// the fourth free.
func sharedBlockRig(t *testing.T, p *sim.Proc, r *rig) (ref storage.BlockRef, keys [4]int64) {
	t.Helper()
	if err := r.setup(p); err != nil {
		t.Fatal(err)
	}
	tbl, err := r.in.Catalog().Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	ref = tbl.BlockFor(1)
	n := 0
	for k := int64(1); n < len(keys); k++ {
		if tbl.BlockFor(k) == ref {
			keys[n] = k
			n++
		}
	}
	for _, k := range keys[:3] {
		if err := r.put(p, k, fmt.Sprintf("row %d as loaded", k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.in.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	return ref, keys
}

// A ReadBlock result and a SnapshotImages set are the durable images
// themselves. Whatever happens to the block afterwards — committed and
// rolled-back changes through the cache, write-backs by checkpoint and by
// eviction, redo and undo applied straight to the datafile — each must
// still read what it read when taken, including the ones taken in between.
func TestHeldImagesOutliveEveryChangeToTheirBlock(t *testing.T) {
	r, err := newRigCache(false, 4<<20, 3, 2) // two buffers: the third block read evicts
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		ref, keys := sharedBlockRig(t, p, r)
		in, f := r.in, ref.File
		var held []frozen
		// hold takes the block's image the way one of the three kinds of
		// holder does, in turn — each step meets each kind alone, so that no
		// holder's mark covers for another's missing one.
		hold := func() {
			t.Helper()
			switch blk, resident := in.Cache().Peek(ref); {
			case len(held)%3 == 0:
				img, err := f.ReadBlock(p, ref.No)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, freeze(img))
			case len(held)%3 == 1 && resident:
				// The buffer's image, dirty or not, as a write in
				// progress holds it.
				held = append(held, freeze(blk.Share()))
			default:
				held = append(held, freeze(f.SnapshotImages()[ref.No]))
			}
		}
		step := func(name string, change func() error) {
			t.Helper()
			hold()
			if err := change(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, h := range held {
				if diff := h.changed(); diff != "" {
					t.Fatalf("after %s, held image %d: %s", name, i, diff)
				}
			}
		}
		dml := func(commit bool, change func(tx *txn.Txn) error) func() error {
			return func() error {
				tx, err := in.Begin()
				if err != nil {
					return err
				}
				if err := change(tx); err != nil {
					return err
				}
				if commit {
					return in.Commit(p, tx)
				}
				return in.Rollback(p, tx)
			}
		}
		update := func(k int64, v string) func(tx *txn.Txn) error {
			return func(tx *txn.Txn) error { return in.Update(p, tx, "acct", k, []byte(v)) }
		}
		del := func(k int64) func(tx *txn.Txn) error {
			return func(tx *txn.Txn) error { return in.Delete(p, tx, "acct", k) }
		}
		insert := func(k int64, v string) func(tx *txn.Txn) error {
			return func(tx *txn.Txn) error { return in.Insert(p, tx, "acct", k, []byte(v)) }
		}
		evict := func() error {
			// Reading two other blocks pushes this one out of the
			// two-buffer cache, through the eviction write when dirty.
			for no := ref.No + 1; no <= ref.No+2; no++ {
				if _, err := in.Cache().Get(p, storage.BlockRef{File: f, No: no % f.NumBlocks()}); err != nil {
					return err
				}
			}
			if _, ok := in.Cache().Peek(ref); ok {
				return fmt.Errorf("block %v still resident", ref)
			}
			return nil
		}
		checkpoint := func() error { return in.Checkpoint(p) }

		// Ten steps a round: three rounds pair every step with every holder.
		for _, round := range []string{"on the loaded image", "on a changed image", "on one changed again"} {
			step("an update "+round, dml(true, update(keys[0], "updated "+round)))
			step("a checkpoint write "+round, checkpoint)
			step("a delete "+round, dml(true, del(keys[1])))
			step("an eviction write "+round, evict)
			step("a re-insert "+round, dml(true, insert(keys[1], "back "+round)))
			step("a rolled-back update "+round, dml(false, update(keys[2], "never committed")))
			step("a rolled-back delete "+round, dml(false, del(keys[2])))
			step("a rolled-back insert "+round, dml(false, insert(keys[3], "never committed")))
			step("a second eviction "+round, evict)
			step("an update of the reloaded block "+round, dml(true, update(keys[2], "updated "+round)))
		}

		// Recovery's two image steps, straight on the datafile.
		scn := f.PeekBlock(ref.No).SCN
		redoRec := redo.Record{SCN: scn + 1, Op: redo.OpUpdate, Table: "acct", Key: keys[0], After: []byte("rolled forward")}
		step("ApplyToImage", func() error {
			if !ApplyToImage(&redoRec, ref) {
				return fmt.Errorf("record at SCN %d skipped over an image at SCN %d", redoRec.SCN, scn)
			}
			return nil
		})
		delRec := redo.Record{SCN: scn + 2, Op: redo.OpDelete, Table: "acct", Key: keys[1], Before: []byte("x")}
		step("ApplyToImage of a delete", func() error {
			if !ApplyToImage(&delRec, ref) {
				return fmt.Errorf("delete at SCN %d skipped", delRec.SCN)
			}
			return nil
		})
		step("undoToImage of the delete", func() error { undoToImage(&delRec, ref, scn+3); return nil })
		step("undoToImage of an insert", func() error {
			undoToImage(&redo.Record{Op: redo.OpInsert, Table: "acct", Key: keys[0]}, ref, scn+3)
			return nil
		})
		if got := f.PeekBlock(ref.No); got.SCN != scn+3 || string(got.Rows[keys[1]]) != "x" || got.Rows[keys[0]] != nil {
			t.Errorf("the image steps did not land: SCN %d, rows %q", got.SCN, got.Rows)
		}
		return nil
	})
}

// A record the SCN guard skips copies nothing: the image stays the very one
// the backup holds. The first record that does apply takes the copy, and
// the next one changes that copy in place.
func TestApplyToImageCopiesOnlyWhenItChanges(t *testing.T) {
	r, err := newRig(false, 4<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		ref, keys := sharedBlockRig(t, p, r)
		f := ref.File
		backup := f.SnapshotImages()[ref.No]
		scn := backup.SCN
		for _, old := range []redo.SCN{1, scn} {
			rec := redo.Record{SCN: old, Op: redo.OpUpdate, Table: "acct", Key: keys[0], After: []byte("stale")}
			if ApplyToImage(&rec, ref) {
				t.Errorf("record at SCN %d applied over an image at SCN %d", old, scn)
			}
			if f.PeekBlock(ref.No) != backup {
				t.Fatalf("a skipped record at SCN %d replaced the shared image", old)
			}
		}
		rec := redo.Record{SCN: scn + 1, Op: redo.OpUpdate, Table: "acct", Key: keys[0], After: []byte("new")}
		if !ApplyToImage(&rec, ref) {
			t.Fatalf("record at SCN %d skipped", rec.SCN)
		}
		private := f.PeekBlock(ref.No)
		if private == backup || private.Shared() {
			t.Fatal("an applied record changed the image the backup holds")
		}
		if string(backup.Rows[keys[0]]) == "new" || backup.SCN != scn {
			t.Fatalf("the backup's image reads %q at SCN %d", backup.Rows[keys[0]], backup.SCN)
		}
		rec = redo.Record{SCN: scn + 2, Op: redo.OpDelete, Table: "acct", Key: keys[1]}
		if !ApplyToImage(&rec, ref) || f.PeekBlock(ref.No) != private {
			t.Fatal("a second record copied the image again: one copy per shared image, not per record")
		}
		return nil
	})
}
