package txn

import (
	"bytes"
	"runtime"
	"testing"

	"dbench/internal/redo"
	"dbench/internal/sim"
)

// The tests below hold the invariant Read's views, shared block images
// (Block.Clone copies the row index, not the rows) and write's sharing of
// the caller's value and the replaced row stand on (DESIGN.md §4b): a row
// image is replaced, never written in place.

// Keys 1 and 9 share a block of the fixture's 8-block table.
const rowA, rowB int64 = 1, 9

// seedRows commits the two rows and returns their values.
func seedRows(t *testing.T, f *fixture, p *sim.Proc) (a, b []byte) {
	t.Helper()
	a, b = []byte("row A, first image"), []byte("row B, first image")
	tx := f.m.Begin()
	if err := f.m.Insert(p, tx, "acct", rowA, a); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Insert(p, tx, "acct", rowB, b); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Commit(p, tx); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// reload writes the cache back, empties it and lays the table's durable
// images out as the load does — rows cut from one buffer, each capped at its
// own length (what a miss's deep copy produced by itself until PR 19) —
// so the next Get installs such an image, shared with the datafile, which
// the next change has to clone.
func reload(t *testing.T, f *fixture, p *sim.Proc) {
	t.Helper()
	if _, err := f.c.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	f.c.InvalidateAll()
	tbl, err := f.cat.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range tbl.Blocks() {
		img := ref.File.EditBlock(ref.No)
		n := 0
		for _, v := range img.Rows {
			n += len(v)
		}
		buf := make([]byte, 0, n)
		for k, v := range img.Rows {
			buf = append(buf, v...)
			img.Put(k, buf[len(buf)-len(v):len(buf):len(buf)])
		}
	}
}

func mustRead(t *testing.T, f *fixture, p *sim.Proc, key int64) []byte {
	t.Helper()
	tx := f.m.Begin()
	v, err := f.m.Read(p, tx, "acct", key)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.m.Commit(p, tx); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestReadViewSurvivesEveryChangeToItsRow(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		seedRows(t, f, p)
		type held struct {
			when       string
			view, want []byte
		}
		var views []held
		// step takes a view of the row before the change and (unless it
		// was a delete) after it, finishes the transaction, and checks every
		// view taken so far against what it read when taken.
		step := func(name string, change func(tx *Txn) error, finish func(*sim.Proc, *Txn) error) {
			t.Helper()
			tx := f.m.Begin()
			v, err := f.m.Read(p, tx, "acct", rowA)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			views = append(views, held{"before " + name, v, append([]byte(nil), v...)})
			if err := change(tx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v, err := f.m.Read(p, tx, "acct", rowA); err == nil {
				views = append(views, held{"inside " + name, v, append([]byte(nil), v...)})
			}
			if err := finish(p, tx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, h := range views {
				if !bytes.Equal(h.view, h.want) {
					t.Fatalf("the view taken %s reads %q after %s, want %q", h.when, h.view, name, h.want)
				}
			}
		}
		update := func(value string) func(*Txn) error {
			return func(tx *Txn) error { return f.m.Update(p, tx, "acct", rowA, []byte(value)) }
		}
		del := func(tx *Txn) error { return f.m.Delete(p, tx, "acct", rowA) }
		evict := func(*Txn) error { reload(t, f, p); return nil }

		// Shorter, longer and equal-length images, on a block as written
		// and on a reloaded one (rows packed into one buffer).
		for _, round := range []string{"as written", "reloaded"} {
			step("a shorter update, "+round, update("short"), f.m.Commit)
			step("an equal update, "+round, update("SHORT"), f.m.Commit)
			step("a longer update, "+round, update("a longer image than before"), f.m.Commit)
			step("a rolled-back update, "+round, update("never committed, and longer than every other image"), f.m.Rollback)
			step("a rolled-back delete, "+round, del, f.m.Rollback)
			step("eviction, "+round, evict, f.m.Commit)
		}
		step("a shorter update of the reloaded block", update("tiny"), f.m.Commit)
		step("delete", del, f.m.Commit)
	})
}

func TestAppendToReadViewLeavesTheNeighbourAlone(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		a, b := seedRows(t, f, p)
		// A written row owns its buffer, spare capacity included: two
		// views that could append into that spare room would overwrite
		// each other.
		v1, v2 := mustRead(t, f, p, rowA), mustRead(t, f, p, rowA)
		if x, y := append(v1, 'x'), append(v2, 'y'); x[len(a)] != 'x' || y[len(a)] != 'y' {
			t.Fatalf("two views of one row appended into the same bytes: %q, %q", x, y)
		}
		reload(t, f, p)
		// In the reloaded block one of the two rows is followed by the other
		// in the one buffer; which one is up to map order, so grow both.
		for _, key := range []int64{rowA, rowB} {
			v := mustRead(t, f, p, key)
			if cap(v) != len(v) {
				t.Fatalf("Read(%d): cap %d over len %d reaches into the block's buffer", key, cap(v), len(v))
			}
			_ = append(v, "overwrites whatever follows"...)
		}
		if got := mustRead(t, f, p, rowA); !bytes.Equal(got, a) {
			t.Fatalf("row A = %q after appending to row B's view, want %q", got, a)
		}
		if got := mustRead(t, f, p, rowB); !bytes.Equal(got, b) {
			t.Fatalf("row B = %q after appending to row A's view, want %q", got, b)
		}
	})
}

// Update takes the caller's slice: the block stores it and the redo record
// carries it as After, both capped at its length, and the record's Before —
// the undo list's and the redo log's alike — is the row it replaced, the
// very bytes the block held, even one cut from a reloaded block's buffer.
// Nothing is copied; rollback puts those bytes back.
func TestUpdateSharesTheCallersSliceAndTheReplacedRow(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		first, _ := seedRows(t, f, p)
		reload(t, f, p)
		stored := mustRead(t, f, p, rowA) // aliases the image in the reloaded block
		same := func(a, b []byte) bool { return len(a) == len(b) && &a[0] == &b[0] }

		value := make([]byte, len("second image"), 64)
		copy(value, "second image")
		tx := f.m.Begin()
		if err := f.m.Update(p, tx, "acct", rowA, value); err != nil {
			t.Fatal(err)
		}
		got, err := f.m.Read(p, tx, "acct", rowA)
		if err != nil || !same(got, value) || cap(got) != len(value) {
			t.Fatalf("row A reads %q (cap %d), %v: want the caller's slice, capped at %d", got, cap(got), err, len(value))
		}
		u := tx.undo[0]
		if !same(u.After, value) || cap(u.After) != len(value) {
			t.Fatalf("undo After %q (cap %d) is not the caller's slice capped", u.After, cap(u.After))
		}
		if !same(u.Before, stored) || cap(u.Before) != len(stored) || !bytes.Equal(u.Before, first) {
			t.Fatalf("undo Before %q (cap %d) is not the replaced stored row %q", u.Before, cap(u.Before), first)
		}
		if err := f.m.Rollback(p, tx); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(t, f, p, rowA); !same(got, stored) {
			t.Fatalf("row A reads %q after rollback, not the row the update replaced", got)
		}

		// Committed, the same two slices are what the redo log holds.
		tx = f.m.Begin()
		if err := f.m.Update(p, tx, "acct", rowA, value); err != nil {
			t.Fatal(err)
		}
		if err := f.m.Commit(p, tx); err != nil {
			t.Fatal(err)
		}
		var rec *redo.Record
		pieces, _ := f.log.OnlinePieces(0)
		for _, pc := range pieces {
			for i := range pc {
				if pc[i].Txn == tx.ID && pc[i].Key == rowA {
					rec = &pc[i]
				}
			}
		}
		if rec == nil {
			t.Fatal("no redo record for the update of row A")
		}
		if !same(rec.Before, stored) || !same(rec.After, value) {
			t.Fatalf("the redo record carries copies: %q -> %q", rec.Before, rec.After)
		}
	})
}

// An Update of an existing row allocates no row bytes: the value the caller
// hands over is the stored row and the record's After, and the row it
// replaces the record's Before. A copy of either, of a 16 KiB value, would
// show as 16 KiB per update; what is left is the bookkeeping (the redo
// buffer and the undo list growing), well under a quarter of that.
func TestUpdateAllocatesNoRowBytes(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	f.run(func(p *sim.Proc) {
		seedRows(t, f, p)
		value := bytes.Repeat([]byte("v"), 16<<10)
		tx := f.m.Begin()
		update := func() {
			if err := f.m.Update(p, tx, "acct", rowA, value); err != nil {
				t.Fatal(err)
			}
		}
		update() // the lock, the cached block's private copy, the first undo slot
		const n = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			update()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= uint64(len(value))/4 {
			t.Errorf("an update of a %d-byte row allocates %d bytes", len(value), per)
		}
		if err := f.m.Commit(p, tx); err != nil {
			t.Fatal(err)
		}
	})
}
