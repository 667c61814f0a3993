package txn

import (
	"errors"
	"testing"

	"dbench/internal/catalog"
	"dbench/internal/sim"
)

// TestActiveWritersOnCountsOnlyWritersOfThatTable: the probe DROP
// TABLE's exclusive DDL lock drains on must see writers of the target
// table only — read-only transactions and writers of other tables do
// not block a drop.
func TestActiveWritersOnCountsOnlyWritersOfThatTable(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	ts, err := f.db.Tablespace("USERS")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.cat.CreateTableClustered("other", "bank", ts, 8, 1); err != nil {
		t.Fatal(err)
	}
	f.run(func(p *sim.Proc) {
		writer := f.m.Begin()
		if err := f.m.Insert(p, writer, "acct", 1, []byte("w")); err != nil {
			t.Fatal(err)
		}
		elsewhere := f.m.Begin()
		if err := f.m.Insert(p, elsewhere, "other", 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		setup := f.m.Begin()
		if err := f.m.Insert(p, setup, "acct", 9, []byte("r")); err != nil {
			t.Fatal(err)
		}
		if err := f.m.Commit(p, setup); err != nil {
			t.Fatal(err)
		}
		reader := f.m.Begin()
		if _, err := f.m.ReadForUpdate(p, reader, "acct", 9); err != nil {
			t.Fatal(err)
		}
		if n := f.m.ActiveWritersOn("acct"); n != 1 {
			t.Fatalf("ActiveWritersOn(acct) = %d, want 1", n)
		}
		if n := f.m.ActiveWritersOn("other"); n != 1 {
			t.Fatalf("ActiveWritersOn(other) = %d, want 1", n)
		}
		if err := f.m.Commit(p, writer); err != nil {
			t.Fatal(err)
		}
		if err := f.m.Rollback(p, elsewhere); err != nil {
			t.Fatal(err)
		}
		if n := f.m.ActiveWritersOn("acct"); n != 0 {
			t.Fatalf("ActiveWritersOn(acct) after commit = %d, want 0", n)
		}
		if n := f.m.ActiveWritersOn("other"); n != 0 {
			t.Fatalf("ActiveWritersOn(other) after rollback = %d, want 0", n)
		}
		_ = f.m.Commit(p, reader)
	})
}

// TestQuiescingBlocksNewDMLButAllowsRollback pins the two-level freeze:
// Quiescing (the DROP drain) rejects forward DML with ErrTableFrozen
// yet lets an aborting transaction compensate its earlier writes, while
// Frozen (a flashback rewind in progress) blocks the compensation too.
func TestQuiescingBlocksNewDMLButAllowsRollback(t *testing.T) {
	f := newFixture(t)
	defer f.shutdown()
	tbl, err := f.cat.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	f.run(func(p *sim.Proc) {
		tx := f.m.Begin()
		if err := f.m.Insert(p, tx, "acct", 1, []byte("pre")); err != nil {
			t.Fatal(err)
		}
		tbl.Quiescing = true
		if err := f.m.Insert(p, tx, "acct", 2, []byte("new")); !errors.Is(err, catalog.ErrTableFrozen) {
			t.Fatalf("insert while quiescing: %v, want ErrTableFrozen", err)
		}
		// Rollback still goes through: the compensation is what lets the
		// drain converge.
		if err := f.m.Rollback(p, tx); err != nil {
			t.Fatalf("rollback while quiescing: %v", err)
		}
		tbl.Quiescing = false

		tx2 := f.m.Begin()
		if err := f.m.Insert(p, tx2, "acct", 3, []byte("pre")); err != nil {
			t.Fatal(err)
		}
		tbl.Frozen = true
		if err := f.m.Rollback(p, tx2); err == nil {
			t.Fatal("rollback succeeded against a hard-frozen table")
		}
		tbl.Frozen = false
		f.m.MarkZombie(tx2)
		if n := f.m.RollbackZombies(p); n != 1 {
			t.Fatalf("zombie sweep cleaned %d, want 1", n)
		}
	})
}
