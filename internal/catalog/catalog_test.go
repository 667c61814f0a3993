package catalog

import (
	"errors"
	"testing"
	"testing/quick"

	"dbench/internal/simdisk"
	"dbench/internal/storage"
)

func newTS(t *testing.T, files, blocksPerFile int) *storage.Tablespace {
	t.Helper()
	specs := []simdisk.DiskSpec{simdisk.DefaultSpec("d1"), simdisk.DefaultSpec("d2")}
	fs := simdisk.NewFS(specs...)
	db, err := storage.NewDB(fs, "d1")
	if err != nil {
		t.Fatal(err)
	}
	disks := []string{"d1", "d2"}[:files]
	ts, err := db.CreateTablespace("USERS", disks, blocksPerFile)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestCreateTableAllocatesAcrossFiles(t *testing.T) {
	ts := newTS(t, 2, 10)
	c := New()
	tbl, err := c.CreateTableClustered("t1", "tpcc", ts, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumBlocks() != 6 {
		t.Fatalf("blocks = %d", tbl.NumBlocks())
	}
	perFile := map[string]int{}
	for _, ref := range tbl.Blocks() {
		perFile[ref.File.Name]++
	}
	if len(perFile) != 2 {
		t.Fatalf("allocation used %d files, want 2", len(perFile))
	}
}

func TestCreateTableNoOverlapBetweenTables(t *testing.T) {
	ts := newTS(t, 1, 10)
	c := New()
	t1, _ := c.CreateTableClustered("t1", "u", ts, 4, 1)
	t2, err := c.CreateTableClustered("t2", "u", ts, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ref := range append(append([]storage.BlockRef{}, t1.Blocks()...), t2.Blocks()...) {
		k := ref.String()
		if seen[k] {
			t.Fatalf("block %s allocated twice", k)
		}
		seen[k] = true
	}
}

func TestCreateTableOutOfSpace(t *testing.T) {
	ts := newTS(t, 1, 4)
	c := New()
	if _, err := c.CreateTableClustered("t1", "u", ts, 5, 1); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// Exactly filling works.
	if _, err := c.CreateTableClustered("t2", "u", ts, 4, 1); err != nil {
		t.Fatal(err)
	}
	// And then nothing more fits.
	if _, err := c.CreateTableClustered("t3", "u", ts, 1, 1); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestBlockForIsStableAndInRange(t *testing.T) {
	ts := newTS(t, 2, 10)
	c := New()
	tbl, _ := c.CreateTableClustered("t", "u", ts, 7, 1)
	for key := int64(-5); key < 100; key++ {
		a := tbl.BlockFor(key)
		b := tbl.BlockFor(key)
		if a != b {
			t.Fatalf("BlockFor(%d) unstable", key)
		}
	}
}

func TestDropTable(t *testing.T) {
	ts := newTS(t, 1, 8)
	c := New()
	_, _ = c.CreateTableClustered("t", "u", ts, 2, 1)
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("t"); err == nil {
		t.Fatal("dropped table still visible")
	}
	if err := c.DropTable("t"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

func TestUsersAndDropUserCascades(t *testing.T) {
	ts := newTS(t, 1, 10)
	c := New()
	if _, err := c.CreateUser("tpcc", "USERS"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateUser("tpcc", "USERS"); err == nil {
		t.Fatal("duplicate user accepted")
	}
	_, _ = c.CreateTableClustered("a", "tpcc", ts, 1, 1)
	_, _ = c.CreateTableClustered("b", "tpcc", ts, 1, 1)
	_, _ = c.CreateTableClustered("x", "other", ts, 1, 1)
	dropped, err := c.DropUser("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 2 || dropped[0] != "a" || dropped[1] != "b" {
		t.Fatalf("dropped = %v", dropped)
	}
	if _, err := c.Table("x"); err != nil {
		t.Fatal("other user's table dropped")
	}
	if _, err := c.User("tpcc"); err == nil {
		t.Fatal("user still exists")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ts := newTS(t, 1, 10)
	c := New()
	_, _ = c.CreateUser("u", "USERS")
	_, _ = c.CreateTableClustered("t1", "u", ts, 2, 1)
	snap := c.Snapshot()

	// Mutate after snapshot.
	_ = c.DropTable("t1")
	_, _ = c.CreateTableClustered("t2", "u", ts, 2, 1)

	c.Restore(snap)
	if _, err := c.Table("t1"); err != nil {
		t.Fatal("t1 missing after restore")
	}
	if _, err := c.Table("t2"); err == nil {
		t.Fatal("t2 present after restore")
	}
	if _, err := c.User("u"); err != nil {
		t.Fatal("user missing after restore")
	}
	// Snapshot must be independent of later changes to the catalog.
	_ = c.DropTable("t1")
	if _, err := snap.Table("t1"); err != nil {
		t.Fatal("snapshot mutated by restore-then-drop")
	}
}

// Property: BlockFor always returns one of the table's own blocks.
func TestQuickBlockForInSegment(t *testing.T) {
	ts := newTS(t, 2, 64)
	c := New()
	tbl, err := c.CreateTableClustered("t", "u", ts, 33, 1)
	if err != nil {
		t.Fatal(err)
	}
	own := make(map[string]bool)
	for _, ref := range tbl.Blocks() {
		own[ref.String()] = true
	}
	f := func(key int64) bool {
		return own[tbl.BlockFor(key).String()]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
