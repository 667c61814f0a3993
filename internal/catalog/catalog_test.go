package catalog

import (
	"errors"
	"fmt"
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

// TestBlockIndexMatchesBlockFor: a key's position in Blocks() names the block
// BlockFor gives, on an unpartitioned table and on a W=3 partitioned one, for
// keys in every partition and keys the clamp sends to the edge partitions;
// and BlockFor still gives the blocks it gave before it was written in terms
// of BlockIndex (recorded at the parent commit, 38fe872).
func TestBlockIndexMatchesBlockFor(t *testing.T) {
	fs := simdisk.NewFS(simdisk.DefaultSpec("d1"), simdisk.DefaultSpec("d2"))
	db, err := storage.NewDB(fs, "d1")
	if err != nil {
		t.Fatal(err)
	}
	var tss []*storage.Tablespace
	for i, disks := range [][]string{{"d1", "d2"}, {"d1", "d2"}, {"d2"}, {"d1"}} {
		ts, err := db.CreateTablespace(fmt.Sprintf("TS%d", i), disks, 16)
		if err != nil {
			t.Fatal(err)
		}
		tss = append(tss, ts)
	}
	c := New()
	flat, err := c.CreateTableClustered("flat", "u", tss[0], 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := c.CreateTablePartitioned("part", "u", tss[1:], 5, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tbl  *Table
		keys []int64
		want []string
	}{
		{flat, []int64{-5, 0, 1, 2, 3, 20, 21, 1 << 40}, []string{
			"TS0_01.dbf#3", "TS0_01.dbf#0", "TS0_01.dbf#0", "TS0_01.dbf#0", "TS0_01.dbf#1", "TS0_02.dbf#2", "TS0_01.dbf#0", "TS0_02.dbf#1",
		}},
		// Below 100 and from 400 on, the clamp sends a key to the first or
		// the last partition.
		{part, []int64{-7, 0, 42, 99, 100, 103, 104, 150, 199, 200, 257, 300, 321, 399, 400, 401, 555, 1 << 40}, []string{
			"TS1_01.dbf#2", "TS1_01.dbf#0", "TS1_01.dbf#0", "TS1_02.dbf#1", "TS1_01.dbf#0", "TS1_01.dbf#0", "TS1_01.dbf#1", "TS1_01.dbf#2", "TS1_02.dbf#1",
			"TS2_01.dbf#0", "TS2_01.dbf#4", "TS3_01.dbf#0", "TS3_01.dbf#0", "TS3_01.dbf#4", "TS3_01.dbf#0", "TS3_01.dbf#0", "TS3_01.dbf#3", "TS3_01.dbf#4",
		}},
	}
	for _, tc := range cases {
		for i, k := range tc.keys {
			ref := tc.tbl.BlockFor(k)
			if got := tc.tbl.Blocks()[tc.tbl.BlockIndex(k)]; got != ref {
				t.Errorf("%s: key %d: Blocks()[BlockIndex] is %s, BlockFor %s", tc.tbl.Name, k, got, ref)
			}
			if ref.String() != tc.want[i] {
				t.Errorf("%s: key %d: BlockFor is %s, was %s", tc.tbl.Name, k, ref, tc.want[i])
			}
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
