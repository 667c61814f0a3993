package catalog

import (
	"errors"
	"testing"
	"time"

	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
)

// scanRig is a storage+catalog fixture with a kernel, for the tests that
// need a sim.Proc (header reads charge block I/O).
type scanRig struct {
	k   *sim.Kernel
	db  *storage.DB
	c   *Catalog
	ts  *storage.Tablespace
	ts2 *storage.Tablespace
}

func newScanRig(t *testing.T) *scanRig {
	t.Helper()
	k := sim.NewKernel(7)
	fs := simdisk.NewFS(simdisk.DefaultSpec("d1"), simdisk.DefaultSpec("d2"))
	db, err := storage.NewDB(fs, "d1")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := db.CreateTablespace("USERS", []string{"d1", "d2"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts2, err := db.CreateTablespace("USERS2", []string{"d2"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	return &scanRig{k: k, db: db, c: New(), ts: ts, ts2: ts2}
}

func (r *scanRig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var runErr error
	r.k.Go("t", func(p *sim.Proc) {
		runErr = fn(p)
	})
	r.k.Run(sim.Time(time.Hour))
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// tableShape captures everything the rebuild must reproduce: identity
// metadata plus the exact block every key routes to.
type tableShape struct {
	owner, tablespace string
	numBlocks         int
	routes            map[int64]string
}

func shapeOf(tbl *Table, keys []int64) tableShape {
	s := tableShape{owner: tbl.Owner, tablespace: tbl.Tablespace, numBlocks: tbl.NumBlocks(),
		routes: make(map[int64]string, len(keys))}
	for _, k := range keys {
		ref := tbl.BlockFor(k)
		s.routes[k] = ref.String()
	}
	return s
}

func sampleKeys(partDiv int64, parts int) []int64 {
	var keys []int64
	for p := int64(1); p <= int64(parts); p++ {
		for i := int64(0); i < 40; i++ {
			keys = append(keys, p*partDiv+i)
		}
	}
	return keys
}

// TestRebuildFromHeadersRoundTrip destroys the dictionary and rebuilds it
// from the datafile headers: every table — clustered and partitioned —
// must come back with identical metadata and identical key-to-block
// routing, and every owner must be re-registered.
func TestRebuildFromHeadersRoundTrip(t *testing.T) {
	r := newScanRig(t)
	if _, err := r.c.CreateTableClustered("orders", "app", r.ts, 6, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.CreateTablePartitioned("stock", "app", []*storage.Tablespace{r.ts, r.ts2}, 4, 2, 1000); err != nil {
		t.Fatal(err)
	}
	flatKeys := []int64{0, 1, 2, 17, 99, 1 << 40}
	partKeys := sampleKeys(1000, 2)
	before := map[string]tableShape{
		"orders": shapeOf(mustTable(t, r.c, "orders"), flatKeys),
		"stock":  shapeOf(mustTable(t, r.c, "stock"), partKeys),
	}

	r.c.Wipe()
	if _, err := r.c.Table("orders"); err == nil {
		t.Fatal("wipe left the dictionary intact")
	}

	r.run(t, func(p *sim.Proc) error {
		names, err := r.c.RebuildFromHeaders(p, r.db)
		if err != nil {
			return err
		}
		if len(names) != 2 || names[0] != "orders" || names[1] != "stock" {
			t.Errorf("rebuilt tables = %v, want [orders stock]", names)
		}
		return nil
	})

	after := map[string]tableShape{
		"orders": shapeOf(mustTable(t, r.c, "orders"), flatKeys),
		"stock":  shapeOf(mustTable(t, r.c, "stock"), partKeys),
	}
	for name, b := range before {
		a := after[name]
		if a.owner != b.owner || a.tablespace != b.tablespace || a.numBlocks != b.numBlocks {
			t.Errorf("%s: metadata %q/%q/%d, want %q/%q/%d",
				name, a.owner, a.tablespace, a.numBlocks, b.owner, b.tablespace, b.numBlocks)
		}
		for k, want := range b.routes {
			if got := a.routes[k]; got != want {
				t.Errorf("%s: key %d routes to %s, want %s", name, k, got, want)
			}
		}
	}
	if _, err := r.c.User("app"); err != nil {
		t.Errorf("owner not re-registered: %v", err)
	}
}

// TestRebuildFromHeadersRejectsCorruptHeader is the negative: a header
// damaged past recognition must fail the scan with ErrCorruptHeader, not
// silently drop or invent tables.
func TestRebuildFromHeadersRejectsCorruptHeader(t *testing.T) {
	r := newScanRig(t)
	if _, err := r.c.CreateTableClustered("t1", "app", r.ts, 4, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the header of a file that hosts t1's segment.
	var victim *storage.Datafile
	for _, f := range filesOf(mustTable(t, r.c, "t1")) {
		victim = f
		break
	}
	if victim == nil {
		t.Fatal("t1 has no files")
	}
	victim.CorruptHeader()
	r.c.Wipe()
	r.run(t, func(p *sim.Proc) error {
		if _, err := r.c.RebuildFromHeaders(p, r.db); !errors.Is(err, ErrCorruptHeader) {
			t.Errorf("rebuild err = %v, want ErrCorruptHeader", err)
		}
		return nil
	})
}

// TestRebuildSkipsFilesWithoutSegments: a datafile that never hosted a
// segment has no header; the scan must skip it rather than fail.
func TestRebuildSkipsFilesWithoutSegments(t *testing.T) {
	r := newScanRig(t)
	// Only ts (d1+d2) hosts a table; ts2's file d2 shares the disk but
	// USERS2_01.dbf itself has no segments and so no header.
	if _, err := r.c.CreateTableClustered("t1", "app", r.ts, 2, 1); err != nil {
		t.Fatal(err)
	}
	r.c.Wipe()
	r.run(t, func(p *sim.Proc) error {
		names, err := r.c.RebuildFromHeaders(p, r.db)
		if err != nil {
			return err
		}
		if len(names) != 1 || names[0] != "t1" {
			t.Errorf("rebuilt %v, want [t1]", names)
		}
		return nil
	})
}

// rebuilt wipes the dictionary and returns the tables a header scan finds.
func (r *scanRig) rebuilt(t *testing.T) []string {
	t.Helper()
	r.c.Wipe()
	var names []string
	r.run(t, func(p *sim.Proc) (err error) {
		names, err = r.c.RebuildFromHeaders(p, r.db)
		return err
	})
	return names
}

// DROP USER ... CASCADE takes the user's tables out of the headers too: a
// header scan after it must not resurrect them.
func TestDropUserRestampsHeaders(t *testing.T) {
	r := newScanRig(t)
	if _, err := r.c.CreateTableClustered("t1", "app", r.ts, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.CreateTableClustered("t2", "other", r.ts, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.CreateUser("app", "USERS"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.DropUser("app"); err != nil {
		t.Fatal(err)
	}
	if names := r.rebuilt(t); len(names) != 1 || names[0] != "t2" {
		t.Errorf("rebuilt %v after DROP USER app, want [t2]", names)
	}
}

// Restoring a dictionary snapshot (point-in-time recovery) restamps every
// file either dictionary touches: the header scan afterwards finds the
// table the snapshot brings back and not the one created after it.
func TestRestoreRestampsHeaders(t *testing.T) {
	r := newScanRig(t)
	if _, err := r.c.CreateTableClustered("t1", "app", r.ts, 4, 1); err != nil {
		t.Fatal(err)
	}
	snap := r.c.Snapshot()
	if err := r.c.DropTable("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.CreateTableClustered("t2", "app", r.ts2, 4, 1); err != nil {
		t.Fatal(err)
	}
	r.c.Restore(snap)
	if names := r.rebuilt(t); len(names) != 1 || names[0] != "t1" {
		t.Errorf("rebuilt %v after restoring the snapshot, want [t1]", names)
	}
}

func mustTable(t *testing.T, c *Catalog, name string) *Table {
	t.Helper()
	tbl, err := c.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
