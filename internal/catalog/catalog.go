// Package catalog holds the database dictionary: users and tables, and the
// mapping from table rows to physical blocks.
//
// Tables are key-addressed heaps: every row has an int64 row key that
// hashes to one block of the table's segment. The segment's blocks are
// allocated across the datafiles of the owning tablespace at creation
// time. The dictionary itself is treated as durable at DDL commit (DDL is
// logged to redo, and backups snapshot the dictionary), which mirrors the
// SYSTEM tablespace without modelling its physical blocks.
package catalog

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"dbench/internal/storage"
)

// ErrUnknownTable marks lookups of tables absent from the dictionary, so
// callers can distinguish a bad name from a real DDL failure
// (errors.Is).
var ErrUnknownTable = errors.New("catalog: unknown table")

// Table describes one user table and its physical segment.
type Table struct {
	Name       string
	Owner      string
	Tablespace string
	// Cluster is the number of consecutive row keys stored per block
	// before moving to the next one: sequential inserts (orders, order
	// lines, history) land in a hot "right edge" block like a B-tree,
	// which is what gives real databases their cache locality.
	Cluster int
	// PartDiv, when non-zero, makes the table range-partitioned by
	// warehouse: a row with key k belongs to partition k/PartDiv - 1
	// (warehouse numbers are 1-based). Each partition owns its own
	// segment, typically in its own per-warehouse tablespace.
	PartDiv int64
	// Frozen blocks DML against the table while a flashback rewinds it
	// (Oracle locks the table exclusively for FLASHBACK TABLE). Reads
	// and writes fail fast with ErrTableFrozen; other tables are
	// unaffected.
	Frozen bool
	// Quiescing is the milder exclusive-DDL-lock state DROP TABLE holds
	// while in-flight writers drain: new forward DML fails fast with
	// ErrTableFrozen, but rollback compensation still goes through, so
	// aborting transactions can finish cleanly before the DDL record is
	// logged. (Frozen blocks compensation too — a flashback rewind
	// requires the table's dirty set not to grow at all.)
	Quiescing bool

	// blocks is the whole segment (the concatenation of parts for a
	// partitioned table); parts[i] is partition i's slice of it.
	blocks []storage.BlockRef
	parts  [][]storage.BlockRef
}

// Blocks returns the table's block refs (callers must not modify).
func (t *Table) Blocks() []storage.BlockRef { return t.blocks }

// NumBlocks returns the segment size in blocks.
func (t *Table) NumBlocks() int { return len(t.blocks) }

// Partitions returns the number of partitions (1 for an unpartitioned
// table).
func (t *Table) Partitions() int {
	if len(t.parts) == 0 {
		return 1
	}
	return len(t.parts)
}

// partitionOf maps a row key to its partition index (always 0 for an
// unpartitioned table). Out-of-range keys clamp to the edge partitions, so
// a stray key misses its row rather than panicking.
func (t *Table) partitionOf(key int64) int {
	if t.PartDiv <= 0 || len(t.parts) == 0 {
		return 0
	}
	p := int(key/t.PartDiv) - 1
	if p < 0 {
		return 0
	}
	if p >= len(t.parts) {
		return len(t.parts) - 1
	}
	return p
}

// BlockFor maps a row key to its home block.
func (t *Table) BlockFor(key int64) storage.BlockRef { return t.blocks[t.BlockIndex(key)] }

// BlockIndex maps a row key to its home block's position in Blocks(): keys
// are grouped in runs of Cluster consecutive keys, and runs are spread over
// the segment (over the key's partition segment for a partitioned table; all
// partitions are equally long).
func (t *Table) BlockIndex(key int64) int {
	run := uint64(key) / uint64(max(t.Cluster, 1))
	if len(t.parts) == 0 {
		return int(run % uint64(len(t.blocks)))
	}
	n := len(t.parts[0])
	return t.partitionOf(key)*n + int(run%uint64(n))
}

// User is a database account.
type User struct {
	Name    string
	Default string // default tablespace
}

// Catalog is the data dictionary.
type Catalog struct {
	tables map[string]*Table
	users  map[string]*User
}

// New returns an empty dictionary.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		users:  make(map[string]*User),
	}
}

// CreateUser registers a database account.
func (c *Catalog) CreateUser(name, defaultTablespace string) (*User, error) {
	if _, ok := c.users[name]; ok {
		return nil, fmt.Errorf("catalog: user %q exists", name)
	}
	u := &User{Name: name, Default: defaultTablespace}
	c.users[name] = u
	return u, nil
}

// DropUser removes an account and all tables it owns. It returns the names
// of the dropped tables.
func (c *Catalog) DropUser(name string) ([]string, error) {
	if _, ok := c.users[name]; !ok {
		return nil, fmt.Errorf("catalog: unknown user %q", name)
	}
	var dropped []string
	for tname, tbl := range c.tables {
		if tbl.Owner == name {
			dropped = append(dropped, tname)
		}
	}
	sort.Strings(dropped)
	for _, tname := range dropped {
		if err := c.DropTable(tname); err != nil {
			return nil, err
		}
	}
	delete(c.users, name)
	return dropped, nil
}

// User returns the named account.
func (c *Catalog) User(name string) (*User, error) {
	u, ok := c.users[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown user %q", name)
	}
	return u, nil
}

// CreateTableClustered creates an unpartitioned table: one segment of
// numBlocks blocks in ts whose rows are clustered in runs of `cluster`
// consecutive keys per block.
func (c *Catalog) CreateTableClustered(name, owner string, ts *storage.Tablespace, numBlocks, cluster int) (*Table, error) {
	return c.CreateTablePartitioned(name, owner, []*storage.Tablespace{ts}, numBlocks, cluster, 0)
}

// CreateTablePartitioned creates a warehouse-partitioned table: partition
// i (serving keys k with k/partDiv == i+1) gets its own segment of
// blocksPerPart blocks spread round-robin across the datafiles of
// tablespaces[i], and rows within a partition are clustered in runs of
// `cluster` consecutive keys. A zero partDiv over one tablespace is an
// unpartitioned table (CreateTableClustered).
func (c *Catalog) CreateTablePartitioned(name, owner string, tablespaces []*storage.Tablespace, blocksPerPart, cluster int, partDiv int64) (*Table, error) {
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q exists", name)
	}
	if len(tablespaces) == 0 {
		return nil, fmt.Errorf("catalog: table %q needs at least 1 partition", name)
	}
	if blocksPerPart < 1 {
		return nil, fmt.Errorf("catalog: table %q needs at least 1 block per partition", name)
	}
	if partDiv < 0 || partDiv == 0 && len(tablespaces) > 1 {
		return nil, fmt.Errorf("catalog: table %q needs a positive partition divisor", name)
	}
	t := &Table{Name: name, Owner: owner, Tablespace: tablespaces[0].Name, Cluster: cluster, PartDiv: partDiv}
	for _, ts := range tablespaces {
		if len(ts.Files) == 0 {
			return nil, fmt.Errorf("catalog: tablespace %q has no datafiles", ts.Name)
		}
		// A per-file cursor tracks the next free block (segments never
		// share blocks, nor do partitions sharing a datafile).
		start := len(t.blocks)
		perFile := (blocksPerPart + len(ts.Files) - 1) / len(ts.Files)
		for _, f := range ts.Files {
			base := c.allocated(f) + c.pending(t, f)
			for i := 0; i < perFile && len(t.blocks)-start < blocksPerPart; i++ {
				no := base + i
				if no >= f.NumBlocks() {
					return nil, fmt.Errorf("%w: tablespace %q file %q", storage.ErrNoSpace, ts.Name, f.Name)
				}
				t.blocks = append(t.blocks, storage.BlockRef{File: f, No: no})
			}
		}
		if len(t.blocks)-start < blocksPerPart {
			return nil, fmt.Errorf("%w: tablespace %q", storage.ErrNoSpace, ts.Name)
		}
		if partDiv > 0 {
			t.parts = append(t.parts, t.blocks[start:len(t.blocks):len(t.blocks)])
		}
	}
	c.tables[name] = t
	c.stampHeaders(filesOf(t))
	return t, nil
}

// pending counts blocks of f already claimed by the in-construction table
// t (not yet in c.tables), so successive partitions sharing a datafile do
// not overlap.
func (c *Catalog) pending(t *Table, f *storage.Datafile) int {
	n := 0
	for _, ref := range t.blocks {
		if ref.File == f {
			n++
		}
	}
	return n
}

// allocated returns the number of blocks of f already assigned to tables.
func (c *Catalog) allocated(f *storage.Datafile) int {
	n := 0
	for _, t := range c.tables {
		for _, ref := range t.blocks {
			if ref.File == f {
				n++
			}
		}
	}
	return n
}

// DropTable removes a table from the dictionary. The segment's blocks are
// simply released (their content becomes unreachable, as with Oracle's
// DROP TABLE).
func (c *Catalog) DropTable(name string) error {
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	delete(c.tables, name)
	c.stampHeaders(filesOf(t))
	return nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TablesFullyIn returns the names of tables whose every block lives in
// the given tablespace. A partitioned table with one partition in the
// tablespace and the rest elsewhere is NOT included: dropping a
// per-warehouse tablespace must not take the other warehouses' partitions
// with it. (A table's Tablespace attribute does not say this: for a
// partitioned table it names only the first partition's tablespace.)
func (c *Catalog) TablesFullyIn(tablespace string) []string {
	var names []string
	for n, t := range c.tables {
		if len(t.blocks) == 0 {
			continue
		}
		all := true
		for _, ref := range t.blocks {
			if ref.File.Tablespace != tablespace {
				all = false
				break
			}
		}
		if all {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// copyTable deep-copies a table's metadata, including partition bounds
// (backup restore depends on partition segments surviving the round trip;
// block refs still point at the same datafile objects — the physical
// layout is identified by file, not duplicated).
func copyTable(t *Table) *Table {
	ct := &Table{Name: t.Name, Owner: t.Owner, Tablespace: t.Tablespace, Cluster: t.Cluster, PartDiv: t.PartDiv, Frozen: t.Frozen, Quiescing: t.Quiescing}
	ct.blocks = append([]storage.BlockRef(nil), t.blocks...)
	if t.parts != nil {
		ct.parts = make([][]storage.BlockRef, len(t.parts))
		off := 0
		for i, p := range t.parts {
			ct.parts[i] = ct.blocks[off : off+len(p) : off+len(p)]
			off += len(p)
		}
	}
	return ct
}

// Snapshot deep-copies the dictionary.
func (c *Catalog) Snapshot() *Catalog {
	s := New()
	for n, t := range c.tables {
		s.tables[n] = copyTable(t)
	}
	for n, u := range c.users {
		cu := *u
		s.users[n] = &cu
	}
	return s
}

// Restore replaces the dictionary content with the snapshot's, and restamps
// every datafile either dictionary has a segment in: the headers describe
// the restored table set, not the one it replaced.
func (c *Catalog) Restore(snap *Catalog) {
	touched := slices.Collect(maps.Values(c.tables))
	c.tables = make(map[string]*Table, len(snap.tables))
	c.users = make(map[string]*User, len(snap.users))
	for n, t := range snap.tables {
		c.tables[n] = copyTable(t)
		touched = append(touched, c.tables[n])
	}
	for n, u := range snap.users {
		cu := *u
		c.users[n] = &cu
	}
	c.stampHeaders(filesOf(touched...))
}
