package catalog

// This file is the logical-metadata bridge between the dictionary and
// the redo stream / datafile headers. The catalog can describe any table
// as a redo.TableDescriptor (logged with DROP/TRUNCATE so FLASHBACK
// TABLE can resurrect the entry), re-create a table from such a
// descriptor, and rebuild the whole dictionary by scanning datafile
// headers (`recover --scan`) after a catalog-destroying operator fault.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// ErrTableFrozen reports DML against a table locked by an in-progress
// flashback.
var ErrTableFrozen = errors.New("catalog: table frozen by flashback")

// ErrCorruptHeader reports a datafile header damaged past recognition.
var ErrCorruptHeader = errors.New("catalog: corrupt datafile header")

// filesOf returns the distinct datafiles hosting the tables' segments.
func filesOf(tables ...*Table) []*storage.Datafile {
	var out []*storage.Datafile
	seen := make(map[*storage.Datafile]bool)
	for _, t := range tables {
		for _, ref := range t.blocks {
			if !seen[ref.File] {
				seen[ref.File] = true
				out = append(out, ref.File)
			}
		}
	}
	return out
}

// Descriptor returns t's logical identity: enough metadata to re-create
// the same catalog entry over the same on-disk blocks. Extents are
// maximal runs of consecutive blocks per file, ordered by their position
// in the (partition) block list.
func (t *Table) Descriptor() *redo.TableDescriptor {
	d := &redo.TableDescriptor{
		Name:       t.Name,
		Owner:      t.Owner,
		Tablespace: t.Tablespace,
		Cluster:    int64(t.Cluster),
		PartDiv:    t.PartDiv,
	}
	segs := [][]storage.BlockRef{t.blocks}
	if len(t.parts) > 0 {
		segs = t.parts
	}
	for pi, seg := range segs {
		part := int32(pi)
		if len(t.parts) == 0 {
			part = -1
		}
		idx := int32(0)
		for i := 0; i < len(seg); {
			e := redo.Extent{File: seg[i].File.Name, Part: part, Index: idx, Nos: []uint32{uint32(seg[i].No)}}
			j := i + 1
			for ; j < len(seg) && seg[j].File == seg[i].File && seg[j].No == seg[j-1].No+1; j++ {
				e.Nos = append(e.Nos, uint32(seg[j].No))
			}
			d.Extents = append(d.Extents, e)
			idx++
			i = j
		}
	}
	return d
}

// CreateTableFromDescriptor re-creates a table from its logical
// descriptor, resolving datafiles through db. This is how FLASHBACK
// TABLE resurrects a dropped table's catalog entry from the redo stream:
// the new entry points at exactly the blocks the old one owned, where
// the row data still sits.
func (c *Catalog) CreateTableFromDescriptor(d *redo.TableDescriptor, db *storage.DB) (*Table, error) {
	if _, ok := c.tables[d.Name]; ok {
		return nil, fmt.Errorf("catalog: table %q exists", d.Name)
	}
	t, err := buildTable(d, db)
	if err != nil {
		return nil, err
	}
	c.tables[d.Name] = t
	c.stampHeaders(filesOf(t))
	return t, nil
}

// buildTable assembles a Table from a descriptor's extents.
func buildTable(d *redo.TableDescriptor, db *storage.DB) (*Table, error) {
	t := &Table{Name: d.Name, Owner: d.Owner, Tablespace: d.Tablespace, Cluster: int(d.Cluster), PartDiv: d.PartDiv}
	exts := append([]redo.Extent(nil), d.Extents...)
	sort.Slice(exts, func(i, j int) bool {
		if exts[i].Part != exts[j].Part {
			return exts[i].Part < exts[j].Part
		}
		return exts[i].Index < exts[j].Index
	})
	partitioned := len(exts) > 0 && exts[0].Part >= 0
	files := make(map[string]*storage.Datafile)
	partStart := 0
	curPart := int32(0)
	closePart := func() {
		t.parts = append(t.parts, t.blocks[partStart:len(t.blocks):len(t.blocks)])
		partStart = len(t.blocks)
	}
	for _, e := range exts {
		if partitioned != (e.Part >= 0) {
			return nil, fmt.Errorf("catalog: descriptor %q mixes partitioned and unpartitioned extents", d.Name)
		}
		if partitioned {
			for curPart < e.Part {
				closePart()
				curPart++
			}
		}
		f, ok := files[e.File]
		if !ok {
			var err error
			if f, err = db.Datafile(e.File); err != nil {
				return nil, fmt.Errorf("catalog: descriptor %q: %w", d.Name, err)
			}
			files[e.File] = f
		}
		for _, no := range e.Nos {
			if int(no) >= f.NumBlocks() {
				return nil, fmt.Errorf("catalog: descriptor %q: block %d out of range in %s", d.Name, no, e.File)
			}
			t.blocks = append(t.blocks, storage.BlockRef{File: f, No: int(no)})
		}
	}
	if partitioned {
		closePart()
	}
	if len(t.blocks) == 0 {
		return nil, fmt.Errorf("catalog: descriptor %q has no blocks", d.Name)
	}
	return t, nil
}

// Datafile header codec: each file's header holds the descriptors of the
// segments it hosts (each reduced to its local extents), so the union of
// all headers reconstructs the dictionary.

var headerMagic = [4]byte{'D', 'B', 'H', '1'}

// encodeHeader serialises a set of per-file descriptors.
func encodeHeader(descs []*redo.TableDescriptor) []byte {
	buf := append([]byte(nil), headerMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(descs)))
	for _, d := range descs {
		enc := redo.EncodeTableDescriptor(d)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(enc)))
		buf = append(buf, enc...)
	}
	return buf
}

// decodeHeader parses a header blob, failing with ErrCorruptHeader on
// anything malformed.
func decodeHeader(b []byte) ([]*redo.TableDescriptor, error) {
	if len(b) < 8 || [4]byte(b[:4]) != headerMagic {
		return nil, ErrCorruptHeader
	}
	n := int(binary.BigEndian.Uint32(b[4:]))
	if n > 1<<16 {
		return nil, fmt.Errorf("%w: %d segments", ErrCorruptHeader, n)
	}
	i := 8
	out := make([]*redo.TableDescriptor, 0, n)
	for range n {
		if len(b) < i+4 {
			return nil, ErrCorruptHeader
		}
		l := int(binary.BigEndian.Uint32(b[i:]))
		i += 4
		if l < 0 || len(b) < i+l {
			return nil, ErrCorruptHeader
		}
		d, err := redo.DecodeTableDescriptor(b[i : i+l])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptHeader, err)
		}
		i += l
		out = append(out, d)
	}
	if i != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptHeader, len(b)-i)
	}
	return out, nil
}

// stampHeaders rewrites the metadata header of each given file to the
// current dictionary state: for every table with blocks in the file, the
// table's descriptor restricted to that file's extents. Every change to the
// table set calls it for the files the change touches.
func (c *Catalog) stampHeaders(files []*storage.Datafile) {
	tables := c.Tables()
	full := make([]*redo.TableDescriptor, len(tables))
	for i, t := range tables {
		full[i] = t.Descriptor()
	}
	for _, f := range files {
		var descs []*redo.TableDescriptor
		for _, d := range full {
			local := &redo.TableDescriptor{
				Name: d.Name, Owner: d.Owner, Tablespace: d.Tablespace,
				Cluster: d.Cluster, PartDiv: d.PartDiv,
			}
			for _, e := range d.Extents {
				if e.File == f.Name {
					local.Extents = append(local.Extents, e)
				}
			}
			if len(local.Extents) > 0 {
				descs = append(descs, local)
			}
		}
		f.SetHeader(encodeHeader(descs))
	}
}

// Wipe destroys the dictionary content (tables and users), simulating a
// catalog-destroying operator fault. Datafile headers and block content
// are untouched — that is exactly what RebuildFromHeaders recovers from.
func (c *Catalog) Wipe() {
	c.tables = make(map[string]*Table)
	c.users = make(map[string]*User)
}

// RebuildFromHeaders reconstructs the dictionary by scanning every
// datafile's metadata header (one charged block read per file), merging
// the per-file segment descriptors back into whole tables. Existing
// dictionary content is replaced. Owners are re-registered as users with
// their first table's tablespace as default (headers do not record
// accounts). It returns the names of the rebuilt tables.
func (c *Catalog) RebuildFromHeaders(p *sim.Proc, db *storage.DB) ([]string, error) {
	merged := make(map[string]*redo.TableDescriptor)
	for _, f := range db.Datafiles() {
		hdr, err := f.ReadHeader(p)
		if err != nil {
			return nil, fmt.Errorf("catalog: scan %s: %w", f.Name, err)
		}
		if hdr == nil {
			continue // file never hosted a segment
		}
		descs, err := decodeHeader(hdr)
		if err != nil {
			return nil, fmt.Errorf("catalog: scan %s: %w", f.Name, err)
		}
		for _, d := range descs {
			m, ok := merged[d.Name]
			if !ok {
				cp := *d
				cp.Extents = append([]redo.Extent(nil), d.Extents...)
				merged[d.Name] = &cp
				continue
			}
			if m.Owner != d.Owner || m.Tablespace != d.Tablespace ||
				m.Cluster != d.Cluster || m.PartDiv != d.PartDiv {
				return nil, fmt.Errorf("%w: table %q metadata disagrees across files", ErrCorruptHeader, d.Name)
			}
			m.Extents = append(m.Extents, d.Extents...)
		}
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	tables := make(map[string]*Table, len(merged))
	users := make(map[string]*User)
	for _, n := range names {
		t, err := buildTable(merged[n], db)
		if err != nil {
			return nil, err
		}
		tables[n] = t
		if _, ok := users[t.Owner]; !ok && t.Owner != "" {
			users[t.Owner] = &User{Name: t.Owner, Default: t.Tablespace}
		}
	}
	c.tables = tables
	c.users = users
	return names, nil
}
