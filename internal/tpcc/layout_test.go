package tpcc

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"dbench/internal/engine"
	"dbench/internal/sim"
)

// TestSchemaLayoutPinned holds CreateSchema's physical layout still at one
// warehouse (the shared tablespace) and at three (a tablespace per warehouse,
// round-robin over two data disks, so the third wraps): every tablespace's
// datafiles with their disk and size in blocks, and a hash of every table's
// tablespace, clustering, partitioning and block refs in order. The values
// were recorded on the two-builder layout code (one function per layout).
func TestSchemaLayoutPinned(t *testing.T) {
	cases := []struct {
		warehouses  int
		tablespaces string
		tables      uint64
	}{
		{1, "TPCC:TPCC_01.dbf@data1=1252,TPCC_02.dbf@data2=1252", 0x1d5b678db41bb889},
		{3, "TPCC:TPCC_01.dbf@data1=289,TPCC_02.dbf@data2=289 TPCC_W01:TPCC_W01_01.dbf@data1=2176 " +
			"TPCC_W02:TPCC_W02_01.dbf@data2=2176 TPCC_W03:TPCC_W03_01.dbf@data1=2176", 0x1f60d5a8f4211d17},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Warehouses = tc.warehouses
		r := newRig(t, cfg, nil)
		r.run(t, func(p *sim.Proc) error {
			if err := r.in.Open(p); err != nil {
				return err
			}
			return r.app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2})
		})
		var ts []string
		for _, s := range r.in.DB().Tablespaces() {
			var files []string
			for _, f := range s.Files {
				files = append(files, fmt.Sprintf("%s@%s=%d", f.Name, f.File().Disk().Spec().Name, f.NumBlocks()))
			}
			ts = append(ts, s.Name+":"+strings.Join(files, ","))
		}
		h := fnv.New64a()
		for _, tbl := range r.in.Catalog().Tables() {
			fmt.Fprintf(h, "%s %s %s c=%d div=%d parts=%d:", tbl.Name, tbl.Owner, tbl.Tablespace, tbl.Cluster, tbl.PartDiv, tbl.Partitions())
			for _, ref := range tbl.Blocks() {
				fmt.Fprintf(h, " %s#%d", ref.File.Name, ref.No)
			}
			h.Write([]byte{'\n'})
		}
		got := strings.Join(ts, " ")
		if got != tc.tablespaces {
			t.Errorf("W=%d: tablespaces are\n%s\npinned\n%s", tc.warehouses, got, tc.tablespaces)
		}
		if sum := h.Sum64(); sum != tc.tables {
			t.Errorf("W=%d: the tables' layout hashes to %#x, pinned %#x", tc.warehouses, sum, tc.tables)
		}
	}
}
