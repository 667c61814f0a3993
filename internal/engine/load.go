package engine

import (
	"fmt"

	"dbench/internal/catalog"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// A direct-path load comes in two halves. Staging costs host time only: rows
// are put into block images by position in the table's block list, and the
// result depends on the table's layout alone, not on the instance. Installing
// costs virtual time only: the images go straight to the datafiles, bypassing
// the cache and the redo log. A set staged once can be installed into every
// instance that has the same layout (the primary and each stand-by);
// callers checkpoint and back up afterwards.

// Stage collects one table's rows into block images.
type Stage struct {
	tbl    *catalog.Table
	images []*storage.Block // by position in tbl.Blocks()
}

// StageTable starts an empty stage for the named table.
func (in *Instance) StageTable(table string) (*Stage, error) {
	tbl, err := in.cat.Table(table)
	if err != nil {
		return nil, err
	}
	return &Stage{tbl: tbl, images: make([]*storage.Block, tbl.NumBlocks())}, nil
}

// Put sets a row's image in its home block's staged image. row belongs to
// the stage from here on. An image's row index grows with the rows put: the
// table's cluster factor overstates what most blocks get.
func (s *Stage) Put(key int64, row []byte) {
	at := s.tbl.BlockIndex(key)
	if s.images[at] == nil {
		s.images[at] = storage.NewBlock()
	}
	s.images[at].Put(key, row)
}

// Images returns what was staged: one image per block of the table, in
// Table.Blocks() order, nil where no row landed.
func (s *Stage) Images() []*storage.Block { return s.images }

// InstallImages writes staged images into the named table's blocks: for each
// non-nil image, in block order, one block read and one block write. The
// caller keeps its set — each image is marked shared before the datafile
// takes it, so the same set can be installed again elsewhere and nobody
// writes through it. A block that already holds rows gets the staged rows
// merged into a copy of its own. A set staged for another layout is refused.
func (in *Instance) InstallImages(p *sim.Proc, table string, images []*storage.Block) error {
	tbl, err := in.cat.Table(table)
	if err != nil {
		return err
	}
	blocks := tbl.Blocks()
	if len(images) != len(blocks) {
		return fmt.Errorf("engine: direct load: %d images staged for the %d blocks of %s", len(images), len(blocks), table)
	}
	for no, img := range images {
		if img == nil {
			continue
		}
		ref := blocks[no]
		cur, err := ref.File.ReadBlock(p, ref.No)
		if err != nil {
			return fmt.Errorf("engine: direct load: %w", err)
		}
		if len(cur.Rows) == 0 && cur.SCN == img.SCN {
			img.Share()
		} else {
			merged := cur.Clone() // what was read is the durable image itself
			for key, row := range img.Rows {
				merged.Put(key, row)
			}
			img = merged
		}
		if err := ref.File.WriteBlock(p, ref.No, img); err != nil {
			return fmt.Errorf("engine: direct load: %w", err)
		}
	}
	return nil
}
