package engine

import (
	"fmt"

	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/txn"
)

// The DML surface: thin wrappers over the transaction manager that check
// the instance is open, so clients observe outages as ErrInstanceDown
// (their "connection" drops) rather than touching a dead instance.

// Begin starts a transaction.
func (in *Instance) Begin() (*txn.Txn, error) {
	if in.state != StateOpen {
		return nil, ErrInstanceDown
	}
	return in.tm.Begin(), nil
}

// Read returns a row's value without locking.
func (in *Instance) Read(p *sim.Proc, t *txn.Txn, table string, key int64) ([]byte, error) {
	if in.state != StateOpen {
		return nil, ErrInstanceDown
	}
	return in.tm.Read(p, t, table, key)
}

// ReadForUpdate locks the row and returns its value.
func (in *Instance) ReadForUpdate(p *sim.Proc, t *txn.Txn, table string, key int64) ([]byte, error) {
	if in.state != StateOpen {
		return nil, ErrInstanceDown
	}
	return in.tm.ReadForUpdate(p, t, table, key)
}

// Insert adds a row.
func (in *Instance) Insert(p *sim.Proc, t *txn.Txn, table string, key int64, value []byte) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.tm.Insert(p, t, table, key, value)
}

// Update replaces a row.
func (in *Instance) Update(p *sim.Proc, t *txn.Txn, table string, key int64, value []byte) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.tm.Update(p, t, table, key, value)
}

// Delete removes a row.
func (in *Instance) Delete(p *sim.Proc, t *txn.Txn, table string, key int64) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.tm.Delete(p, t, table, key)
}

// Commit makes the transaction durable.
func (in *Instance) Commit(p *sim.Proc, t *txn.Txn) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.tm.Commit(p, t)
}

// Rollback undoes the transaction.
func (in *Instance) Rollback(p *sim.Proc, t *txn.Txn) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.tm.Rollback(p, t)
}

// Scan iterates all rows of a table (see txn.Manager.Scan).
func (in *Instance) Scan(p *sim.Proc, table string, fn func(key int64, value []byte) bool) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.tm.Scan(p, table, fn)
}

// DirectLoad bulk-loads rows into a table bypassing the cache and the redo
// log (like a direct-path load): rows are grouped per block and written
// straight to the durable images. Used to populate the TPC-C database
// before the measured run; callers should checkpoint and back up after.
func (in *Instance) DirectLoad(p *sim.Proc, table string, rows map[int64][]byte) error {
	tbl, err := in.cat.Table(table)
	if err != nil {
		return err
	}
	blocks := tbl.Blocks()
	blockIdx := make(map[storage.BlockRef]int, len(blocks))
	for i, ref := range blocks {
		blockIdx[ref] = i
	}
	byBlock := make(map[int][]int64)
	for key := range rows {
		byBlock[blockIdx[tbl.BlockFor(key)]] = append(byBlock[blockIdx[tbl.BlockFor(key)]], key)
	}
	// Deterministic order over blocks.
	for no := range blocks {
		keys, ok := byBlock[no]
		if !ok {
			continue
		}
		ref := blocks[no]
		img, err := ref.File.ReadBlock(p, ref.No)
		if err != nil {
			return fmt.Errorf("engine: direct load: %w", err)
		}
		img = img.Clone() // what was read is the durable image itself
		// One buffer for the block's rows, each capped at its own length so
		// that growing one never reaches its neighbour.
		n := 0
		for _, key := range keys {
			n += len(rows[key])
		}
		buf := make([]byte, 0, n)
		for _, key := range keys {
			buf = append(buf, rows[key]...)
			img.Put(key, buf[len(buf)-len(rows[key]):len(buf):len(buf)])
		}
		if err := ref.File.WriteBlock(p, ref.No, img); err != nil {
			return fmt.Errorf("engine: direct load: %w", err)
		}
	}
	return nil
}
