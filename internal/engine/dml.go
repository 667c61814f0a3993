package engine

import (
	"dbench/internal/redo"
	"dbench/internal/sim"
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

// Atomically runs body as one transaction: Begin, body, then Commit, and
// returns the commit SCN (0 when body wrote nothing). When body fails the
// transaction is rolled back, and if that fails too (its media offline, the
// instance gone) it is handed to PMON, which retries the rollback until it
// lands; either way the caller gets body's error.
func (in *Instance) Atomically(p *sim.Proc, body func(t *txn.Txn) error) (redo.SCN, error) {
	t, err := in.Begin()
	if err != nil {
		return 0, err
	}
	if err := body(t); err != nil {
		if in.Rollback(p, t) != nil {
			in.tm.MarkZombie(t)
		}
		return 0, err
	}
	if err := in.Commit(p, t); err != nil {
		return 0, err
	}
	return t.CommitSCN, nil
}

// Scan iterates all rows of a table (see txn.Manager.Scan).
func (in *Instance) Scan(p *sim.Proc, table string, fn func(key int64, value []byte) bool) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.tm.Scan(p, table, fn)
}
