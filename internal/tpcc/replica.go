package tpcc

import (
	"dbench/internal/sim"
)

// ReadSession is a consistent point-in-time read view — the contract a
// stand-by snapshot offers read-only transactions. Read returns
// txn.ErrRowNotFound for missing rows, like primary reads, so the same
// transaction bodies run unchanged on either side.
type ReadSession interface {
	Read(p *sim.Proc, table string, key int64) ([]byte, error)
	Scan(p *sim.Proc, table string, fn func(key int64, value []byte) bool) error
}

// Replica serves read-only work from a stand-by. ReadOnly runs fn
// against a consistent snapshot no newer than the stand-by's applied
// SCN, or fails (e.g. the stand-by lags beyond its staleness bound) —
// the caller then falls back to the primary.
type Replica interface {
	ReadOnly(p *sim.Proc, fn func(s ReadSession) error) error
}

// readFn abstracts a keyed row read so one transaction body serves both
// a primary transaction and a replica snapshot.
type readFn func(p *sim.Proc, table string, key int64) ([]byte, error)

// replicaRead tries to serve a read-only body from the replica,
// returning true on success. Any replica failure — staleness refusal,
// lag bound, mid-body snapshot error — leaves the caller to rerun on
// the primary.
func (a *App) replicaRead(p *sim.Proc, body func(read readFn) error) bool {
	err := a.Replica.ReadOnly(p, func(s ReadSession) error {
		return body(s.Read)
	})
	if err == nil {
		a.ReplicaServed++
		return true
	}
	a.ReplicaFallback++
	return false
}

// orderStatusBody is the Order-Status read set (§2.6) over an abstract
// read: the customer row, the district order counter, and the most
// recent order's lines, tolerating gaps from rolled-back order ids.
func (a *App) orderStatusBody(p *sim.Proc, read readFn, w, d, c int) error {
	if _, err := read(p, TableCustomer, CKey(w, d, c)); err != nil {
		return err
	}
	// Find the customer's most recent order by walking back from
	// the district's order counter (bounded probe, like an index
	// range scan on (c_id, o_id desc)).
	db, err := read(p, TableDistrict, DKey(w, d))
	if err != nil {
		return err
	}
	dist, err := DecodeDistrict(db)
	if err != nil {
		return err
	}
	for o := dist.NextOID - 1; o > 0 && o > dist.NextOID-40; o-- {
		ob, err := read(p, TableOrder, OKey(w, d, o))
		if err != nil {
			continue // gap (rolled-back order id)
		}
		ord, err := DecodeOrder(ob)
		if err != nil {
			return err
		}
		if ord.CID != c {
			continue
		}
		for ol := 1; ol <= ord.OLCnt; ol++ {
			if _, err := read(p, TableOrderLine, OLKey(w, d, o, ol)); err != nil {
				return err
			}
		}
		break
	}
	return nil
}

// stockLevelBody is the Stock-Level read set (§2.8) over an abstract
// read: the last 20 orders' distinct items, counted against the
// threshold.
func (a *App) stockLevelBody(p *sim.Proc, read readFn, w, d, threshold int) error {
	db, err := read(p, TableDistrict, DKey(w, d))
	if err != nil {
		return err
	}
	dist, err := DecodeDistrict(db)
	if err != nil {
		return err
	}
	seen := make(map[int]bool)
	low := 0
	for o := dist.NextOID - 1; o > 0 && o >= dist.NextOID-20; o-- {
		ob, err := read(p, TableOrder, OKey(w, d, o))
		if err != nil {
			continue
		}
		ord, err := DecodeOrder(ob)
		if err != nil {
			return err
		}
		for ol := 1; ol <= ord.OLCnt; ol++ {
			lb, err := read(p, TableOrderLine, OLKey(w, d, o, ol))
			if err != nil {
				continue
			}
			item, err := orderLineItemID(lb)
			if err != nil {
				return err
			}
			if seen[item] {
				continue
			}
			seen[item] = true
			sb, err := read(p, TableStock, SKey(w, item))
			if err != nil {
				return err
			}
			qty, err := stockQuantity(sb)
			if err != nil {
				return err
			}
			if qty < threshold {
				low++
			}
		}
	}
	_ = low
	return nil
}

// CheckReplicaConsistency runs the TPC-C consistency conditions against
// a replica snapshot instead of the primary — the replicated
// configurations' proof that a lagging stand-by still presents an
// internally consistent (if older) database.
func (a *App) CheckReplicaConsistency(p *sim.Proc, rep Replica) ([]Violation, error) {
	var out []Violation
	err := rep.ReadOnly(p, func(s ReadSession) error {
		c := &checker{a: a, p: p, scan: s.Scan}
		if err := c.run(); err != nil {
			return err
		}
		out = c.violations
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
