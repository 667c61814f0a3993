// Stand-by-served reads: a read-only transaction can run against a
// stand-by's snapshot instead of the primary, observing the committed
// state exactly at the stand-by's applied SCN. Rows mid-flight in a
// transaction the stream has not yet seen finish are masked by the
// committed-read overlay (their before-images), so a snapshot never
// shows uncommitted data no matter where the continuous apply stopped.
// A stand-by lagging beyond the configured bound refuses the snapshot
// and the caller falls back to the primary.
package standby

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/txn"
)

// ErrStaleReplica refuses a snapshot on a stand-by whose applied state
// trails the primary beyond Config.MaxReadLag (or one that cannot serve
// reads at all: activated, gapped, or with replica reads disabled).
var ErrStaleReplica = errors.New("standby: replica too stale to serve reads")

// Snapshot is a consistent read-only view at the stand-by's applied SCN.
// It holds no copies: consistency comes from the simulation's run-to-
// yield execution — none of its methods advance virtual time, so the
// continuous apply cannot interleave; the accumulated read cost is paid
// once by Done. A snapshot that outlives its SCN (the caller slept)
// fails closed.
type Snapshot struct {
	s    *Standby
	scn  redo.SCN
	rows int64
}

// Snapshot opens a read view at the current applied SCN, or refuses with
// ErrStaleReplica.
func (s *Standby) Snapshot() (*Snapshot, error) {
	if s.activated || s.gapErr != nil || s.cfg.MaxReadLag <= 0 {
		return nil, ErrStaleReplica
	}
	if s.Lag() > s.cfg.MaxReadLag {
		return nil, fmt.Errorf("%w: %d records behind (bound %d)", ErrStaleReplica, s.Lag(), s.cfg.MaxReadLag)
	}
	return &Snapshot{s: s, scn: s.appliedSCN}, nil
}

// SCN returns the snapshot's consistency point.
func (sn *Snapshot) SCN() redo.SCN { return sn.scn }

// Done charges the snapshot's accumulated read cost to p and invalidates
// the snapshot.
func (sn *Snapshot) Done(p *sim.Proc) {
	rows := sn.rows
	sn.rows = 0
	sn.scn = -1
	if rows > 0 {
		p.Sleep(time.Duration(rows) * readPerRow)
	}
}

func (sn *Snapshot) valid() error {
	if sn.scn != sn.s.appliedSCN {
		return fmt.Errorf("%w: snapshot at SCN %d no longer current (applied %d)", ErrStaleReplica, sn.scn, sn.s.appliedSCN)
	}
	return nil
}

// committedRow folds the overlay over an image's row, a capped view like
// txn.Manager.Read's: a row a pending transaction changed reads as the inverse
// of its first change there — absent under an insert, else its before-image.
func (sn *Snapshot) committedRow(table string, key int64, img *storage.Block) ([]byte, bool) {
	v, ok := img.Rows[key]
	if first := sn.s.losers.Pending(table, key); first != nil {
		inv := first.Inverse()
		v, ok = inv.After, inv.Op != redo.OpDelete
	}
	return v[:len(v):len(v)], ok
}

// Read returns the committed value of table[key] at the snapshot SCN,
// or txn.ErrRowNotFound (the sentinel primary reads use, so read-only
// transaction bodies behave identically on either side).
func (sn *Snapshot) Read(p *sim.Proc, table string, key int64) ([]byte, error) {
	if err := sn.valid(); err != nil {
		return nil, err
	}
	tbl, err := sn.s.in.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	ref := tbl.BlockFor(key)
	if ref.File.Lost() {
		return nil, fmt.Errorf("standby: datafile %s lost", ref.File.Name)
	}
	sn.rows++
	v, ok := sn.committedRow(table, key, ref.File.PeekBlock(ref.No))
	if !ok {
		return nil, fmt.Errorf("%w: %s[%d]", txn.ErrRowNotFound, table, key)
	}
	return v, nil
}

// Scan walks the committed rows of a table at the snapshot SCN in key
// order (sorted — unlike the primary's cache-order scan, replica scans
// feed fingerprinted consistency checks). Pending deletes read as their
// before-images; pending inserts are invisible.
func (sn *Snapshot) Scan(p *sim.Proc, table string, fn func(key int64, value []byte) bool) error {
	if err := sn.valid(); err != nil {
		return err
	}
	tbl, err := sn.s.in.Catalog().Table(table)
	if err != nil {
		return err
	}
	for _, ref := range tbl.Blocks() {
		if ref.File.Lost() {
			return fmt.Errorf("standby: datafile %s lost", ref.File.Name)
		}
		img := ref.File.PeekBlock(ref.No)
		keys := make([]int64, 0, len(img.Rows))
		for k := range img.Rows {
			keys = append(keys, k)
		}
		// Rows a pending delete already removed from the image still
		// exist in the committed view — pull them back via the overlay.
		sn.s.losers.PendingKeys(table, func(key int64) {
			if _, inImg := img.Rows[key]; !inImg && tbl.BlockFor(key) == ref {
				keys = append(keys, key)
			}
		})
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			v, ok := sn.committedRow(table, k, img)
			if !ok {
				continue
			}
			sn.rows++
			if !fn(k, v) {
				return nil
			}
		}
	}
	return nil
}
