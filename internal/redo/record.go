// Package redo implements the online redo log: record formats, log groups
// with circular reuse, and the LGWR process with group commit.
//
// The redo log is the heart of the recovery architecture the paper
// evaluates. Its configuration knobs — file size, number of groups,
// checkpoint interplay and archiving — are exactly the parameters varied in
// the paper's Table 3, and the log-switch stalls modelled here ("checkpoint
// not complete", "archival required") are what degrade performance for
// small-log configurations in Figure 4.
package redo

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// SCN is a system change number: a monotonically increasing stamp assigned
// to every redo record. It doubles as the log sequence position.
type SCN int64

// TxnID identifies a transaction.
type TxnID int64

// Op is a redo record type.
type Op uint8

// Redo record operations.
const (
	OpInsert Op = iota + 1
	OpUpdate
	OpDelete
	OpCommit
	OpAbort
	OpCheckpoint
	OpDDL
)

var opNames = map[Op]string{
	OpInsert:     "insert",
	OpUpdate:     "update",
	OpDelete:     "delete",
	OpCommit:     "commit",
	OpAbort:      "abort",
	OpCheckpoint: "checkpoint",
	OpDDL:        "ddl",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// recordOverhead models Oracle's per-change-vector header overhead; it makes
// the simulated redo volume per transaction land in a realistic range.
const recordOverhead = 92

// Record is a single redo log entry. Data-change records carry both the
// after-image (for the forward/redo pass) and the before-image (for the
// backward/undo pass), following the write-ahead logging discipline.
type Record struct {
	SCN    SCN
	Txn    TxnID
	Op     Op
	Table  string
	Key    int64
	Before []byte
	After  []byte
	Meta   string
}

// Size returns the encoded size of r in bytes, including header overhead:
// len(r.Encode()), or what AppendTo adds.
func (r *Record) Size() int64 {
	return int64(recordOverhead + 8 + 8 + 1 + 8 +
		4 + len(r.Table) + 4 + len(r.Before) + 4 + len(r.After) + 4 + len(r.Meta))
}

// Encode serialises r to a self-delimiting binary form.
func (r *Record) Encode() []byte {
	return r.AppendTo(make([]byte, 0, r.Size()))
}

// AppendTo appends r's encoding (see Encode) to buf.
func (r *Record) AppendTo(buf []byte) []byte {
	buf = append(buf, make([]byte, recordOverhead)...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.SCN))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Txn))
	buf = append(buf, byte(r.Op))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Key))
	buf = appendBytes(buf, r.Table)
	buf = appendBytes(buf, r.Before)
	buf = appendBytes(buf, r.After)
	buf = appendBytes(buf, r.Meta)
	return buf
}

func appendBytes[B string | []byte](buf []byte, b B) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// ErrCorruptRecord reports a malformed encoded record.
var ErrCorruptRecord = errors.New("redo: corrupt record")

// Decode parses one record from b, returning the record and the number of
// bytes consumed.
func Decode(b []byte) (Record, int, error) {
	var r Record
	if len(b) < recordOverhead+8+8+1+8 {
		return r, 0, ErrCorruptRecord
	}
	i := recordOverhead
	r.SCN = SCN(binary.BigEndian.Uint64(b[i:]))
	i += 8
	r.Txn = TxnID(binary.BigEndian.Uint64(b[i:]))
	i += 8
	r.Op = Op(b[i])
	i++
	r.Key = int64(binary.BigEndian.Uint64(b[i:]))
	i += 8
	var err error
	var table, before, after, meta []byte
	if table, i, err = readBytes(b, i); err != nil {
		return r, 0, err
	}
	if before, i, err = readBytes(b, i); err != nil {
		return r, 0, err
	}
	if after, i, err = readBytes(b, i); err != nil {
		return r, 0, err
	}
	if meta, i, err = readBytes(b, i); err != nil {
		return r, 0, err
	}
	r.Table = string(table)
	r.Before = before
	r.After = after
	r.Meta = string(meta)
	return r, i, nil
}

func readBytes(b []byte, i int) ([]byte, int, error) {
	if len(b) < i+4 {
		return nil, 0, ErrCorruptRecord
	}
	n := int(binary.BigEndian.Uint32(b[i:]))
	i += 4
	if len(b) < i+n {
		return nil, 0, ErrCorruptRecord
	}
	if n == 0 {
		return nil, i, nil
	}
	out := make([]byte, n)
	copy(out, b[i:i+n])
	return out, i + n, nil
}

// IsDataChange reports whether the record modifies table data (and so must
// be applied in the redo pass and potentially undone in the undo pass).
func (r *Record) IsDataChange() bool {
	return r.Op == OpInsert || r.Op == OpUpdate || r.Op == OpDelete
}

// Inverse returns the change that undoes data record r: an insert becomes a
// delete, a delete an insert of the before-image, and an update an update
// back to it. Txn, Table and Key stay r's, Meta is "clr", and r's two images
// trade places (shared, not copied).
func (r *Record) Inverse() Record {
	inv := Record{Txn: r.Txn, Op: r.Op, Table: r.Table, Key: r.Key, Before: r.After, After: r.Before, Meta: "clr"}
	switch r.Op {
	case OpInsert:
		inv.Op = OpDelete
	case OpDelete:
		inv.Op = OpInsert
	}
	return inv
}
