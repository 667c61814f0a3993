package redo

import (
	"bytes"
	"testing"
)

// FuzzRedoRecordRoundTrip checks the record codec's core contract:
// encode→decode→encode is byte-identical, Decode consumes exactly what
// Encode produced, and every field survives the trip. Recovery, archiving
// and the stand-by apply all assume this. It also checks the undo rule: a
// data record's inverse of its inverse is the record again, bar SCN and
// Meta.
func FuzzRedoRecordRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(7), byte(OpInsert), "warehouse", int64(42), []byte("before"), []byte("after"), "")
	f.Add(int64(3), int64(7), byte(OpUpdate), "stock", int64(5), []byte("old"), []byte("new"), "")
	f.Add(int64(4), int64(7), byte(OpDelete), "stock", int64(6), []byte("gone"), []byte(nil), "")
	f.Add(int64(0), int64(0), byte(OpCommit), "", int64(0), []byte(nil), []byte(nil), "")
	f.Add(int64(1<<40), int64(-1), byte(OpDDL), "order_line", int64(-9), []byte{0, 1, 2}, bytes.Repeat([]byte{0xFF}, 300), "create table")
	f.Add(int64(-5), int64(99), byte(OpCheckpoint), "t\x00b", int64(1<<62), []byte{}, []byte{}, "meta\nwith\nnewlines")
	f.Fuzz(func(t *testing.T, scn, txn int64, op byte, table string, key int64, before, after []byte, meta string) {
		r := Record{
			SCN:    SCN(scn),
			Txn:    TxnID(txn),
			Op:     Op(op),
			Table:  table,
			Key:    key,
			Before: before,
			After:  after,
			Meta:   meta,
		}
		enc := r.Encode()
		if got, want := r.Size(), int64(len(enc)); got != want {
			t.Fatalf("Size() = %d, len(Encode()) = %d", got, want)
		}
		dec, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", r, err)
		}
		if n != len(enc) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
		}
		if dec.SCN != r.SCN || dec.Txn != r.Txn || dec.Op != r.Op ||
			dec.Table != r.Table || dec.Key != r.Key || dec.Meta != r.Meta ||
			!bytes.Equal(dec.Before, r.Before) || !bytes.Equal(dec.After, r.After) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", r, dec)
		}
		if re := dec.Encode(); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode not byte-identical:\n first: %x\nsecond: %x", enc, re)
		}
		if !r.IsDataChange() {
			return
		}
		inv := r.Inverse()
		if inv.Meta != "clr" || inv.Txn != r.Txn || inv.Table != r.Table || inv.Key != r.Key {
			t.Fatalf("inverse of %+v is %+v", r, inv)
		}
		if back := inv.Inverse(); back.Txn != r.Txn || back.Op != r.Op || back.Table != r.Table ||
			back.Key != r.Key || !bytes.Equal(back.Before, r.Before) || !bytes.Equal(back.After, r.After) {
			t.Fatalf("inverse of the inverse differs:\n in: %+v\nout: %+v", r, back)
		}
	})
}
