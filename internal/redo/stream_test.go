package redo

import (
	"bytes"
	"hash/crc32"
	"hash/fnv"
	"testing"
)

func frameRecords(n int, base int64) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			SCN: SCN(base + int64(i)), Txn: TxnID(i%3 + 1), Op: OpInsert,
			Table: "acct", Key: int64(i), After: []byte{byte(i), byte(i >> 8)},
		})
	}
	return recs
}

func TestStreamFrameRoundTrip(t *testing.T) {
	for _, f := range []StreamFrame{
		{Seq: 1, PrimarySCN: 10, Records: frameRecords(3, 8)},
		{Seq: 7, PrimarySCN: 0}, // empty heartbeat frame
		{Seq: 1 << 40, PrimarySCN: 1 << 50, Records: frameRecords(100, 1)},
	} {
		enc := f.Encode()
		if got, want := f.Size(), int64(len(enc)); got != want {
			t.Fatalf("Size() = %d, len(Encode()) = %d", got, want)
		}
		dec, n, err := DecodeStreamFrame(enc)
		if err != nil {
			t.Fatalf("decode seq %d: %v", f.Seq, err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if dec.Seq != f.Seq || dec.PrimarySCN != f.PrimarySCN || len(dec.Records) != len(f.Records) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", f, dec)
		}
		if re := dec.Encode(); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode not byte-identical")
		}
	}
}

// pinnedFrame mixes every record shape a stream carries: inserts, an
// update with a before-image, a DDL record and a commit.
func pinnedFrame() StreamFrame {
	recs := frameRecords(6, 100)
	recs[1].Op, recs[1].Before = OpUpdate, []byte("before image")
	recs[3] = Record{SCN: 103, Txn: 1, Op: OpDDL, Meta: "CREATE TABLE t2"}
	recs[5] = Record{SCN: 105, Txn: 2, Op: OpCommit}
	return StreamFrame{Seq: 9, PrimarySCN: 120, Records: recs}
}

// The wire format is pinned: with its checksum word left out, a fixed
// frame encodes to the bytes the FNV-checksummed codec produced (same
// layout, same Size, so the same link transfer times), and the checksum
// word is the CRC-32C of every byte before it. AppendFrame onto a buffer
// reused across frames of different sizes keeps the prefix and appends
// exactly Encode's bytes.
func TestStreamFrameWireFormatPinned(t *testing.T) {
	f := pinnedFrame()
	enc := f.Encode()
	at := len(enc) - framePad - 8
	h := fnv.New64a()
	h.Write(enc[:at])
	h.Write(enc[at+8:])
	if got, want := h.Sum64(), uint64(0x60c4f0d1fb2efb57); got != want || len(enc) != 881 {
		t.Errorf("frame encodes to %d bytes hashing to %#x, want 881 hashing to %#x", len(enc), got, want)
	}
	if got, want := FrameChecksum(enc), uint64(crc32.Checksum(enc[:at], crc32.MakeTable(crc32.Castagnoli))); got != want {
		t.Errorf("checksum word %#x, want CRC-32C %#x", got, want)
	}
	const prefix = "prefix"
	buf := []byte(prefix)
	for _, fr := range []StreamFrame{{Seq: 2, Records: frameRecords(40, 1)}, {Seq: 7}, f, {Seq: 3, Records: frameRecords(2, 50)}} {
		buf = AppendFrame(buf[:len(prefix)], fr.Seq, fr.PrimarySCN, fr.Records)
		if string(buf[:len(prefix)]) != prefix || !bytes.Equal(buf[len(prefix):], fr.Encode()) {
			t.Fatalf("frame seq %d appended onto a reused buffer differs from Encode", fr.Seq)
		}
	}
}

// Encoding into a warm buffer allocates nothing, in one piece or several;
// Encode allocates its one exactly sized buffer.
func TestStreamCodecAllocs(t *testing.T) {
	f := pinnedFrame()
	buf := f.Encode()
	if got := testing.AllocsPerRun(100, func() { buf = f.Records[1].AppendTo(buf[:0]) }); got != 0 {
		t.Errorf("Record.AppendTo allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], f.Seq, f.PrimarySCN, f.Records) }); got != 0 {
		t.Errorf("AppendFrame of one piece allocates %v times, want 0", got)
	}
	pieces := [][]Record{f.Records[:2], f.Records[2:3], f.Records[3:]}
	if got := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], f.Seq, f.PrimarySCN, pieces...) }); got != 0 {
		t.Errorf("AppendFrame of three pieces allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { buf = f.Encode() }); got != 1 {
		t.Errorf("StreamFrame.Encode allocates %v times, want 1", got)
	}
}

// A frame's records split into two pieces at any point, either of them
// empty, encode byte for byte as the frame holding them in one slice, with
// its checksum word.
func TestAppendFrameAtEverySplit(t *testing.T) {
	f := pinnedFrame()
	want := f.Encode()
	for i := 0; i <= len(f.Records); i++ {
		got := AppendFrame(nil, f.Seq, f.PrimarySCN, f.Records[:i], f.Records[i:])
		if !bytes.Equal(got, want) || FrameChecksum(got) != FrameChecksum(want) {
			t.Errorf("split at %d of %d encodes %d bytes (checksum %#x), the flat frame %d (%#x)",
				i, len(f.Records), len(got), FrameChecksum(got), len(want), FrameChecksum(want))
		}
	}
}

func TestStreamFrameRejectsCorruption(t *testing.T) {
	f := StreamFrame{Seq: 3, PrimarySCN: 20, Records: frameRecords(5, 16)}
	enc := f.Encode()
	// Truncations at every length short of a full frame.
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeStreamFrame(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(enc))
		}
	}
	// A single flipped bit anywhere in the checksummed region fails.
	for _, pos := range []int{0, 8, 16, 20, len(enc) / 2} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x01
		if dec, _, err := DecodeStreamFrame(bad); err == nil {
			if bytes.Equal(dec.Encode(), enc) {
				t.Fatalf("bit flip at %d decoded to the original frame", pos)
			}
		}
	}
}

// FuzzStreamFrameRoundTrip fuzzes the stream framing codec the LNS
// shipping processes and the stand-by receiver speak: encode→decode→
// encode must be byte-identical with every field surviving, and a
// corrupted or truncated buffer must be rejected, never mis-parsed into
// a plausible frame (a silent mis-parse would feed the stand-by redo the
// primary never produced).
func FuzzStreamFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(10), 3, int64(8), []byte(nil), 0, 1)
	f.Add(uint64(7), int64(0), 0, int64(0), []byte(nil), 0, 0)
	f.Add(uint64(1<<40), int64(1<<50), 64, int64(1), []byte{0xFF, 0x00, 0x10}, 5, 63)
	f.Add(uint64(2), int64(-3), 1, int64(-9), []byte{1, 2, 3, 4}, 17, -1)
	f.Fuzz(func(t *testing.T, seq uint64, primary int64, count int, base int64, corrupt []byte, flip, split int) {
		if count < 0 || count > 256 {
			return
		}
		fr := StreamFrame{Seq: seq, PrimarySCN: SCN(primary), Records: frameRecords(count, base)}
		enc := fr.Encode()
		if got, want := fr.Size(), int64(len(enc)); got != want {
			t.Fatalf("Size() = %d, len(Encode()) = %d", got, want)
		}
		dec, n, err := DecodeStreamFrame(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if dec.Seq != fr.Seq || dec.PrimarySCN != fr.PrimarySCN || len(dec.Records) != len(fr.Records) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", fr, dec)
		}
		for i := range dec.Records {
			if dec.Records[i].SCN != fr.Records[i].SCN || dec.Records[i].Key != fr.Records[i].Key {
				t.Fatalf("record %d mismatch: %+v vs %+v", i, fr.Records[i], dec.Records[i])
			}
		}
		if re := dec.Encode(); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode not byte-identical")
		}
		// AppendFrame keeps whatever the buffer already holds, and the
		// records split into two pieces anywhere encode as the flat frame.
		at := split % (count + 1)
		if at < 0 {
			at += count + 1
		}
		pre := corrupt[:len(corrupt):len(corrupt)]
		if got := AppendFrame(pre, seq, SCN(primary), fr.Records[:at], fr.Records[at:]); !bytes.Equal(got[:len(corrupt)], corrupt) || !bytes.Equal(got[len(corrupt):], enc) {
			t.Fatalf("AppendFrame split at %d of %d onto a %d-byte prefix differs from the prefix and Encode", at, count, len(corrupt))
		}
		// Corruption: flipping any byte in the checksummed region or the
		// checksum word must not yield the original frame's content under
		// a clean decode. (The trailing pad bytes are modelled overhead,
		// not content — excluded.)
		if guarded := len(enc) - framePad; len(corrupt) > 0 && guarded > 0 {
			bad := append([]byte(nil), enc...)
			pos := flip
			if pos < 0 {
				pos = -pos
			}
			pos %= guarded
			for i, b := range corrupt {
				bad[(pos+i)%guarded] ^= b | 1
			}
			if dec2, _, err := DecodeStreamFrame(bad); err == nil {
				if bytes.Equal(dec2.Encode(), enc) && !bytes.Equal(bad, enc) {
					t.Fatalf("corrupted buffer decoded to the original frame")
				}
			}
		}
		// Truncation must never be accepted.
		if _, _, err := DecodeStreamFrame(enc[:len(enc)-1]); err == nil {
			t.Fatalf("truncated frame accepted")
		}
	})
}
