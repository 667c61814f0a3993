package redo

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
)

// StreamFrame is the unit of continuous redo transport: a consecutive run
// of flushed records cut from the primary's stream, wrapped in a framing
// header the receiving standby uses to detect gaps and track its lag.
type StreamFrame struct {
	// Seq numbers frames on one stream, starting at 1 with no holes: the
	// receiver rejects out-of-order delivery.
	Seq uint64
	// PrimarySCN is the primary's flushed SCN at the instant the frame was
	// cut — the receiver's measure of how far behind it is running.
	PrimarySCN SCN
	// Records are the frame's payload, in SCN order.
	Records []Record
}

// frameOverhead models the wire header: sequence, primary SCN, count and
// a trailing checksum word.
const frameOverhead = 32

// Size returns the encoded size of f in bytes. It matches len(f.Encode()).
func (f *StreamFrame) Size() int64 {
	n := int64(frameOverhead)
	for i := range f.Records {
		n += f.Records[i].Size()
	}
	return n
}

// Encode serialises f to a self-delimiting binary form.
func (f *StreamFrame) Encode() []byte {
	buf := make([]byte, 0, f.Size())
	buf = binary.BigEndian.AppendUint64(buf, f.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(f.PrimarySCN))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Records)))
	for i := range f.Records {
		buf = append(buf, f.Records[i].Encode()...)
	}
	// Trailing checksum word (pad to the modelled header overhead).
	h := fnv.New64a()
	h.Write(buf)
	buf = binary.BigEndian.AppendUint64(buf, h.Sum64())
	buf = append(buf, make([]byte, frameOverhead-8-8-4-8)...)
	return buf
}

// ErrCorruptFrame reports a malformed or checksum-failing encoded frame.
var ErrCorruptFrame = errors.New("redo: corrupt stream frame")

// DecodeStreamFrame parses one frame from b, returning the frame and the
// number of bytes consumed.
func DecodeStreamFrame(b []byte) (StreamFrame, int, error) {
	var f StreamFrame
	if len(b) < frameOverhead {
		return f, 0, ErrCorruptFrame
	}
	f.Seq = binary.BigEndian.Uint64(b)
	f.PrimarySCN = SCN(binary.BigEndian.Uint64(b[8:]))
	count := int(binary.BigEndian.Uint32(b[16:]))
	i := 20
	if count < 0 || count > len(b) {
		return StreamFrame{}, 0, ErrCorruptFrame
	}
	for n := 0; n < count; n++ {
		rec, used, err := Decode(b[i:])
		if err != nil {
			return StreamFrame{}, 0, ErrCorruptFrame
		}
		f.Records = append(f.Records, rec)
		i += used
	}
	if len(b) < i+8 {
		return StreamFrame{}, 0, ErrCorruptFrame
	}
	h := fnv.New64a()
	h.Write(b[:i])
	if binary.BigEndian.Uint64(b[i:]) != h.Sum64() {
		return StreamFrame{}, 0, ErrCorruptFrame
	}
	i += 8
	pad := frameOverhead - 8 - 8 - 4 - 8
	if len(b) < i+pad {
		return StreamFrame{}, 0, ErrCorruptFrame
	}
	return f, i + pad, nil
}
