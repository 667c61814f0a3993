package redo

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// frameOverhead models the wire header: sequence, primary SCN, count, a
// trailing checksum word and framePad bytes of padding.
const frameOverhead, framePad = 32, 32 - 8 - 8 - 4 - 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli) // CRC-32C: in hardware on amd64, arm64

// Size returns the encoded size of f in bytes: len(f.Encode()).
func (f *StreamFrame) Size() int64 {
	n := int64(frameOverhead)
	for i := range f.Records {
		n += f.Records[i].Size()
	}
	return n
}

// Encode serialises f to a self-delimiting binary form.
func (f *StreamFrame) Encode() []byte {
	return AppendFrame(make([]byte, 0, f.Size()), f.Seq, f.PrimarySCN, f.Records)
}

// AppendFrame appends to buf the encoding of the frame numbered seq,
// stamped with primarySCN, whose records are the pieces' in order: the
// bytes Encode gives the frame holding them in one slice. The checksum
// word is the CRC-32C of the frame's bytes before it.
func AppendFrame(buf []byte, seq uint64, primarySCN SCN, pieces ...[]Record) []byte {
	start, n := len(buf), 0
	for _, pc := range pieces {
		n += len(pc)
	}
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(primarySCN))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	for _, pc := range pieces {
		for i := range pc {
			buf = pc[i].AppendTo(buf)
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(crc32.Checksum(buf[start:], castagnoli)))
	return append(buf, make([]byte, framePad)...)
}

// FrameChecksum returns the checksum word of an encoded frame.
func FrameChecksum(encoded []byte) uint64 {
	return binary.BigEndian.Uint64(encoded[len(encoded)-framePad-8:])
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
	if len(b) < i+8+framePad || binary.BigEndian.Uint64(b[i:]) != uint64(crc32.Checksum(b[:i], castagnoli)) {
		return StreamFrame{}, 0, ErrCorruptFrame
	}
	return f, i + 8 + framePad, nil
}
