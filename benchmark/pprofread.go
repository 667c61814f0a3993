package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A reader for the part of the pprof profile format (profile.proto,
// gzip-compressed) that stack attribution needs: each sample's call stack
// as function names and its first value. It keeps the harness free of
// `go tool pprof` at run time and of any dependency at build time.

type cpuSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	count int64    // samples/count, the profile's first value
}

var errProto = errors.New("malformed profile")

// protoFields calls fn for every field of one protobuf message. Varint
// fields pass their value in v; length-delimited ones pass data.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch tag & 7 {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(int(tag>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends a repeated integer field's values, packed
// (data != nil) or not.
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func readProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		strtab   []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			var values []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, data)
				case 2:
					values, err = repeatedVarints(values, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx >= uint64(len(strtab)) {
					return nil, fmt.Errorf("%w: string index %d", errProto, idx)
				}
				cs.stack = append(cs.stack, strtab[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}
