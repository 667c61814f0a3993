package tpcc

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// TinyConfig is the benchmark's small scale: one warehouse, so the shared
// single-tablespace layout, about 10 000 rows.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Warehouses, cfg.CustomersPerDistrict, cfg.Items = 1, 60, 1000
	return cfg
}

// IndexHash fingerprints the driver-side structures the load builds — the
// customer name index, the new-order queues and the history sequence — in a
// fixed order, for the tests that pin a seed's generated database.
func (a *App) IndexHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	names := make([]nameKey, 0, len(a.byName))
	for k := range a.byName {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		x, y := names[i], names[j]
		if x.w != y.w {
			return x.w < y.w
		}
		if x.d != y.d {
			return x.d < y.d
		}
		return x.last < y.last
	})
	for _, k := range names {
		writeInt(int64(k.w))
		writeInt(int64(k.d))
		h.Write([]byte(k.last))
		writeInt(int64(len(a.byName[k])))
		for _, id := range a.byName[k] {
			writeInt(int64(id))
		}
	}
	districts := make([]int64, 0, len(a.noQueue))
	for k := range a.noQueue {
		districts = append(districts, k)
	}
	sort.Slice(districts, func(i, j int) bool { return districts[i] < districts[j] })
	for _, k := range districts {
		writeInt(k)
		writeInt(int64(len(a.noQueue[k])))
		for _, id := range a.noQueue[k] {
			writeInt(int64(id))
		}
	}
	writeInt(a.histSeq)
	return h.Sum64()
}
