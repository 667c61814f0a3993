package chaos

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"

	"dbench/internal/engine"
	"dbench/internal/redo"
	"dbench/internal/storage"
)

// This file holds the invariant checkers. Each is small and separable so
// the tests can attack it directly: construct a violation, assert the
// checker flags it.

// StateHash fingerprints the durable database state: every datafile's
// blocks — row contents, block SCNs, corruption flags — in a
// deterministic order (files sorted by name, rows by key). Replaying
// already-recovered redo must leave it unchanged (idempotence), and two
// runs from the same seed must produce the same value (determinism).
func StateHash(in *engine.Instance) uint64 {
	h := fnv.New64a()
	for _, f := range in.DB().Datafiles() { // sorted by name
		h.Write([]byte(f.Name))
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(f.CkptSCN)))
		for no := 0; no < f.NumBlocks(); no++ {
			hashImage(h, no, f.PeekBlock(no))
		}
	}
	return h.Sum64()
}

// hashImage folds one block image into h: its number, SCN, corruption flag
// and rows by ascending key.
func hashImage(h hash.Hash64, no int, img *storage.Block) {
	var buf [8]byte
	writeInt := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(no))
	writeInt(int64(img.SCN))
	if img.Corrupt {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	keys := make([]int64, 0, len(img.Rows))
	for k := range img.Rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		writeInt(k)
		writeInt(int64(len(img.Rows[k])))
		h.Write(img.Rows[k])
	}
}

// captureRedo snapshots the redo stream instance recovery is about to
// replay: from the control file's recovery start position to the end of
// flushed redo, read from the online groups and, where those have been
// recycled, from the archived logs. This is harness bookkeeping (the
// crashed instance's durable bytes read without simulated cost), kept
// deliberately separate from recovery's own redoRange so the two
// implementations cross-check each other.
func captureRedo(in *engine.Instance) []redo.Record {
	ctl := in.DB().Control
	from := storage.ScanStart(ctl.CheckpointSCN, ctl.UndoSCN)
	log := in.Log()
	if recs, ok := log.OnlineRecords(from); ok {
		return recs
	}
	var recs []redo.Record
	next := from
	if arch := in.Archiver(); arch != nil {
		for _, al := range arch.Inventory().From(from) {
			for _, rec := range al.Records() {
				if rec.SCN >= next {
					recs = append(recs, rec)
					next = rec.SCN + 1
				}
			}
		}
	}
	online, _ := log.OnlineRecords(next)
	return append(recs, online...)
}

// fingerprint condenses a finished point — the final datafile state hash
// plus every measure — into one value. Two runs of the same crash point are
// deterministic when their fingerprints agree: it folds in every
// observable, so no field-by-field comparison is needed beside it.
func fingerprint(state uint64, r *PointResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(state))
	writeInt(int64(r.CrashAt))
	writeInt(int64(r.CrashSCN))
	writeInt(int64(r.AckedCommits))
	writeInt(int64(r.RecoveryKind))
	writeInt(int64(r.RecoveryTime))
	writeInt(int64(r.RecordsApplied))
	writeInt(r.BytesReplayed)
	writeInt(int64(r.MissingCommits))
	writeInt(int64(r.Violations))
	writeInt(int64(r.ReappliedRecords))
	writeInt(int64(r.Offered))
	writeInt(int64(r.Served))
	writeInt(int64(r.DarkCommits))
	writeInt(int64(r.TraceHash))
	writeInt(int64(r.TraceEvents))
	writeInt(int64(r.MetricsHash))
	writeInt(int64(r.MetricSamples))
	writeInt(int64(r.EstimatedRedoReplay))
	writeInt(int64(r.MeasuredRedoReplay))
	// Replication measures join the fingerprint only on replicated points,
	// so unreplicated explorations keep their historical golden values.
	if r.ReplActive {
		if r.FailedOver {
			writeInt(1)
		} else {
			writeInt(0)
		}
		writeInt(int64(r.RPOLost))
		writeInt(int64(r.DarkAcks))
		writeInt(int64(r.StreamHash))
		writeInt(r.ReplFrames)
		writeInt(r.ReplBytes)
		writeInt(r.ReplRecords)
		writeInt(r.ReplSyncWaits)
		writeInt(r.ReplSyncLost)
		writeInt(r.ReplResyncs)
	}
	return h.Sum64()
}
