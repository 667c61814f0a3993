// Package standby implements the stand-by database of the paper's §5.3
// and its modern extension: replication. A stand-by is a second server
// kept in permanent managed recovery by one redo feed: numbered transport
// units arrive in order, their records join one receive queue, and one
// managed-recovery process applies them continuously. What a unit is
// depends on the cluster's mode (see stream.go): one whole archived log,
// shipped after each log switch (the paper's cold configuration, Figures
// 6/7), or one frame of a continuous redo stream over a simulated network
// link, acknowledged sync or async, with optional cascading.
//
// Managed recovery applies each record by recovery's per-record rule into
// one loser table kept for the stand-by's whole life (recovery.Losers);
// only its CPU and block-write charges are its own.
//
// On a primary failure the stand-by is promoted: the received-but-
// unapplied redo tail is rolled forward by recovery's one redo-apply pass
// (recovery.Manager.Failover) into a copy of that table, the transactions
// the feed never finished are rolled back, and the database opens as the
// new primary. Committed transactions whose redo never reached the
// stand-by are lost — the paper's Figure 7 measures that against the
// online log geometry for archive shipping; the replica experiment
// measures it as RPO for streaming.
package standby

import (
	"fmt"
	"time"

	"dbench/internal/archivelog"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// Config tunes the stand-by machinery.
type Config struct {
	// ShipBytesPerSec is the archive shipping bandwidth between the
	// servers (the paper used dedicated fast Ethernet; archive mode only).
	// Continuous streaming uses the cluster's link spec instead.
	ShipBytesPerSec int64
	// MaxReadLag bounds replica-served reads: when the stand-by's apply
	// lag (last known primary SCN minus applied SCN, in records) exceeds
	// it, snapshot reads are refused and the driver falls back to the
	// primary. 0 disables replica reads entirely.
	MaxReadLag int64
	// FrameRecords bounds the records per stream frame (streaming only).
	FrameRecords int
}

// DefaultConfig returns costs for a dedicated 100 Mbit/s link.
func DefaultConfig() Config {
	return Config{
		ShipBytesPerSec: 12 << 20,
		MaxReadLag:      4096,
		FrameRecords:    64,
	}
}

const (
	// activationOverhead is the fixed cost of activating the stand-by
	// (terminating managed recovery, opening the database).
	activationOverhead = 8 * time.Second
	// readPerRow is the CPU cost a replica-served read-only transaction
	// pays per row it reads from the stand-by's snapshot.
	readPerRow = 60 * time.Microsecond
)

// Stats counts stand-by activity.
type Stats struct {
	// Applied counts apply batches (one per drained receive queue).
	Applied     int
	RecordsDone int64
	// Frames/StreamBytes count the transport units received in sequence
	// (stream frames, or whole archived logs in archive mode) and their
	// bytes on the wire.
	Frames      int64
	StreamBytes int64
}

// Standby is one stand-by database server.
type Standby struct {
	k    *sim.Kernel
	in   *engine.Instance
	cfg  Config
	name string
	// applyPerRecord is managed recovery's CPU cost per redo record, the
	// instance's own (engine.CostModel.RedoApplyPerRecord).
	applyPerRecord time.Duration

	activated bool

	// The one feed (see accept): transport units arrive in sequence and
	// their records wait in recvQueue for the managed-recovery process,
	// which owes the CPU cost of what it applied and has yet to write the
	// blocks it touched.
	wantSeq     uint64
	receivedSCN redo.SCN
	lastPrimary redo.SCN
	recvQueue   []redo.Record
	mrp         *sim.Server
	owed        time.Duration
	touched     map[storage.BlockRef]bool
	streamHash  uint64
	// Archive shipping: Ship hands archives to the RFS receiver process,
	// which pays the network transfer on the stand-by side — so a primary
	// crash cannot lose an archive that was already fully handed off —
	// and feeds each one in as a single transport unit.
	shipQueue  []*archivelog.ArchivedLog
	rfsDrained sim.Cond
	rfs        *sim.Server
	// relays forward received records to cascaded stand-bys, on receipt
	// (a cascade's lag is bounded by its feeder's reception, not apply).
	relays []*streamer

	appliedSCN redo.SCN

	// losers is managed recovery's loser table: the rollback set at
	// promotion, and the committed-read overlay of reads.go. It points
	// into recvQueue's arrays: a long-running transaction's record keeps
	// the array it arrived in (in archive mode, a whole archived log's
	// records) alive until a compaction drops it.
	losers *recovery.Losers

	// gapErr is set when a transport unit arrives beyond the expected
	// sequence number — something is missing from the middle of the
	// feed. Managed recovery halts rather than apply around the hole;
	// promotion refuses until the gap is resolved.
	gapErr error

	stats Stats
}

// fnvOffset/fnvPrime are the FNV-64a constants the stream hash chains
// frames with.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord chains v's eight bytes, low byte first, into the FNV-64a hash h.
func fnvWord(h, v uint64) uint64 {
	for range 8 {
		h, v = (h^(v&0xff))*fnvPrime, v>>8
	}
	return h
}

// New wraps a prepared stand-by instance. The instance must contain a
// physical copy of the primary as of startSCN (the backup the stand-by
// was instantiated from); it stays unopened until activation.
func New(in *engine.Instance, cfg Config, startSCN redo.SCN) *Standby {
	return &Standby{
		k:              in.Kernel(),
		in:             in,
		cfg:            cfg,
		name:           in.Config().Name,
		applyPerRecord: in.Config().Cost.RedoApplyPerRecord,
		wantSeq:        1,
		receivedSCN:    startSCN,
		appliedSCN:     startSCN,
		losers:         recovery.NewLosers(in),
		streamHash:     fnvOffset,
	}
}

// Instance returns the stand-by's engine instance.
func (s *Standby) Instance() *engine.Instance { return s.in }

// Name returns the stand-by's instance name.
func (s *Standby) Name() string { return s.name }

// AppliedSCN returns the managed-recovery watermark: every change at or
// below it is applied on the stand-by.
func (s *Standby) AppliedSCN() redo.SCN { return s.appliedSCN }

// ReceivedSCN returns the reception watermark: the highest SCN the
// stand-by holds redo for.
// Promotion recovers through it; in sync mode no commit is acknowledged
// until the quorum's ReceivedSCN covers it.
func (s *Standby) ReceivedSCN() redo.SCN { return max(s.receivedSCN, s.appliedSCN) }

// Lag returns the apply lag in records: how far the stand-by's applied
// state trails the primary's flushed stream, as of the last frame heard.
func (s *Standby) Lag() int64 { return max(int64(s.lastPrimary-s.appliedSCN), 0) }

// StreamHash is the FNV-64a chain over every received frame's checksum
// word (the CRC-32C of its encoding) — the transport-level fingerprint the
// chaos harness folds into its per-seed goldens.
func (s *Standby) StreamHash() uint64 { return s.streamHash }

// Stats returns a copy of the counters.
func (s *Standby) Stats() Stats { return s.stats }

// Err reports why managed recovery halted (a gap in the redo feed), or
// nil while the stand-by is healthy.
func (s *Standby) Err() error { return s.gapErr }

// Start mounts the stand-by instance and launches managed recovery.
func (s *Standby) Start(p *sim.Proc) error {
	if s.mrp.Running() {
		return nil
	}
	if err := s.in.Mount(p); err != nil {
		return err
	}
	s.owed, s.touched = 0, make(map[storage.BlockRef]bool)
	s.mrp = s.k.Serve("MRP-"+s.name, s.applyDue, s.apply)
	return nil
}

// Stop halts managed recovery and the archive receiver (without
// activating).
func (s *Standby) Stop() {
	s.mrp.Stop()
	s.rfs.Stop()
	s.rfs = nil
}

// accept is the stand-by's one intake. A transport unit — a stream frame,
// or in archive mode one whole archived log — carries its sender's
// sequence number; units must arrive in sequence. A skipped number means
// redo is missing from the middle of the feed, so the stand-by halts
// rather than apply around the hole; an old number is a duplicate and is
// dropped quietly. The unit's records join the receive queue and are
// forwarded to any cascaded destinations on receipt, before apply.
// Reports whether the unit was taken.
func (s *Standby) accept(seq uint64, primarySCN redo.SCN, bytes int64, recs []redo.Record) bool {
	if s.gapErr != nil || s.activated || seq < s.wantSeq {
		return false
	}
	if seq != s.wantSeq {
		s.gapErr = fmt.Errorf("standby: gap in received redo: want transport unit %d, got %d", s.wantSeq, seq)
		return false
	}
	s.wantSeq++
	s.stats.Frames++
	s.stats.StreamBytes += bytes
	s.lastPrimary = max(s.lastPrimary, primarySCN)
	if len(recs) == 0 {
		return true
	}
	s.receivedSCN = max(s.receivedSCN, recs[len(recs)-1].SCN)
	s.recvQueue = append(s.recvQueue, recs...)
	s.mrp.Wake()
	for _, rel := range s.relays {
		rel.enqueue(recs)
	}
	return true
}

// Ship hands one archived log to the stand-by (call after Start). It is
// called from the primary's ARCH process (archivelog.Archiver.OnArchived,
// via Cluster.OnArchived) and only enqueues: the stand-by's own RFS
// process — started with the first archive — pays the network transfer, so
// a primary crash after the hand-off cannot lose the archive.
func (s *Standby) Ship(p *sim.Proc, al *archivelog.ArchivedLog) {
	s.shipQueue = append(s.shipQueue, al)
	if s.rfs == nil {
		s.rfs = s.k.Serve("RFS-"+s.name, func() bool { return len(s.shipQueue) > 0 }, s.receive)
	}
	s.rfs.Wake()
}

// receive is the remote-file-server receiver: it pays the transfer time of
// the archive at the head of the queue and feeds the log in as one
// transport unit, numbered by its log sequence.
func (s *Standby) receive(p *sim.Proc) bool {
	al := s.shipQueue[0]
	if s.cfg.ShipBytesPerSec > 0 {
		p.Sleep(time.Duration(al.Bytes * int64(time.Second) / s.cfg.ShipBytesPerSec))
	}
	s.shipQueue = s.shipQueue[1:]
	s.accept(uint64(al.Seq), al.LastSCN, al.Bytes, al.Records())
	s.rfsDrained.Broadcast(s.k)
	return true
}

// applyDue reports managed recovery's work: records to apply, apply cost
// to pay, or blocks to write.
func (s *Standby) applyDue() bool {
	return len(s.recvQueue) > 0 || s.owed > 0 || len(s.touched) > 0
}

// apply is managed recovery: it pops each received record and applies it
// at once by recovery's per-record rule, paying the CPU cost in chunks — a
// kill mid-sleep leaves appliedSCN at the last applied record and the queue
// holding the unapplied tail. With the queue empty it pays the rest of the
// debt and, unless more records arrived meanwhile, writes what it touched.
func (s *Standby) apply(p *sim.Proc) bool {
	for len(s.recvQueue) > 0 {
		rec := &s.recvQueue[0]
		s.recvQueue = s.recvQueue[1:]
		if rec.SCN <= s.appliedSCN {
			continue
		}
		if ref, ok := s.losers.Apply(rec); ok {
			s.touched[ref] = true
		}
		s.appliedSCN = rec.SCN
		s.stats.RecordsDone++
		if s.owed += s.applyPerRecord; s.owed >= recovery.ApplyChunk {
			d := s.owed
			s.owed = 0
			p.Sleep(d)
		}
	}
	if s.owed == 0 && len(s.touched) == 0 {
		return true
	}
	d := s.owed
	s.owed = 0
	p.Sleep(d)
	if len(s.recvQueue) == 0 {
		s.chargeTouched(p)
		s.touched = make(map[storage.BlockRef]bool)
		s.stats.Applied++
	}
	return true
}

// chargeTouched charges standby block I/O for the applied changes.
func (s *Standby) chargeTouched(p *sim.Proc) {
	// Managed recovery writes blocks lazily and mostly sequentially;
	// charge one write per touched block at the sequential rate on the
	// file's disk, in recovery's sorted block-pass order.
	for _, ref := range recovery.SortedRefs(s.touched) {
		if ref.File.Lost() {
			continue
		}
		ref.File.File().Disk().Use(p, storage.BlockSize, true, true)
	}
}

// Promote fails the stand-by over: in-flight archive transfers are
// drained (received bytes must not be lost), and recovery.Manager.Failover
// rolls the received-but-unapplied tail forward, rolls back what the feed
// never finished and opens RESETLOGS as the new primary. Failover works on
// a copy of the loser table, so a failed promotion keeps the tail and the
// table and can be retried once the cause is repaired.
func (s *Standby) Promote(p *sim.Proc) (*recovery.Report, error) {
	if s.activated {
		return nil, fmt.Errorf("standby: already activated")
	}
	p.Sleep(activationOverhead)
	// Account received-but-unapplied bytes: every archive already handed
	// off by the primary's ARCH finishes its transfer and joins the
	// receive queue before managed recovery stops.
	for len(s.shipQueue) > 0 {
		s.rfsDrained.Wait(p)
	}
	s.Stop()
	if s.gapErr != nil {
		// Opening with a hole in the applied redo would present a state
		// that never existed on the primary.
		return nil, s.gapErr
	}
	tail := s.recvQueue
	for len(tail) > 0 && tail[0].SCN <= s.appliedSCN {
		tail = tail[1:]
	}
	scn := s.ReceivedSCN()
	rep, err := recovery.NewManager(s.in, nil).Failover(p, tail, s.losers, scn)
	if err != nil {
		return nil, err
	}
	s.recvQueue = nil
	s.appliedSCN = scn
	s.receivedSCN = scn
	s.losers = recovery.NewLosers(s.in)
	s.activated = true
	return rep, nil
}

// EstimateRTO is the stand-by's live promotion-time estimate, exposed as
// an MMON gauge on the primary: the fixed activation overhead plus the
// apply and rollback cost of everything received but not yet applied.
func (s *Standby) EstimateRTO() time.Duration {
	backlog := int64(len(s.recvQueue) + s.losers.Live())
	return activationOverhead + time.Duration(backlog)*s.applyPerRecord
}
