// The replication cluster and its transports. The modes differ only in
// transport granularity and acknowledgement rule; every stand-by takes
// its redo through the same intake (Standby.accept). In archive mode the
// unit is one whole archived log, handed off by the primary's ARCH after
// each log switch and pulled over by the stand-by's RFS receiver. In the
// streaming modes a log-network-server (LNS) process per destination
// tails the primary's durable redo and pushes framed record batches over
// a simulated network link: in sync mode a commit is not acknowledged
// until every first-tier stand-by has received its redo (zero RPO by
// construction); async mode acknowledges locally and bounds the loss by
// the stream lag. Cascaded stand-bys are fed from the first stand-by's
// reception — not the primary — so remote copies cost the primary nothing.
package standby

import (
	"errors"
	"fmt"
	"time"

	"dbench/internal/archivelog"
	"dbench/internal/engine"
	"dbench/internal/monitor"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/trace"
)

// Mode selects the redo transport and its commit-acknowledgement rule.
type Mode uint8

const (
	// ModeAsync acknowledges commits as soon as the primary's own redo is
	// durable; streamed redo trails behind (non-zero RPO on failover).
	ModeAsync Mode = iota
	// ModeSync holds the commit until every healthy first-tier stand-by
	// has received the transaction's redo (RPO zero on failover).
	ModeSync
	// ModeArchive ships whole archived logs instead of streaming (the
	// paper's §5.3 stand-by): commits are never held, and a failover
	// loses whatever the primary had not yet archived and handed off.
	ModeArchive
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeArchive:
		return "archive"
	}
	return "async"
}

// ParseMode parses a streaming mode, "sync" or "async".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "sync":
		return ModeSync, nil
	case "async":
		return ModeAsync, nil
	}
	return ModeAsync, fmt.Errorf("standby: unknown replication mode %q (want sync or async)", s)
}

// ErrPrimaryLost fails a sync commit whose quorum acknowledgement was
// still outstanding when the primary went down: the transaction was
// never acknowledged to the client, so losing it costs no RPO.
var ErrPrimaryLost = errors.New("standby: primary lost before sync acknowledgement")

// streamer is one LNS shipping process: it cuts frames from its outbox
// and pushes them over a link to one destination. First-tier streamers
// run on the primary host and die with it; cascade relays run on their
// feeder stand-by and survive a primary crash.
type streamer struct {
	k       *sim.Kernel
	name    string
	link    *sim.Link
	src     func() redo.SCN // primary flushed SCN stamped on each frame
	dst     *Standby
	max     int // records per frame
	outbox  []redo.Record
	lns     *sim.Server
	nextSeq uint64
	frame   redo.StreamFrame // reused by every frame; Receive copies what it keeps
	wire    []byte           // the frame's encoding, reused likewise
	// onDeliver observes every delivered frame (cluster counters and
	// sync-ack wakeups). Runs after the destination processed the frame.
	onDeliver func(p *sim.Proc, f *redo.StreamFrame, encoded int)
}

func (st *streamer) start() {
	if st.lns.Running() {
		return
	}
	st.lns = st.k.Serve(st.name, func() bool { return len(st.outbox) > 0 }, st.ship)
}

// stop kills the shipping process and drops the outbox — the undelivered
// records live in primary memory and are lost with it.
func (st *streamer) stop() {
	if !st.lns.Running() {
		return
	}
	st.outbox = nil
	st.lns.Stop()
}

func (st *streamer) enqueue(recs []redo.Record) {
	if !st.lns.Running() || len(recs) == 0 {
		return
	}
	st.outbox = append(st.outbox, recs...)
	st.lns.Wake()
}

// ship cuts one frame from the outbox and pushes it to the destination.
func (st *streamer) ship(p *sim.Proc) bool {
	n := min(len(st.outbox), st.max)
	st.frame.Seq, st.frame.PrimarySCN = st.nextSeq, st.src()
	st.frame.Records = append(st.frame.Records[:0], st.outbox[:n]...)
	st.outbox = st.outbox[n:]
	st.nextSeq++
	st.wire = st.frame.AppendTo(st.wire[:0])
	st.link.Send(p, int64(len(st.wire)))
	st.dst.Receive(p, &st.frame, st.wire)
	st.onDeliver(p, &st.frame, len(st.wire))
	return true
}

// Receive accepts one stream frame (see accept) and chains the frame's
// checksum word into the stream hash.
func (s *Standby) Receive(p *sim.Proc, f *redo.StreamFrame, encoded []byte) {
	if s.accept(f.Seq, f.PrimarySCN, int64(len(encoded)), f.Records) {
		s.streamHash = fnvWord(s.streamHash, redo.FrameChecksum(encoded))
	}
}

// ClusterConfig shapes a replicated configuration.
type ClusterConfig struct {
	// Mode is the transport and commit-acknowledgement protocol.
	Mode Mode
	// Link is the network profile of every streamed hop: primary→stand-by
	// (sync/async) and stand-by→cascade.
	Link sim.LinkSpec
	// Cascade turns the trailing Cascade stand-bys into second-tier
	// destinations fed from the first stand-by's reception.
	Cascade int
}

// Cluster wires a primary instance to its stand-bys: it taps the
// primary's redo (durable records, or archived logs in archive mode),
// gates sync commits on quorum reception, and promotes the most advanced
// stand-by when the primary dies.
type Cluster struct {
	k         *sim.Kernel
	primary   *engine.Instance
	cfg       ClusterConfig
	standbys  []*Standby
	firstTier int
	links     []*sim.Link
	streamers []*streamer

	down          bool
	flushedAtDown redo.SCN
	ackWake       sim.Cond

	st ClusterStats

	promoted     *Standby
	lastEstimate time.Duration
	promotedLag  int64
}

// NewCluster builds a cluster over prepared stand-bys (see New). The
// last cfg.Cascade stand-bys become second-tier destinations; at least
// one first-tier stand-by must remain. The ClusterStats fields register
// on the primary's registry under repl.*.
func NewCluster(primary *engine.Instance, standbys []*Standby, cfg ClusterConfig) (*Cluster, error) {
	if len(standbys) == 0 {
		return nil, errors.New("standby: cluster needs at least one standby")
	}
	if cfg.Cascade < 0 || cfg.Cascade >= len(standbys) {
		return nil, fmt.Errorf("standby: %d cascades leave no first-tier standby (have %d)", cfg.Cascade, len(standbys))
	}
	c := &Cluster{
		k:         primary.Kernel(),
		primary:   primary,
		cfg:       cfg,
		standbys:  standbys,
		firstTier: len(standbys) - cfg.Cascade,
	}
	primary.Registry().Register([]trace.Counter{
		{Name: "repl.frames", V: &c.st.Frames},
		{Name: "repl.bytes", V: &c.st.Bytes},
		{Name: "repl.records", V: &c.st.Records},
		{Name: "repl.sync.waits", V: &c.st.SyncWaits},
		{Name: "repl.sync.lost", V: &c.st.SyncLost},
		{Name: "repl.resyncs", V: &c.st.Resyncs},
	}...)
	return c, nil
}

// Start mounts every stand-by and launches the shipping processes. The
// caller wires the primary's redo tap (Log().OnDurable = c.OnDurable, or
// Archiver().OnArchived = c.OnArchived in archive mode), commit gate
// (Txns().CommitGate = c.CommitGate) and lifecycle observer (chain
// OnStateChange to c.OnPrimaryState).
func (c *Cluster) Start(p *sim.Proc) error {
	deliver := func(dp *sim.Proc, f *redo.StreamFrame, encoded int) {
		c.st.Frames++
		c.st.Bytes += int64(encoded)
		c.st.Records += int64(len(f.Records))
		c.ackWake.Broadcast(c.k)
	}
	// ship starts one LNS process streaming to dst over its own link.
	ship := func(name, linkName string, src func() redo.SCN, dst *Standby) *streamer {
		spec := c.cfg.Link
		if spec.Name == "" {
			spec.Name = linkName
		}
		st := &streamer{k: c.k, name: name, link: sim.NewLink(c.k, spec), src: src, dst: dst,
			max: frameMax(dst.cfg), nextSeq: 1, onDeliver: deliver}
		st.start()
		c.links = append(c.links, st.link)
		return st
	}
	for i, s := range c.standbys {
		if err := s.Start(p); err != nil {
			return err
		}
		switch {
		case i >= c.firstTier:
		case c.cfg.Mode == ModeArchive:
			// Archives are numbered by log sequence. The stand-by is a copy
			// of the primary as of its last log switch, so the redo it lacks
			// starts in the current log; an older log ARCH is still
			// finishing arrives as a duplicate.
			s.wantSeq = uint64(c.primary.Log().CurrentGroup().Seq)
		default:
			c.streamers = append(c.streamers,
				ship("LNS-"+s.name, "repl-"+s.name, c.primary.Log().FlushedSCN, s))
		}
	}
	// Cascades chain off the first stand-by's reception. A cascade frame
	// carries the feeder's best knowledge of the primary position, not a
	// fresh read of the primary.
	feeder := c.standbys[0]
	for _, s := range c.standbys[c.firstTier:] {
		feeder.relays = append(feeder.relays,
			ship("LNS-casc-"+s.name, "repl-casc-"+s.name, func() redo.SCN { return feeder.lastPrimary }, s))
	}
	return nil
}

func frameMax(cfg Config) int {
	if cfg.FrameRecords > 0 {
		return cfg.FrameRecords
	}
	return DefaultConfig().FrameRecords
}

// OnDurable is the primary redo tap (redo.Manager.OnDurable): newly
// durable records fan out to every first-tier shipping process. Runs on
// the LGWR process and must not advance virtual time — it only enqueues.
func (c *Cluster) OnDurable(p *sim.Proc, recs []redo.Record) {
	for _, st := range c.streamers {
		st.enqueue(recs)
	}
}

// OnArchived is the primary redo tap in archive mode
// (archivelog.Archiver.OnArchived): each archived log is handed to every
// first-tier stand-by's receiver. Runs on the ARCH process and only
// enqueues.
func (c *Cluster) OnArchived(p *sim.Proc, al *archivelog.ArchivedLog) {
	for _, s := range c.standbys[:c.firstTier] {
		s.Ship(p, al)
	}
}

// CommitGate implements txn.Manager.CommitGate. In sync mode the commit
// holds until every healthy first-tier stand-by received the
// transaction's redo; a commit still waiting when the primary dies fails
// with ErrPrimaryLost — never acknowledged, so never counted lost. With
// no healthy destination left (gap/activated) the gate degrades to
// async rather than freeze the primary (maximum availability).
func (c *Cluster) CommitGate(p *sim.Proc, scn redo.SCN) error {
	if c.cfg.Mode != ModeSync {
		return nil
	}
	waited := false
	for !c.down && !c.quorum(scn) {
		if !waited {
			waited = true
			c.st.SyncWaits++
		}
		c.ackWake.Wait(p)
	}
	if c.quorum(scn) {
		return nil
	}
	c.st.SyncLost++
	return ErrPrimaryLost
}

// quorum reports whether every healthy first-tier stand-by has received
// redo through scn.
func (c *Cluster) quorum(scn redo.SCN) bool {
	for _, s := range c.standbys[:c.firstTier] {
		if s.activated || s.gapErr != nil {
			continue
		}
		if s.ReceivedSCN() < scn {
			return false
		}
	}
	return true
}

// OnPrimaryState tracks the primary lifecycle. On a crash the shipping
// processes die with the primary host (their outboxes are lost — that
// tail is the async RPO) and waiting sync commits fail. If the primary
// comes back (instance recovery, not failover), each streamer resyncs
// from the online logs at its destination's received watermark.
func (c *Cluster) OnPrimaryState(now sim.Time, st engine.State) {
	switch st {
	case engine.StateDown:
		if c.down {
			return
		}
		c.down = true
		c.flushedAtDown = c.primary.Log().FlushedSCN()
		for _, s := range c.streamers {
			s.stop()
		}
		c.ackWake.Broadcast(c.k)
	case engine.StateOpen:
		if !c.down {
			return
		}
		c.down = false
		c.resync()
	}
}

// resync restarts the shipping processes after an instance recovery,
// refilling each outbox from the online logs past the destination's
// received watermark. A destination whose missing range was already
// overwritten halts with a gap (it would need a new base copy).
func (c *Cluster) resync() {
	for _, st := range c.streamers {
		s := st.dst
		if s.activated || s.gapErr != nil {
			continue
		}
		recs, ok := c.primary.Log().OnlineRecords(s.ReceivedSCN() + 1)
		if !ok {
			s.gapErr = fmt.Errorf("standby: resync gap: online redo past SCN %d was overwritten", s.ReceivedSCN())
			continue
		}
		st.nextSeq = s.wantSeq
		st.outbox = nil
		st.start()
		st.enqueue(recs)
		c.st.Resyncs++
	}
	c.ackWake.Broadcast(c.k)
}

// candidate picks the stand-by a failover would promote: the healthy one
// with the highest received watermark (lowest index on ties —
// deterministic), or nil.
func (c *Cluster) candidate() *Standby {
	var best *Standby
	for _, s := range c.standbys {
		if s.activated || s.gapErr != nil {
			continue
		}
		if best == nil || s.ReceivedSCN() > best.ReceivedSCN() {
			best = s
		}
	}
	return best
}

// Promote fails the cluster over: the candidate stand-by is activated on
// the recovery pipeline and becomes the new primary. Implements the fault
// injector's failover hook.
func (c *Cluster) Promote(p *sim.Proc) (*recovery.Report, error) {
	if c.promoted != nil {
		return nil, errors.New("standby: cluster already failed over")
	}
	best := c.candidate()
	if best == nil {
		return nil, errors.New("standby: no healthy standby to promote")
	}
	c.lastEstimate = best.EstimateRTO()
	if lag := int64(c.flushedAtDown) - int64(best.ReceivedSCN()); lag > 0 {
		c.promotedLag = lag
	}
	rep, err := best.Promote(p)
	if err != nil {
		return nil, err
	}
	c.promoted = best
	return rep, nil
}

// Promoted returns the stand-by that took over, or nil.
func (c *Cluster) Promoted() *Standby { return c.promoted }

// ActiveInstance returns the serving instance: the promoted stand-by
// after a failover, the primary before.
func (c *Cluster) ActiveInstance() *engine.Instance {
	if c.promoted != nil {
		return c.promoted.Instance()
	}
	return c.primary
}

// PromotedSCN is the new incarnation's starting watermark: changes above
// it are the failover's data loss.
func (c *Cluster) PromotedSCN() redo.SCN {
	if c.promoted == nil {
		return 0
	}
	return c.promoted.AppliedSCN()
}

// PromotedLag is the record count the promoted stand-by trailed the
// primary's flushed stream by at the crash — the measured upper bound on
// the async RPO.
func (c *Cluster) PromotedLag() int64 { return c.promotedLag }

// LastRTOEstimate is the promoted stand-by's RTO estimate captured at
// the promotion decision (before any work), for comparison against the
// measured failover time.
func (c *Cluster) LastRTOEstimate() time.Duration { return c.lastEstimate }

// Standbys returns the cluster's stand-bys, first tier first.
func (c *Cluster) Standbys() []*Standby { return c.standbys }

// FirstTier returns the number of first-tier (primary-fed) stand-bys.
func (c *Cluster) FirstTier() int { return c.firstTier }

// Links returns the replication links in wiring order: first tier, then
// cascades — the chaos harness's fault surface.
func (c *Cluster) Links() []*sim.Link { return c.links }

// StreamHash folds every stand-by's transport fingerprint into one
// value, in wiring order.
func (c *Cluster) StreamHash() uint64 {
	h := uint64(fnvOffset)
	for _, s := range c.standbys {
		h = fnvWord(h, s.streamHash)
	}
	return h
}

// ClusterStats counts replication activity: frames and bytes delivered,
// records streamed, sync commit waits, sync commits failed by a primary
// loss, and stream resyncs. The chaos harness folds them into its
// determinism fingerprints.
type ClusterStats struct {
	Frames, Bytes, Records       int64
	SyncWaits, SyncLost, Resyncs int64
}

// Stats returns the cluster's repl.* counters.
func (c *Cluster) Stats() ClusterStats { return c.st }

// VReplication reports the V$REPLICATION view rows, one per stand-by.
func (c *Cluster) VReplication() []monitor.ReplicationRow {
	rows := make([]monitor.ReplicationRow, 0, len(c.standbys))
	for i, s := range c.standbys {
		mode := c.cfg.Mode.String()
		if i >= c.firstTier {
			mode = "casc"
		}
		status := "APPLYING"
		switch {
		case s.activated:
			status = "PRIMARY"
		case s.gapErr != nil:
			status = "GAP"
		}
		rows = append(rows, monitor.ReplicationRow{
			Target:      s.name,
			Mode:        mode,
			ReceivedSCN: int64(s.ReceivedSCN()),
			AppliedSCN:  int64(s.appliedSCN),
			LagRecords:  s.Lag(),
			Frames:      s.stats.Frames,
			Bytes:       s.stats.StreamBytes,
			Status:      status,
		})
	}
	return rows
}

// RegisterProbes adds the replication gauges to the primary's MMON
// repository: worst first-tier apply lag, live RTO estimate for the
// stand-by a failover would pick, and accumulated link partition stalls.
func (c *Cluster) RegisterProbes(repo *monitor.Repository) {
	repo.AddProbe("repl.lag.records", func() int64 {
		var worst int64
		for _, s := range c.standbys[:c.firstTier] {
			if l := s.Lag(); l > worst {
				worst = l
			}
		}
		return worst
	})
	repo.AddProbe("repl.rto.estimate.ms", func() int64 {
		best := c.candidate()
		if best == nil {
			return 0
		}
		return best.EstimateRTO().Milliseconds()
	})
	repo.AddProbe("repl.link.stalls", func() int64 {
		var n int64
		for _, l := range c.links {
			n += l.PartitionStalls()
		}
		return n
	})
}
