// Package bufcache implements the database buffer cache: an LRU cache of
// data blocks with dirty tracking, demand paging charged to the simulated
// disks, and checkpoint draining.
//
// Checkpoint cost — reading the dirty list and forcing it to the datafiles
// — is the central performance/recovery trade-off the paper studies: the
// more often the cache is drained, the less redo crash recovery must
// replay, but the more disk bandwidth the foreground workload loses.
//
// The cache is sharded: each shard owns its own buffer map, LRU order and
// dirty list, sized so a multi-warehouse working set does not funnel every
// lookup through one LRU and — more importantly — so DBWR/CKPT walk only
// per-shard dirty lists instead of scanning every resident buffer. Shard
// placement mixes the datafile's stable ShardHint with the block number,
// so it is deterministic across runs and identical for every worker count.
//
// A shard's LRU order is one slice of buffers, least recently used first,
// in which each buffer knows its slot: a hit moves the buffer to the end
// and leaves nil behind, and the slice compacts in place when it is full
// and at least half nil, so once it has grown neither a hit nor a miss
// allocates. An eviction pass walks the slice in
// place, in the order the shard had when the pass began: a pass waits on
// dirty writes, and a buffer touched meanwhile, before the pass reached
// it, is recorded against the slot it left, where the pass still visits
// it.
package bufcache

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/trace"
)

// ErrNoEvictable reports that every buffer is dirty and unwritable, so a
// miss cannot be served.
var ErrNoEvictable = errors.New("bufcache: no evictable buffer")

type bufKey struct {
	file *storage.Datafile
	no   int
}

type buffer struct {
	ref   storage.BlockRef
	block *storage.Block

	dirty bool
	// firstDirtySCN is the SCN of the earliest unflushed change in the
	// buffer; recovery must start no later than the minimum over all
	// dirty buffers.
	firstDirtySCN redo.SCN

	slot int // the buffer's index in its shard's order
}

// shard is one independently evictable slice of the cache: its own
// residency map, LRU order, and dirty list.
type shard struct {
	capacity int
	buffers  map[bufKey]*buffer
	// order holds the resident buffers least recently used first, each at
	// its slot, with nil in the slots buffers have left; order[head] is the
	// least recently used buffer (head == len(order) when there is none).
	// It holds at most twice the capacity (see push).
	order []*buffer
	head  int
	dirty map[bufKey]*buffer
	// passes are the eviction passes over order: the open ones, which a
	// touch must tell about the slot it vacates, and closed ones kept for
	// reuse. A pass yields in its writes, so several can be open at once.
	passes []pass
}

// pass is one eviction pass: it visits the shard's buffers in the order
// they had when it began.
type pass struct {
	open bool
	// pos and end bound the slots still to visit: of the shard's order, or
	// of rest once detached.
	pos, end int
	// moved are the buffers touched away from a slot in [pos, end) while
	// the pass was open; the pass visits each at the slot it left.
	moved []movedBuffer
	// A compaction renumbers the slots: an open pass first takes what it
	// has left into rest and walks that from then on.
	rest     []*buffer
	detached bool
}

type movedBuffer struct {
	slot int
	b    *buffer
}

func newShard(capacity int) *shard {
	return &shard{
		capacity: capacity,
		buffers:  make(map[bufKey]*buffer, capacity),
		dirty:    make(map[bufKey]*buffer),
	}
}

// push makes b, new or just unlinked, the most recently used buffer. A
// full order doubles, up to twice the capacity, while more than half its
// slots hold buffers, and compacts in place otherwise: it grows with what
// the shard holds, and a full shard's compacts at twice the capacity.
func (s *shard) push(b *buffer) {
	if n := len(s.order); n == cap(s.order) {
		if m := min(2*n, 2*s.capacity); m > n && 2*len(s.buffers) > n {
			s.order = append(make([]*buffer, 0, m), s.order...)
		} else {
			s.compact()
		}
	}
	b.slot = len(s.order)
	s.order = append(s.order, b)
}

// touch makes a resident buffer the most recently used. An open pass that
// has still to reach b's slot records b there.
func (s *shard) touch(b *buffer) {
	if b.slot == len(s.order)-1 {
		return
	}
	for i := range s.passes {
		if ps := &s.passes[i]; ps.open && !ps.detached && ps.pos <= b.slot && b.slot < ps.end {
			ps.moved = append(ps.moved, movedBuffer{b.slot, b})
		}
	}
	s.unlink(b)
	s.push(b)
}

// unlink takes b out of the order.
func (s *shard) unlink(b *buffer) {
	s.order[b.slot] = nil
	for s.head < len(s.order) && s.order[s.head] == nil {
		s.head++
	}
}

// drop removes a resident buffer from the shard. An open pass that has
// still to reach it skips it: its slot is nil and nothing is recorded.
func (s *shard) drop(key bufKey, b *buffer) {
	s.unlink(b)
	delete(s.buffers, key)
}

// compact moves the buffers to the front of the order, in order. Every
// open pass still walking the order first takes what it has left.
func (s *shard) compact() {
	for i := range s.passes {
		if ps := &s.passes[i]; ps.open && !ps.detached {
			rest := ps.rest[:0]
			for b := s.candidate(ps); b != nil; b = s.candidate(ps) {
				rest = append(rest, b)
			}
			ps.rest, ps.pos, ps.end, ps.detached = rest, 0, len(rest), true
		}
	}
	n := 0
	for _, b := range s.order[s.head:] {
		if b != nil {
			b.slot = n
			s.order[n] = b
			n++
		}
	}
	clear(s.order[n:])
	s.order, s.head = s.order[:n], 0
}

// openPass starts an eviction pass at the head of the order and returns
// its index in passes; closePass ends it.
func (s *shard) openPass() int {
	i := 0
	for i < len(s.passes) && s.passes[i].open {
		i++
	}
	if i == len(s.passes) {
		s.passes = append(s.passes, pass{})
	}
	ps := &s.passes[i]
	ps.open, ps.pos, ps.end = true, s.head, len(s.order)
	return i
}

// closePass ends pass i, keeping no buffer reachable from it.
func (s *shard) closePass(i int) {
	ps := &s.passes[i]
	clear(ps.moved)
	clear(ps.rest)
	ps.moved, ps.rest = ps.moved[:0], ps.rest[:0]
	ps.open, ps.detached = false, false
}

// candidate returns the pass's next buffer, or nil once it has visited
// every buffer the shard held when it began. A buffer dropped meanwhile
// is either not returned or no longer the resident one for its block.
func (s *shard) candidate(ps *pass) *buffer {
	for ps.pos < ps.end {
		slot := ps.pos
		ps.pos++
		if ps.detached {
			return ps.rest[slot]
		}
		if b := s.order[slot]; b != nil {
			return b
		}
		for i, m := range ps.moved {
			if m.slot == slot {
				last := len(ps.moved) - 1
				ps.moved[i], ps.moved[last] = ps.moved[last], movedBuffer{}
				ps.moved = ps.moved[:last]
				return m.b
			}
		}
	}
	return nil
}

// Stats counts cache activity for the benchmark reports. Its fields are
// the cache's counters themselves: the cache increments them in place and
// Counters registers each one as "cache.<snake_case_field>".
type Stats struct {
	Hits             int64
	Misses           int64
	Evictions        int64
	DirtyEvictWrites int64
	CheckpointWrites int64
	SkippedWrites    int64
	UnflushedSkips   int64
}

// Cache is the database buffer cache. It is used only from simulation
// processes, so it needs no locking.
type Cache struct {
	k        *sim.Kernel
	capacity int

	shards []*shard
	mask   uint32
	nDirty int

	// FlushLog, when set, is called before any dirty block is written
	// to disk, with the block's last-change SCN. It enforces the
	// write-ahead rule: redo for a change must be durable before the
	// changed block is.
	FlushLog func(p *sim.Proc, scn redo.SCN) error

	// FlushableSCN, when set, reports the horizon the log writer can
	// reach without waiting on an unreleased group. Checkpoint skips
	// buffers whose newest change lies beyond it rather than waiting:
	// the log writer may be stalled on a "checkpoint not complete"
	// group switch that only this checkpoint's completion can release,
	// so waiting would deadlock. Skipped buffers stay dirty and bound
	// the checkpoint position through MinDirtySCN.
	FlushableSCN func() redo.SCN

	// Trace, when set, receives dbwr-category events (evict writes,
	// write-ahead forces, checkpoint skips). A nil tracer is valid.
	Trace *trace.Tracer

	st Stats
}

// minShardCapacity is the smallest per-shard buffer count worth splitting
// for: below it, sharding a tiny cache would just multiply eviction
// pressure. Small caches therefore get a single shard (preserving the
// exact LRU semantics the eviction tests pin down).
const minShardCapacity = 256

// maxShards bounds the shard fan-out.
const maxShards = 16

// shardCountFor picks a power-of-two shard count such that every shard
// keeps at least minShardCapacity buffers.
func shardCountFor(capacity int) int {
	n := 1
	for n < maxShards && capacity/(n*2) >= minShardCapacity {
		n *= 2
	}
	return n
}

// New returns a cache holding at most capacity blocks, sharded by size
// (shardCountFor), the capacity spread evenly over the shards.
func New(k *sim.Kernel, capacity int) *Cache {
	capacity = max(capacity, 1)
	n := shardCountFor(capacity)
	c := &Cache{
		k:        k,
		capacity: capacity,
		mask:     uint32(n - 1),
	}
	base, extra := capacity/n, capacity%n
	for i := 0; i < n; i++ {
		cap := base
		if i < extra {
			cap++
		}
		c.shards = append(c.shards, newShard(cap))
	}
	return c
}

// shardFor maps a block to its home shard: the shared block routing hash
// (storage.BlockRef.Route — the datafile's creation-time hash mixed with
// the block number), masked to the power-of-two shard count.
func (c *Cache) shardFor(key bufKey) *shard {
	return c.shards[storage.BlockRef{File: key.file, No: key.no}.Route()&c.mask]
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats { return c.st }

// Counters returns the cache's registry rows, one per Stats field.
func (c *Cache) Counters() []trace.Counter {
	return []trace.Counter{
		{Name: "cache.hits", V: &c.st.Hits},
		{Name: "cache.misses", V: &c.st.Misses},
		{Name: "cache.evictions", V: &c.st.Evictions},
		{Name: "cache.dirty_evict_writes", V: &c.st.DirtyEvictWrites},
		{Name: "cache.checkpoint_writes", V: &c.st.CheckpointWrites},
		{Name: "cache.skipped_writes", V: &c.st.SkippedWrites},
		{Name: "cache.unflushed_skips", V: &c.st.UnflushedSkips},
	}
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		n += len(s.buffers)
	}
	return n
}

// DirtyCount returns the number of dirty buffers.
func (c *Cache) DirtyCount() int { return c.nDirty }

// setClean marks a resident buffer clean and removes it from its shard's
// dirty list. Two writers of one dirty buffer can both clean it.
func (c *Cache) setClean(s *shard, key bufKey, b *buffer) {
	if b.dirty {
		c.nDirty--
	}
	b.dirty = false
	delete(s.dirty, key)
}

// Get returns the cached block for ref, reading it from disk on a miss
// (charged to the datafile's disk). The returned block is to be read: it
// may be the durable image itself. A caller that wants to change it calls
// MarkDirty before yielding and changes the block MarkDirty returns.
func (c *Cache) Get(p *sim.Proc, ref storage.BlockRef) (*storage.Block, error) {
	key := bufKey{file: ref.File, no: ref.No}
	s := c.shardFor(key)
	if b, ok := s.buffers[key]; ok {
		c.st.Hits++
		s.touch(b)
		return b.block, nil
	}
	c.st.Misses++
	for len(s.buffers) >= s.capacity {
		if err := c.evictOne(p, s); err != nil {
			return nil, err
		}
	}
	blk, err := ref.File.ReadBlock(p, ref.No)
	if err != nil {
		return nil, fmt.Errorf("bufcache: miss read: %w", err)
	}
	// The disk read yielded: another process may have loaded the block
	// meanwhile. Use the resident buffer in that case — two live copies
	// of one block would lose whichever's updates are written last.
	if b, ok := s.buffers[key]; ok {
		s.touch(b)
		return b.block, nil
	}
	b := &buffer{ref: ref, block: blk}
	s.push(b)
	s.buffers[key] = b
	return b.block, nil
}

// Peek returns the cached block without promotion or I/O; ok reports a hit.
func (c *Cache) Peek(ref storage.BlockRef) (*storage.Block, bool) {
	key := bufKey{file: ref.File, no: ref.No}
	b, ok := c.shardFor(key).buffers[key]
	if !ok {
		return nil, false
	}
	return b.block, true
}

// MarkDirty records that the block for ref changes at scn and returns the
// block to change: the resident image, or — when the datafile, a backup or
// a write in progress also holds that one — its clone, which replaces it in
// the buffer. The block must be resident, and the caller makes its change
// before yielding.
func (c *Cache) MarkDirty(ref storage.BlockRef, scn redo.SCN) *storage.Block {
	key := bufKey{file: ref.File, no: ref.No}
	s := c.shardFor(key)
	b, ok := s.buffers[key]
	if !ok {
		panic(fmt.Sprintf("bufcache: MarkDirty on non-resident block %v", ref))
	}
	if !b.dirty {
		b.dirty = true
		b.firstDirtySCN = scn
		s.dirty[key] = b
		c.nDirty++
	}
	if b.block.Shared() {
		b.block = b.block.Clone()
	}
	b.block.SCN = scn
	return b.block
}

// outcome is what writeBack did with a dirty buffer.
type outcome uint8

const (
	// stale: the buffer was evicted or cleaned by another process while
	// the log was forced, so there was nothing left to write.
	stale outcome = iota
	// unforced: the log force failed (the log writer is down); every
	// caller gives up with the error.
	unforced
	// unwritten: the datafile refused the image; what that means is the
	// caller's policy.
	unwritten
	// written: the image is durable. The buffer is clean, or — changed
	// while it was being written — dirty from the image's SCN + 1.
	written
)

// writeBack is the one write of a dirty buffer to its datafile; the
// eviction pass, the checkpoint and the two forced sweeps differ only in
// what they do with its outcome. The order is what makes the write safe.
// Freeze the image BEFORE forcing the log: both the flush wait and the
// disk write yield, and a concurrent transaction may change the buffer
// meanwhile. Writing an image that change could reach would persist a
// newer, possibly unflushed change — a write-ahead violation that leaves an
// unrecoverable half-transaction on disk after a crash. Marked shared, the
// image holds only changes the forced flush covers, for good: MarkDirty
// gives a later change a clone, and the datafile takes the image itself —
// nothing is copied. Afterwards a buffer that changed while being written
// stays dirty: everything up to the image's SCN is durable, only the newer
// changes still need the next write (or recovery). force bypasses the
// file's online flag. The returned SCN is the image's.
func (c *Cache) writeBack(p *sim.Proc, s *shard, key bufKey, b *buffer, force bool) (outcome, redo.SCN, error) {
	img := b.block.Share()
	if err := c.forceLog(p, img.SCN); err != nil {
		return unforced, img.SCN, err
	}
	if !b.dirty || s.buffers[key] != b {
		return stale, img.SCN, nil
	}
	var err error
	if force {
		err = b.ref.File.WriteBlockForce(p, b.ref.No, img)
	} else {
		err = b.ref.File.WriteBlock(p, b.ref.No, img)
	}
	if err != nil {
		return unwritten, img.SCN, err
	}
	if b.block.SCN == img.SCN {
		c.setClean(s, key, b)
	} else {
		b.firstDirtySCN = img.SCN + 1
	}
	return written, img.SCN, nil
}

// evictOne makes room for one buffer in shard s: it writes out and drops
// the least recently used evictable buffer. When concurrent processes race
// for the same victims it retries (bounded), waiting a beat for their
// writes to finish; ErrNoEvictable is returned only when every buffer is
// dirty on an unwritable file.
func (c *Cache) evictOne(p *sim.Proc, s *shard) error {
	for attempt := 0; attempt < 64; attempt++ {
		if len(s.buffers) < s.capacity {
			return nil // concurrent evictions made room
		}
		yielded, evicted, err := c.tryEvict(p, s)
		if err != nil {
			return err
		}
		if evicted {
			return nil
		}
		if !yielded {
			// The pass observed a stable shard with nothing
			// evictable: give up.
			return ErrNoEvictable
		}
		// Other processes are mid-eviction; let them finish.
		p.Sleep(time.Millisecond)
	}
	return ErrNoEvictable
}

// tryEvict runs one eviction pass over the shard's LRU order as of the
// pass's start — not a live walk: that order is what it continues in after
// a write yields. It reports whether the pass yielded control (so the
// cache may have changed) and whether a buffer was evicted.
func (c *Cache) tryEvict(p *sim.Proc, s *shard) (yielded, evicted bool, err error) {
	i := s.openPass()
	defer s.closePass(i)
	// s.passes may grow while a write yields: index it afresh each time.
	for b := s.candidate(&s.passes[i]); b != nil; b = s.candidate(&s.passes[i]) {
		key := bufKey{file: b.ref.File, no: b.ref.No}
		if s.buffers[key] != b {
			continue // evicted by a concurrent process meanwhile
		}
		if b.dirty {
			out, scn, werr := c.writeBack(p, s, key, b, false)
			if out == unforced {
				return yielded, false, werr
			}
			yielded = true
			switch out {
			case unwritten:
				continue // unwritable: try an older buffer
			case written:
				c.st.DirtyEvictWrites++
				c.Trace.Instant(p.Now(), trace.CatDBWR, "DBWR", "evict write",
					trace.S("file", b.ref.File.Name), trace.I("block", int64(b.ref.No)), trace.I("scn", int64(scn)))
			}
			// Stale, or written: evict below unless it is gone already or
			// was modified while writing.
		}
		if s.buffers[key] != b {
			continue // gone while the log was forced
		}
		if b.dirty {
			continue // modified while writing: the newer change is not durable yet
		}
		s.drop(key, b)
		c.st.Evictions++
		return yielded, true, nil
	}
	return yielded, false, nil
}

// dirtySnapshot collects the current dirty buffers (optionally restricted
// to one datafile) from the per-shard dirty lists — the sharding win: the
// scan touches only dirty buffers, never the full residency maps — and
// sorts them by (file name, block number) so write order is deterministic
// regardless of shard layout.
func (c *Cache) dirtySnapshot(f *storage.Datafile) []*buffer {
	var snap []*buffer
	for _, s := range c.shards {
		for _, b := range s.dirty {
			if f == nil || b.ref.File == f {
				snap = append(snap, b)
			}
		}
	}
	sortBuffers(snap)
	return snap
}

// Checkpoint writes every dirty buffer that existed when the call started
// to its datafile, charging the writes to the calling process. Buffers on
// lost or offline files are skipped and remain dirty. It returns the
// number of blocks written.
func (c *Cache) Checkpoint(p *sim.Proc) (int, error) {
	// Snapshot the dirty set: blocks dirtied while the checkpoint is in
	// progress belong to the next checkpoint.
	snap := c.dirtySnapshot(nil)
	n := 0
	for _, b := range snap {
		if !b.dirty {
			continue // cleaned concurrently (evicted)
		}
		if c.FlushableSCN != nil && b.block.SCN > c.FlushableSCN() {
			// The newest change's redo cannot flush right now. Forcing
			// it from the checkpoint would deadlock (see FlushableSCN);
			// leave the buffer for the next checkpoint, clamping this
			// one's position below its first dirty change.
			c.st.UnflushedSkips++
			c.Trace.Instant(p.Now(), trace.CatDBWR, "DBWR", "unflushed skip",
				trace.S("file", b.ref.File.Name), trace.I("block", int64(b.ref.No)), trace.I("scn", int64(b.block.SCN)))
			continue
		}
		key := bufKey{file: b.ref.File, no: b.ref.No}
		// A buffer that changes while being written stays dirty: its newer
		// change has SCN above this checkpoint's position, so the next
		// checkpoint (or recovery) covers it.
		switch out, _, err := c.writeBack(p, c.shardFor(key), key, b, false); out {
		case unforced:
			return n, err
		case unwritten:
			c.st.SkippedWrites++
		case written:
			n++
			c.st.CheckpointWrites++
		}
	}
	return n, nil
}

// MinDirtySCN returns the earliest first-dirty SCN among dirty buffers, or
// -1 when the cache is clean. Crash recovery must begin at or before this
// SCN to reconstruct the lost buffers. Only the per-shard dirty lists are
// scanned.
func (c *Cache) MinDirtySCN() redo.SCN {
	minSCN := redo.SCN(-1)
	for _, s := range c.shards {
		for _, b := range s.dirty {
			if minSCN < 0 || b.firstDirtySCN < minSCN {
				minSCN = b.firstDirtySCN
			}
		}
	}
	return minSCN
}

// InvalidateAll drops every buffer without writing, modelling instance
// crash (SHUTDOWN ABORT): the cache content is simply lost.
func (c *Cache) InvalidateAll() {
	for i, s := range c.shards {
		c.shards[i] = newShard(s.capacity)
	}
	c.nDirty = 0
}

// FlushFileForce writes every dirty buffer of one datafile, bypassing the
// file's online flag (the offline-normal sweep: the file no longer accepts
// DML, so the dirty set can only shrink while we write). Buffers stay
// resident and clean.
func (c *Cache) FlushFileForce(p *sim.Proc, f *storage.Datafile) error {
	snap := c.dirtySnapshot(f)
	refs := make([]storage.BlockRef, len(snap))
	for i, b := range snap {
		refs[i] = b.ref
	}
	return c.FlushBlocksForce(p, refs)
}

// FlushBlocksForce writes the dirty buffers among the given blocks,
// bypassing the files' online flags. Flashback uses it on a frozen
// table's segment: the freeze guarantees the dirty set cannot grow, and
// restricting the sweep to the segment leaves concurrent traffic to other
// tables sharing the same datafiles untouched.
func (c *Cache) FlushBlocksForce(p *sim.Proc, refs []storage.BlockRef) error {
	for _, ref := range refs {
		key := bufKey{file: ref.File, no: ref.No}
		s := c.shardFor(key)
		b, ok := s.buffers[key]
		if !ok || !b.dirty {
			continue
		}
		if _, _, err := c.writeBack(p, s, key, b, true); err != nil {
			return err
		}
	}
	return nil
}

// InvalidateBlocks drops the given blocks' buffers without writing, so
// stale cache content cannot mask images rewritten underneath the cache
// (flashback's reverse-apply). Dirty buffers among them must have been
// flushed first (FlushBlocksForce).
func (c *Cache) InvalidateBlocks(refs []storage.BlockRef) {
	for _, ref := range refs {
		key := bufKey{file: ref.File, no: ref.No}
		s := c.shardFor(key)
		b, ok := s.buffers[key]
		if !ok {
			continue
		}
		if b.dirty {
			c.setClean(s, key, b)
		}
		s.drop(key, b)
	}
}

// InvalidateFile drops all buffers of one datafile without writing (used
// when a file is taken offline for media recovery, so stale cache content
// cannot mask the restored images).
func (c *Cache) InvalidateFile(f *storage.Datafile) {
	for _, s := range c.shards {
		for key, b := range s.buffers {
			if key.file != f {
				continue
			}
			if b.dirty {
				c.setClean(s, key, b)
			}
			s.drop(key, b)
		}
	}
}

// forceLog applies the write-ahead rule before a dirty block write.
func (c *Cache) forceLog(p *sim.Proc, scn redo.SCN) error {
	if c.FlushLog == nil {
		return nil
	}
	start := p.Now()
	err := c.FlushLog(p, scn)
	// Only a force that actually waited is worth an event: most are
	// satisfied by redo already on disk.
	if waited := p.Now().Sub(start); waited > 0 {
		c.Trace.Instant(p.Now(), trace.CatDBWR, "DBWR", "wal force",
			trace.I("scn", int64(scn)), trace.I("wait_ns", int64(waited)))
	}
	return err
}

func sortBuffers(bs []*buffer) {
	slices.SortFunc(bs, func(a, b *buffer) int {
		if c := strings.Compare(a.ref.File.Name, b.ref.File.Name); c != 0 {
			return c
		}
		return cmp.Compare(a.ref.No, b.ref.No)
	})
}
