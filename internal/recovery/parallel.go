// The redo-apply pass. Every recovery that rolls redo forward — instance,
// datafile and tablespace media, point-in-time, failover — runs the one
// pass in this file (streamApply): the coordinator scans the stream in SCN
// order, runs the per-record rule (losers.go) on each record and routes
// each data change's image change to whoever makes it. The recovery
// fan-out decides only that "who": at one worker the coordinator, inline
// and in scan order, with no other process; at N > 1 an apply crew of N
// simulation processes, partitioned by block — storage.BlockRef.Route, the
// same hash the buffer cache shards with — each consuming its queue in
// arrival order, so every block's SCN apply order is kept. Workers charge
// their apply CPU against the instance's CPU slots, so the speedup is
// bounded by the configured CPU count. The crew is started when the pass
// opens and joined at its shutdown, and the block-write pass at N > 1
// starts and joins its I/O workers, through the one sim.FanOut. The crew
// drains to a barrier before every DDL replay and phase transition, which
// keeps the phase timeline contiguous and nests worker spans inside their
// phase's span. Recovered
// images and report counts are identical at every worker count
// (differential_test.go); only the virtual time differs
// (virtual_time_test.go pins it).
package recovery

import (
	"math"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/trace"
)

// workerFor routes a block to one of n apply workers via the shared
// block routing hash. A block always lands on the same worker, so
// per-worker FIFO queues preserve each block's SCN order.
func workerFor(ref storage.BlockRef, n int) int {
	return int(ref.Route() % uint32(n))
}

// routed is one redo record queued for a worker, its block already
// resolved by the coordinator (catalog lookups stay on the coordinator
// so DDL replay keeps its scan-order semantics).
type routed struct {
	rec *redo.Record
	ref storage.BlockRef
}

// applyCrew is a set of redo-apply worker processes fed by the pass's
// coordinator. pending counts records routed but not yet applied and
// charged; drain waits for it to reach zero — the barrier used before
// DDL replay, the undo pass and every phase transition. The kernel runs
// one process at a time, so the state the crew shares with the pass
// (Report counters, touched set, queues) needs no locking, and execution
// stays deterministic for a given seed.
type applyCrew struct {
	sa *streamApply

	workers []applyWorker
	pending int
	idle    sim.Cond
	closed  bool
	fan     *sim.Fan
}

type applyWorker struct {
	id    int
	queue []routed
	work  sim.Cond
	span  trace.SpanID
}

// newApplyCrew starts sa.n apply workers on the instance's kernel, each
// its own one-worker part of the fan-out that shutdown joins.
func newApplyCrew(p *sim.Proc, sa *streamApply) *applyCrew {
	c := &applyCrew{sa: sa, workers: make([]applyWorker, sa.n)}
	parts := make([][]applyWorker, sa.n)
	for i := range c.workers {
		c.workers[i].id = i
		parts[i] = c.workers[i : i+1]
	}
	c.fan = sim.FanOut(p.Kernel(), "recovery-apply", parts, func(wp *sim.Proc, _ int, w []applyWorker) error {
		c.runWorker(wp, &w[0])
		return nil
	})
	return c
}

func (c *applyCrew) runWorker(p *sim.Proc, w *applyWorker) {
	k := p.Kernel()
	in := c.sa.m.in
	cost := in.Config().Cost.RedoApplyPerRecord
	cpu := in.CPU()
	owed := applyMeter{pay: func(d time.Duration) { cpu.Use(p, d) }}
	done := 0
	// settle pays the accrued CPU and only then publishes the consumed
	// records, so drain returns strictly after every routed record has
	// been applied and its cost charged.
	settle := func() {
		owed.flush()
		if done > 0 {
			c.pending -= done
			done = 0
			if c.pending == 0 {
				c.idle.Broadcast(k)
			}
		}
	}
	for {
		if len(w.queue) == 0 {
			settle()
			if len(w.queue) > 0 {
				// More work arrived while paying the CPU debt.
				continue
			}
			c.endWorkerSpan(p, w)
			if c.closed {
				return
			}
			w.work.Wait(p)
			continue
		}
		c.beginWorkerSpan(p, w)
		batch := w.queue
		w.queue = nil
		for i := range batch {
			if ApplyToImage(batch[i].rec, batch[i].ref) {
				c.sa.book(batch[i].rec, batch[i].ref)
				owed.add(cost)
			}
			done++
		}
	}
}

// beginWorkerSpan opens the worker's segment span as a child of the
// current phase span; endWorkerSpan closes it when the worker drains.
// A worker busy across several dispatches gets one span per busy
// stretch, always nested inside the phase it worked under.
func (c *applyCrew) beginWorkerSpan(p *sim.Proc, w *applyWorker) {
	if w.span != 0 {
		return
	}
	tl := c.sa.tl
	w.span = tl.tr.BeginChild(p.Now(), trace.CatRecovery, "recovery",
		"apply worker", tl.currentSpan(), trace.I("worker", int64(w.id)))
}

func (c *applyCrew) endWorkerSpan(p *sim.Proc, w *applyWorker) {
	if w.span == 0 {
		return
	}
	c.sa.tl.tr.End(p.Now(), w.span)
	w.span = 0
}

// dispatch routes one record to its block's worker.
func (c *applyCrew) dispatch(p *sim.Proc, rec *redo.Record, ref storage.BlockRef) {
	w := &c.workers[workerFor(ref, len(c.workers))]
	w.queue = append(w.queue, routed{rec: rec, ref: ref})
	c.pending++
	w.work.Signal(p.Kernel())
}

// drain blocks until every routed record has been applied and charged.
func (c *applyCrew) drain(p *sim.Proc) {
	for c.pending > 0 {
		c.idle.Wait(p)
	}
}

// shutdown stops the workers and waits for their processes to exit, so
// their spans are closed before the next phase opens (or the failed
// recovery's spans are). Workers finish whatever is already queued first;
// the pass drains before it calls this, a failed scan does not.
func (c *applyCrew) shutdown(p *sim.Proc) {
	c.closed = true
	k := p.Kernel()
	for i := range c.workers {
		c.workers[i].work.Broadcast(k)
	}
	c.fan.Join(p)
}

// streamApply is the one forward/undo pass of recovery. Its coordinator
// takes redo in SCN order — the whole stream at once, or archive by archive
// when the scan is pipelined into a crew — into its loser table, whose
// losers it undoes once the scan completes.
type streamApply struct {
	m   *Manager
	rep *Report
	tl  *timeline
	// n is the recovery fan-out; crew is nil at n == 1, where the
	// coordinator applies every routed record itself.
	n      int
	crew   *applyCrew
	cs     applyMeter
	losers *Losers
	// until is the last SCN the pass rolls forward to; commits beyond it
	// are counted as lost (point-in-time recovery's stop point).
	until   redo.SCN
	touched map[storage.BlockRef]bool
}

// newStreamApply opens the pass into a loser table at the instance's
// current recovery fan-out (read here, so an ALTER SYSTEM SET applies to
// the next recovery) and starts the crew when that is > 1.
func (m *Manager) newStreamApply(p *sim.Proc, rep *Report, tl *timeline, losers *Losers) *streamApply {
	sa := &streamApply{
		m: m, rep: rep, tl: tl,
		n:       m.in.RecoveryParallelism(),
		cs:      applyMeter{pay: p.Sleep},
		losers:  losers,
		until:   math.MaxInt64,
		touched: make(map[storage.BlockRef]bool),
	}
	if sa.n > 1 {
		sa.crew = newApplyCrew(p, sa)
	}
	return sa
}

// book counts an applied record; whoever applied it pays the CPU.
func (sa *streamApply) book(rec *redo.Record, ref storage.BlockRef) {
	sa.rep.RecordsApplied++
	sa.rep.BytesApplied += rec.Size()
	sa.touched[ref] = true
}

// roll scans redo from SCN `from` through the pass and completes it.
// A crew is fed from inside the scan, each archived log's records as
// soon as they are read, so workers replay one archive while the
// coordinator pays the open-and-read cost of the next. The inline pass
// reads, then applies: feeding it per archive would move the apply CPU
// into the archive-replay phase (and, with the instance open, shift the
// disk contention of everything after). A failed scan stops the crew
// here, for every caller.
func (sa *streamApply) roll(p *sim.Proc, from, stamp redo.SCN) error {
	var sink func(*sim.Proc, []redo.Record)
	if sa.crew != nil {
		sink = sa.feed
	}
	recs, err := sa.m.redoRange(p, sa.rep, from, sa.tl, sink)
	if err != nil {
		if sa.crew != nil {
			sa.crew.shutdown(p)
		}
		return err
	}
	if sink == nil {
		sa.feed(p, recs)
	}
	return sa.finish(p, stamp)
}

// feed scans one batch of redo records in SCN order. DDL is a barrier:
// the crew drains before the dictionary changes, so every record resolves
// against the catalog state an in-order replay sees.
func (sa *streamApply) feed(p *sim.Proc, recs []redo.Record) {
	sa.tl.setWorkers(sa.n)
	cost := sa.m.in.Config().Cost.RedoApplyPerRecord
	for i := range recs {
		rec := &recs[i]
		if rec.SCN > sa.until {
			if rec.Op == redo.OpCommit {
				sa.rep.LostCommits++
			}
			continue
		}
		sa.rep.RecordsScanned++
		switch {
		case sa.losers.only != nil:
			// Media recovery: every scanned record costs a quarter
			// charge, and the live dictionary replays no DDL.
			sa.cs.add(cost / 4)
		case rec.Op == redo.OpDDL:
			if sa.crew != nil {
				sa.crew.drain(p)
			}
			sa.cs.add(cost)
		case !rec.IsDataChange():
			sa.cs.add(cost / 4)
		}
		if sa.crew != nil {
			if ref, ok := sa.losers.route(rec); ok {
				sa.crew.dispatch(p, rec, ref)
			}
		} else if ref, ok := sa.losers.Apply(rec); ok {
			sa.book(rec, ref)
			sa.cs.add(cost)
		}
	}
}

// finish completes the pass: the undo of losers — on the coordinator, in
// reverse SCN order, re-resolving each record against the post-DDL
// catalog — and the block-write phase at the pass's fan-out. A crew is
// drained and stopped first, after the coordinator has paid its own
// accrued CPU; the inline pass carries that remainder (under one chunk)
// into the undo phase instead.
func (sa *streamApply) finish(p *sim.Proc, stamp redo.SCN) error {
	if sa.crew != nil {
		sa.cs.flush()
		sa.crew.drain(p)
		sa.crew.shutdown(p)
	}
	sa.tl.phase(p, PhaseUndoRollback)
	cost := sa.m.in.Config().Cost.RedoApplyPerRecord
	sa.rep.LosersRolledBack = sa.losers.undo(stamp, func(ref storage.BlockRef) {
		sa.touched[ref] = true
		sa.cs.add(cost)
	})
	sa.cs.flush()
	sa.tl.phase(p, PhaseBlockWrites)
	sa.tl.setWorkers(sa.n)
	return sa.m.chargeBlockPasses(p, sa.touched, sa.n, sa.tl)
}

// chargeBlockPasses charges the recovery block I/O — one sorted
// sequential read pass and one sorted sequential write pass over the
// touched blocks — fanned out across n IO workers, whole files at a
// time: a file's blocks stay one sequential pass, and different files —
// spread over the data disks — proceed concurrently. At n <= 1 the
// caller's process does it all. Only the I/O charging is concurrent; the
// images were already written by the apply and undo passes.
func (m *Manager) chargeBlockPasses(p *sim.Proc, touched map[storage.BlockRef]bool, n int, tl *timeline) error {
	refs := SortedRefs(touched)
	if n <= 1 {
		return blockPass(p, refs)
	}
	parts := make([][]storage.BlockRef, n)
	for _, ref := range refs {
		i := int(ref.File.ShardHint() % uint32(n))
		parts[i] = append(parts[i], ref)
	}
	return sim.FanOut(p.Kernel(), "recovery-io", parts, func(wp *sim.Proc, i int, part []storage.BlockRef) error {
		span := tl.tr.BeginChild(wp.Now(), trace.CatRecovery, "recovery",
			"io worker", tl.currentSpan(), trace.I("worker", int64(i)))
		err := blockPass(wp, part)
		tl.tr.End(wp.Now(), span, trace.I("blocks", int64(len(part))))
		return err
	}).Join(p)
}
