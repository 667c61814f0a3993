package redo

import (
	"strings"
	"testing"
	"time"

	"dbench/internal/sim"
	"dbench/internal/simdisk"
)

func newTestLog(t *testing.T, groupSize int64, groups int, archive bool) (*sim.Kernel, *simdisk.FS, *Manager) {
	t.Helper()
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("redo"))
	m, err := NewManager(k, fs, Config{
		GroupSizeBytes: groupSize,
		Groups:         groups,
		Disk:           "redo",
		ArchiveMode:    archive,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, fs, m
}

func dataRec(txn TxnID, key int64, payload int) Record {
	return Record{Txn: txn, Op: OpUpdate, Table: "t", Key: key, After: make([]byte, payload)}
}

func TestAppendAssignsMonotonicSCN(t *testing.T) {
	_, _, m := newTestLog(t, 1<<20, 3, false)
	s1 := m.Append(dataRec(1, 1, 10))
	s2 := m.Append(dataRec(1, 2, 10))
	if s2 != s1+1 {
		t.Fatalf("SCNs %d,%d not consecutive", s1, s2)
	}
	if m.NextSCN() != s2+1 {
		t.Fatalf("next SCN = %d", m.NextSCN())
	}
}

func TestCommitWaitsForDurableFlush(t *testing.T) {
	k, fs, m := newTestLog(t, 1<<20, 3, false)
	m.Start()
	var flushedAt sim.Time
	k.Go("writer", func(p *sim.Proc) {
		m.Append(dataRec(1, 1, 100))
		scn := m.Append(Record{Txn: 1, Op: OpCommit})
		if err := m.WaitFlushed(p, scn); err != nil {
			t.Error(err)
		}
		flushedAt = p.Now()
	})
	k.Run(sim.Time(time.Second))
	m.Stop()
	k.RunAll()
	if flushedAt == 0 {
		t.Fatal("commit never became durable")
	}
	if m.FlushedSCN() < 2 {
		t.Fatalf("flushedSCN = %d", m.FlushedSCN())
	}
	_, w, _, wb := fsStats(fs, "redo")
	if w == 0 || wb == 0 {
		t.Fatalf("no disk writes charged: ops=%d bytes=%d", w, wb)
	}
}

func fsStats(fs *simdisk.FS, disk string) (reads, writes, rb, wb int64) {
	r, w, rbb, wbb := fs.Disk(disk).Stats()
	return r, w, rbb, wbb
}

func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	k, _, m := newTestLog(t, 1<<20, 3, false)
	m.Start()
	const writers = 8
	done := 0
	for i := 0; i < writers; i++ {
		txn := TxnID(i + 1)
		k.Go("w", func(p *sim.Proc) {
			m.Append(dataRec(txn, 1, 50))
			scn := m.Append(Record{Txn: txn, Op: OpCommit})
			if err := m.WaitFlushed(p, scn); err != nil {
				t.Error(err)
			}
			done++
		})
	}
	k.Run(sim.Time(time.Second))
	if done != writers {
		t.Fatalf("done = %d, want %d", done, writers)
	}
	// All writers appended before LGWR first ran, so a single flush
	// should have covered everything (group commit).
	if st := m.Stats(); st.Flushes > 2 {
		t.Fatalf("flushes = %d, expected group commit to batch", st.Flushes)
	}
	m.Stop()
	k.RunAll()
}

func TestLogSwitchOnFull(t *testing.T) {
	k, _, m := newTestLog(t, 2048, 3, false)
	m.Start()
	var switched []*Group
	m.OnSwitch = func(p *sim.Proc, old *Group) {
		switched = append(switched, old)
		// Immediately complete the checkpoint so reuse never stalls.
		m.CheckpointCompleted(old.LastSCN())
	}
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			scn := m.Append(dataRec(1, int64(i), 100)) // ~225 bytes each
			if err := m.WaitFlushed(p, scn); err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Run(sim.Time(time.Minute))
	if len(switched) == 0 {
		t.Fatal("no log switch happened")
	}
	if m.Stats().Switches != int64(len(switched)) {
		t.Fatalf("stats.Switches = %d, callbacks = %d", m.Stats().Switches, len(switched))
	}
	// Sequence numbers must increase across switches.
	cur := m.CurrentGroup()
	if cur.Seq < 2 {
		t.Fatalf("current seq = %d", cur.Seq)
	}
	m.Stop()
	k.RunAll()
}

func TestSwitchStallsUntilCheckpointComplete(t *testing.T) {
	k, _, m := newTestLog(t, 2048, 2, false)
	m.Start()
	var pending []*Group
	m.OnSwitch = func(p *sim.Proc, old *Group) { pending = append(pending, old) }
	var lastCommit sim.Time
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			scn := m.Append(dataRec(1, int64(i), 100))
			if err := m.WaitFlushed(p, scn); err != nil {
				return // expected when test ends with log stalled
			}
			lastCommit = p.Now()
		}
	})
	// Complete checkpoints only after 5 virtual seconds; the writer must
	// stall in between because with 2 groups the ring wraps immediately.
	k.Go("ckpt", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		m.CheckpointCompleted(m.NextSCN())
	})
	k.Run(sim.Time(10 * time.Second))
	if m.Stats().CheckpointWaits == 0 {
		t.Fatal("expected checkpoint-not-complete stalls")
	}
	if m.Stats().StallTime == 0 {
		t.Fatal("expected stall time accounted")
	}
	if lastCommit < sim.Time(5*time.Second) {
		t.Fatalf("writer finished at %v before checkpoint completion", lastCommit)
	}
	m.Stop()
	k.RunAll()
}

func TestArchiveModeBlocksReuseUntilArchived(t *testing.T) {
	k, _, m := newTestLog(t, 2048, 2, true)
	m.Start()
	var toArchive []*Group
	m.OnSwitch = func(p *sim.Proc, old *Group) {
		m.CheckpointCompleted(old.LastSCN()) // checkpoint instant
		toArchive = append(toArchive, old)
	}
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			scn := m.Append(dataRec(1, int64(i), 100))
			if err := m.WaitFlushed(p, scn); err != nil {
				return
			}
		}
	})
	k.Go("arch", func(p *sim.Proc) {
		for p.Now() < sim.Time(20*time.Second) {
			p.Sleep(3 * time.Second)
			for _, g := range toArchive {
				m.MarkArchived(g)
			}
			toArchive = nil
		}
	})
	k.Run(sim.Time(20 * time.Second))
	if m.Stats().ArchiveWaits == 0 {
		t.Fatal("expected archival-required stalls")
	}
	m.Stop()
	k.RunAll()
}

func TestOnlineRecordsContiguity(t *testing.T) {
	k, _, m := newTestLog(t, 4096, 2, false)
	m.Start()
	m.OnSwitch = func(p *sim.Proc, old *Group) { m.CheckpointCompleted(old.LastSCN()) }
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			scn := m.Append(dataRec(1, int64(i), 100))
			if err := m.WaitFlushed(p, scn); err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Run(sim.Time(time.Minute))

	// Early SCNs were overwritten by circular reuse.
	if _, ok := m.OnlineRecords(1); ok {
		t.Fatal("SCN 1 should have been overwritten")
	}
	// The most recent records are available and contiguous.
	recs, ok := m.OnlineRecords(m.FlushedSCN() - 5)
	if !ok {
		t.Fatal("recent range should be contiguous")
	}
	if len(recs) != 6 {
		t.Fatalf("len(recs) = %d, want 6", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].SCN != recs[i-1].SCN+1 {
			t.Fatalf("records not in SCN order: %d then %d", recs[i-1].SCN, recs[i].SCN)
		}
	}
	m.Stop()
	k.RunAll()
}

func TestStopDiscardsBuffer(t *testing.T) {
	k, _, m := newTestLog(t, 1<<20, 3, false)
	m.Start()
	m.Append(dataRec(1, 1, 100)) // never flushed
	m.Stop()
	k.RunAll()
	if m.bufferBytes != 0 {
		t.Fatalf("buffer = %d bytes after stop", m.bufferBytes)
	}
	if m.FlushedSCN() != 0 {
		t.Fatalf("flushedSCN = %d, want 0", m.FlushedSCN())
	}
	recs, _ := m.OnlineRecords(0)
	if len(recs) != 0 {
		t.Fatalf("online records = %d after crash with no flush", len(recs))
	}
}

func TestWaitFlushedAfterStopReturnsError(t *testing.T) {
	k, _, m := newTestLog(t, 1<<20, 3, false)
	m.Start()
	var gotErr error
	k.Go("w", func(p *sim.Proc) {
		scn := m.Append(dataRec(1, 1, 100))
		p.Sleep(time.Second) // let Stop run first via the stopper proc
		gotErr = m.WaitFlushed(p, scn+1000)
	})
	k.Go("stopper", func(p *sim.Proc) {
		m.Stop()
	})
	k.RunAll()
	if gotErr == nil {
		t.Fatal("WaitFlushed on stopped log should fail")
	}
}

func TestLostAllMembersIsFatal(t *testing.T) {
	k, fs, m := newTestLog(t, 2048, 2, false)
	m.Start()
	m.OnSwitch = func(p *sim.Proc, old *Group) { m.CheckpointCompleted(old.LastSCN()) }
	var fatal error
	m.OnFatal = func(err error) { fatal = err }
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			scn := m.Append(dataRec(1, int64(i), 100))
			if err := m.WaitFlushed(p, scn); err != nil {
				return
			}
		}
	})
	k.Go("fault", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		for _, g := range m.Groups() {
			for _, member := range g.Members() {
				_ = fs.Delete(member.Name())
			}
		}
	})
	k.Run(sim.Time(time.Minute))
	if fatal == nil {
		t.Fatal("expected fatal log failure")
	}
	if !m.Failed() {
		t.Fatal("manager should report Failed")
	}
	if !strings.Contains(fatal.Error(), "redo") {
		t.Fatalf("fatal = %v", fatal)
	}
	k.RunAll()
}

func TestMultiplexedSurvivesSingleMemberLoss(t *testing.T) {
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("redo"))
	m, err := NewManager(k, fs, Config{
		GroupSizeBytes:  1 << 20,
		Groups:          2,
		MembersPerGroup: 2,
		Disk:            "redo",
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	var fatal error
	m.OnFatal = func(err error) { fatal = err }
	// Delete one member of the current group.
	_ = fs.Delete(m.CurrentGroup().Members()[0].Name())
	ok := false
	k.Go("w", func(p *sim.Proc) {
		scn := m.Append(dataRec(1, 1, 100))
		if err := m.WaitFlushed(p, scn); err == nil {
			ok = true
		}
	})
	k.Run(sim.Time(time.Second))
	if fatal != nil {
		t.Fatalf("fatal with surviving member: %v", fatal)
	}
	if !ok {
		t.Fatal("commit failed despite surviving member")
	}
	m.Stop()
	k.RunAll()
}

func TestForceSwitch(t *testing.T) {
	k, _, m := newTestLog(t, 1<<20, 3, false)
	m.Start()
	m.OnSwitch = func(p *sim.Proc, old *Group) { m.CheckpointCompleted(old.LastSCN()) }
	k.Go("w", func(p *sim.Proc) {
		scn := m.Append(dataRec(1, 1, 100))
		if err := m.WaitFlushed(p, scn); err != nil {
			t.Error(err)
		}
		before := m.CurrentGroup().Seq
		if err := m.ForceSwitch(p); err != nil {
			t.Error(err)
		}
		if m.CurrentGroup().Seq != before+1 {
			t.Errorf("seq %d after force switch, want %d", m.CurrentGroup().Seq, before+1)
		}
		// Empty current group: force switch is a no-op.
		if err := m.ForceSwitch(p); err != nil {
			t.Error(err)
		}
		if m.CurrentGroup().Seq != before+1 {
			t.Errorf("empty force switch advanced seq")
		}
	})
	k.Run(sim.Time(time.Second))
	m.Stop()
	k.RunAll()
}

func TestNewManagerValidation(t *testing.T) {
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("redo"))
	if _, err := NewManager(k, fs, Config{GroupSizeBytes: 1024, Groups: 1, Disk: "redo"}); err == nil {
		t.Fatal("1 group accepted")
	}
	if _, err := NewManager(k, fs, Config{GroupSizeBytes: 0, Groups: 2, Disk: "redo"}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewManager(k, fs, Config{GroupSizeBytes: 1024, Groups: 2, Disk: "nope"}); err == nil {
		t.Fatal("unknown disk accepted")
	}
}

// FlushableSCN must cover the buffered backlog only as far as the current
// group and consecutively reusable groups can hold it: a checkpoint that
// waits for redo beyond that horizon deadlocks against the very group
// switch its completion would release.
func TestFlushableSCNStopsAtUnreusableGroup(t *testing.T) {
	k, _, m := newTestLog(t, 2048, 2, false)
	m.Start() // buffer records; the kernel never runs, so LGWR stays asleep
	// 10 records overflow the current group but fit current + next.
	var scns []SCN
	for i := 0; i < 10; i++ {
		scns = append(scns, m.Append(dataRec(1, int64(i), 100)))
	}
	last := scns[len(scns)-1]
	if got := m.FlushableSCN(); got != last {
		t.Fatalf("with a reusable next group FlushableSCN = %d, want %d", got, last)
	}
	m.groups[1].ckptDone = false // its content now awaits a checkpoint
	got := m.FlushableSCN()
	if got >= last {
		t.Fatalf("FlushableSCN = %d, want below last appended %d", got, last)
	}
	if got < scns[0] {
		t.Fatalf("FlushableSCN = %d, want at least the first record %d (it fits the current group)", got, scns[0])
	}
	m.groups[1].ckptDone = true
	if got := m.FlushableSCN(); got != last {
		t.Fatalf("after releasing the group FlushableSCN = %d, want %d", got, last)
	}
	m.Stop()
	k.RunAll()
}

// A switch stalled on "checkpoint not complete" must not hold back the
// acknowledgment of records already written to the current group: flushed
// progress is per segment, not per drain.
func TestStalledSwitchStillAcknowledgesPlacedRecords(t *testing.T) {
	k, _, m := newTestLog(t, 4096, 2, false)
	m.groups[1].ckptDone = false
	m.Start()
	var early, last SCN
	earlyDone := false
	k.Go("w", func(p *sim.Proc) {
		early = m.Append(dataRec(1, 0, 100))
		for i := 1; i < 25; i++ {
			last = m.Append(dataRec(1, int64(i), 100))
		}
		if err := m.WaitFlushed(p, early); err != nil {
			t.Error(err)
			return
		}
		earlyDone = true
	})
	k.Run(sim.Time(5 * time.Second))
	if !earlyDone {
		t.Fatal("record in the current group never acknowledged while the switch stalled")
	}
	if m.FlushedSCN() >= last {
		t.Fatalf("flushed %d, want the backlog beyond the stalled switch (%d) unflushed", m.FlushedSCN(), last)
	}
	// Releasing the next group unblocks the switch and drains the rest.
	// (CheckpointCompleted only re-marks groups that hold records, so the
	// artificially-flagged empty group is released directly.)
	m.groups[1].ckptDone = true
	m.reusable.Broadcast(k)
	k.Go("w2", func(p *sim.Proc) {
		if err := m.WaitFlushed(p, last); err != nil {
			t.Error(err)
		}
	})
	k.Run(sim.Time(10 * time.Second))
	if m.FlushedSCN() != last {
		t.Fatalf("flushed %d after release, want %d", m.FlushedSCN(), last)
	}
	m.Stop()
	k.RunAll()
}

// The redo buffer is a queue over one backing array: LGWR rewinds it when
// it has drained it, so the next burst of Appends refills the array instead
// of reallocating one whose capacity drained away from the front. Records
// appended while LGWR is blocked in a member write mid-drain are placed
// after the ones before them, in SCN order, exactly once.
func TestRedoBufferReusesItsArray(t *testing.T) {
	k, _, m := newTestLog(t, 1<<20, 3, false)
	m.Start()
	var durable []SCN
	m.OnDurable = func(_ *sim.Proc, recs []Record) {
		for _, r := range recs {
			durable = append(durable, r.SCN)
		}
	}
	const writers, rounds, burst = 2, 50, 8
	arrays := map[*Record]bool{} // every backing array seen while the buffer was empty
	for w := 0; w < writers; w++ {
		w := w
		k.Go("writer", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				var scn SCN
				for j := 0; j < burst; j++ {
					scn = m.Append(dataRec(TxnID(w+1), int64(i*burst+j), 40))
				}
				if err := m.WaitFlushed(p, scn); err != nil {
					t.Error(err)
					return
				}
				if len(m.buffer) == 0 {
					if m.bufHead != 0 {
						t.Errorf("drained buffer left its head at %d", m.bufHead)
					}
					arrays[&m.buffer[:1][0]] = true
				}
			}
		})
	}
	k.Run(sim.Time(time.Minute))
	m.Stop()
	k.RunAll()
	if len(durable) != writers*rounds*burst {
		t.Fatalf("%d records became durable, want %d", len(durable), writers*rounds*burst)
	}
	var placed []SCN
	for _, g := range m.Groups() {
		for _, r := range g.Records() {
			placed = append(placed, r.SCN)
		}
	}
	if len(placed) != len(durable) {
		t.Fatalf("%d records placed in groups, %d durable", len(placed), len(durable))
	}
	for i := range durable {
		if durable[i] != SCN(i+1) || placed[i] != SCN(i+1) {
			t.Fatalf("record %d: durable SCN %d, placed SCN %d: order broken", i, durable[i], placed[i])
		}
	}
	// Doubling to the largest backlog takes a handful of arrays; a buffer
	// that shrinks from the front takes a new one every few rounds.
	if len(arrays) == 0 || len(arrays) > 6 {
		t.Fatalf("the buffer used %d backing arrays over %d rounds, want the same one reused", len(arrays), rounds)
	}
}
