package standby

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/redo"
	"dbench/internal/sim"
)

// syncCluster builds the pair's schema on both sides and wires its
// stand-by to the primary as a one-stand-by sync cluster.
func (pr *pair) syncCluster(p *sim.Proc) (*Cluster, error) {
	if err := schema(p, pr.primary); err != nil {
		return nil, err
	}
	if err := schemaStandby(p, pr.sb.Instance()); err != nil {
		return nil, err
	}
	c, err := NewCluster(pr.primary, []*Standby{pr.sb}, ClusterConfig{Mode: ModeSync, Link: diffLink})
	if err != nil {
		return nil, err
	}
	if err := c.Start(p); err != nil {
		return nil, err
	}
	pr.primary.Log().OnDurable = c.OnDurable
	pr.primary.Txns().CommitGate = c.CommitGate
	pr.primary.OnStateChange = c.OnPrimaryState
	return c, nil
}

// A stand-by's loser table points at the records it applied. Here one
// transaction stays open for the stand-by: the primary's instance recovery
// undoes it without logging an abort. Its update must then read as its
// before-image through the stand-by's snapshot after the receive queue has
// compacted at least three times and the primary's log has reused and
// refilled the group that held it, and the promotion must undo it. A
// receive queue that reuses the slots of applied records, or a group reuse
// that refills the old pages, hands the table another record, and fails.
func TestLoserRecordOutlivesQueueCompactionsAndALogWrap(t *testing.T) {
	pr := newPair(t, 64<<10, 3)
	pr.run(t, func(p *sim.Proc) error {
		c, err := pr.syncCluster(p)
		if err != nil {
			return err
		}
		if err := pr.put(p, pr.primary, 1, "base"); err != nil {
			return err
		}
		tx, err := pr.primary.Begin()
		if err != nil {
			return err
		}
		if err := pr.primary.Update(p, tx, "acct", 1, []byte("loser")); err != nil {
			return err
		}
		if err := pr.put(p, pr.primary, 2, "flush"); err != nil { // carries the update to the stand-by
			return err
		}
		p.Sleep(time.Second)
		log := pr.primary.Log()
		wrapped := log.CurrentGroup().Seq + len(log.Groups()) // the update's group refilled
		loser := pr.sb.losers.Pending("acct", 1)
		if loser == nil || string(loser.After) != "loser" {
			return fmt.Errorf("the stand-by holds %v as row 1's pending change, want the open update", loser)
		}
		pr.primary.Crash()
		if _, err := recovery.NewManager(pr.primary, nil).InstanceRecovery(p); err != nil {
			return err
		}

		// A commit is acknowledged once its frame is in the receive queue,
		// and the push of a frame into a full queue whose consumed half is
		// free compacts it.
		compactions := 0
		for i := 0; compactions < 3 || log.CurrentGroup().Seq <= wrapped; i++ {
			if i == 5000 {
				return fmt.Errorf("after %d commits: %d compactions, log sequence %d", i, compactions, log.CurrentGroup().Seq)
			}
			q := &pr.sb.recvQueue
			full := len(q.q) == cap(q.q) && len(q.q) > 0 && 2*q.head >= len(q.q)
			if err := pr.put(p, pr.primary, 2+int64(i%100), fmt.Sprintf("w%d", i)); err != nil {
				return err
			}
			if full {
				compactions++
			}
		}
		p.Sleep(time.Second)
		if got := pr.sb.losers.Pending("acct", 1); got != loser || got.Txn != tx.ID || string(got.After) != "loser" {
			return fmt.Errorf("row 1's pending change is now %+v, want the open update %+v", got, loser)
		}
		sn, err := pr.sb.Snapshot()
		if err != nil {
			return err
		}
		v, err := sn.Read(p, "acct", 1)
		sn.Done(p)
		if err != nil || string(v) != "base" {
			return fmt.Errorf("the stand-by's snapshot reads row 1 as %q (%v), want its before-image %q", v, err, "base")
		}

		pr.primary.Crash()
		rep, err := c.Promote(p)
		if err != nil {
			return err
		}
		if rep.LosersRolledBack != 1 {
			return fmt.Errorf("the promotion rolled back %d transactions, want the one open update", rep.LosersRolledBack)
		}
		in := pr.sb.Instance()
		rtx, err := in.Begin()
		if err != nil {
			return err
		}
		if v, err = in.Read(p, rtx, "acct", 1); err != nil || string(v) != "base" {
			return fmt.Errorf("the promoted stand-by reads row 1 as %q (%v), want %q", v, err, "base")
		}
		return in.Commit(p, rtx)
	})
}

// A frame cut across two queued views encodes byte for byte as the same
// records in one flat frame, and the stand-by takes the two views.
func TestFrameAcrossViewsEncodesAsOneFlatFrame(t *testing.T) {
	k := sim.NewKernel(3)
	sbs := make([]*Standby, 2)
	for i := range sbs {
		cfg := engine.DefaultConfig()
		cfg.Name = fmt.Sprintf("sb%d", i)
		in, err := engine.New(k, machineFS(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sbs[i] = New(in, DefaultConfig(), 0)
	}
	first := []redo.Record{
		{SCN: 1, Txn: 1, Op: redo.OpInsert, Table: "acct", Key: 1, After: []byte("a")},
		{SCN: 2, Txn: 1, Op: redo.OpInsert, Table: "acct", Key: 2, After: []byte("bb")},
	}
	second := []redo.Record{
		{SCN: 3, Txn: 1, Op: redo.OpUpdate, Table: "acct", Key: 1, Before: []byte("a"), After: []byte("ccc")},
		{SCN: 4, Txn: 1, Op: redo.OpCommit},
		{SCN: 5, Txn: 2, Op: redo.OpDelete, Table: "acct", Key: 2, Before: []byte("bb")},
	}
	var wire []byte
	st := &streamer{k: k, name: "LNS-test", link: sim.NewLink(k, diffLink), src: func() redo.SCN { return 5 },
		dst: sbs[0], max: 64, nextSeq: 1}
	st.onDeliver = func(_ *sim.Proc, records, _ int) {
		wire = slices.Clone(st.wire)
		if records != len(first)+len(second) {
			t.Errorf("a frame across two views delivered %d records, want %d", records, len(first)+len(second))
		}
	}
	var runErr error
	k.Go("ship", func(p *sim.Proc) {
		runErr = func() error {
			for _, sb := range sbs {
				if err := schemaStandby(p, sb.Instance()); err != nil {
					return err
				}
				if err := sb.Start(p); err != nil {
					return err
				}
				sb.mrp.Stop() // keep what arrives in the receive queue
			}
			st.start()
			st.enqueue(first)
			st.enqueue(second)
			p.Sleep(time.Second)
			flat := &redo.StreamFrame{Seq: 1, PrimarySCN: 5, Records: slices.Concat(first, second)}
			if want := flat.Encode(); string(wire) != string(want) {
				return fmt.Errorf("the frame across two views encodes %d bytes, unlike the flat frame's %d", len(wire), len(want))
			}
			sbs[1].Receive(p, flat, flat.Encode())
			if sbs[0].StreamHash() != sbs[1].StreamHash() || sbs[0].ReceivedSCN() != 5 {
				return fmt.Errorf("stream hash %x against the flat frame's %x, received SCN %d",
					sbs[0].StreamHash(), sbs[1].StreamHash(), sbs[0].ReceivedSCN())
			}
			q := sbs[0].recvQueue.q
			if len(q) != 2 || &q[0][0] != &first[0] || &q[1][0] != &second[0] || len(q[0]) != 2 || len(q[1]) != 3 {
				return fmt.Errorf("the stand-by queued %d views, not the two it was sent", len(q))
			}
			return nil
		}()
		st.stop()
	})
	k.Run(sim.Time(time.Minute))
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// What a stand-by queues is the primary's own records, at the addresses
// of the log pages LGWR placed them in: streamed frames carry views, and
// the receive queue keeps them.
func TestStandbyQueuesThePrimarysRecords(t *testing.T) {
	pr := newPair(t, 64<<10, 3)
	pr.run(t, func(p *sim.Proc) error {
		if _, err := pr.syncCluster(p); err != nil {
			return err
		}
		pr.sb.mrp.Stop() // keep what arrives in the receive queue
		for i := int64(0); i < 50; i++ {
			if err := pr.put(p, pr.primary, i, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		placed := make(map[*redo.Record]bool)
		online, _ := pr.primary.Log().OnlinePieces(0)
		for _, pc := range online {
			for i := range pc {
				placed[&pc[i]] = true
			}
		}
		n := 0
		for _, pc := range pr.sb.recvQueue.after(0) {
			for i := range pc {
				if !placed[&pc[i]] {
					return fmt.Errorf("the stand-by queues SCN %d at an address no log page holds", pc[i].SCN)
				}
				n++
			}
		}
		if n == 0 || n != pr.sb.recvQueue.pending {
			return fmt.Errorf("%d records queued, %d counted", n, pr.sb.recvQueue.pending)
		}
		return nil
	})
}

// committedFrames builds a stream of frames numbered from 1, perFrame
// records each: committed inserts over 16 rows of acct. It returns the
// frames, their encodings and the last SCN.
func committedFrames(frames, perFrame int) ([]*redo.StreamFrame, [][]byte, redo.SCN) {
	var fs []*redo.StreamFrame
	var wires [][]byte
	scn := redo.SCN(0)
	for seq := uint64(1); seq <= uint64(frames); seq++ {
		recs := make([]redo.Record, 0, perFrame)
		for len(recs) < perFrame {
			scn++
			id := redo.TxnID(scn)
			recs = append(recs,
				redo.Record{SCN: scn, Txn: id, Op: redo.OpInsert, Table: "acct", Key: int64(scn % 16), After: []byte("row")},
				redo.Record{SCN: scn + 1, Txn: id, Op: redo.OpCommit})
			scn++
		}
		f := &redo.StreamFrame{Seq: seq, PrimarySCN: scn, Records: recs}
		fs, wires = append(fs, f), append(wires, f.Encode())
	}
	return fs, wires, scn
}

// A steady-state intake — frames received, queued and applied, their
// blocks charged — allocates per frame at most a few views' worth, not per
// record: the receive queue used to copy each record (112 bytes) into an
// array it regrew as managed recovery consumed it.
func TestSteadyStateIntakeAllocatesPerFrameNotPerRecord(t *testing.T) {
	const frames, perFrame = 600, 32
	k := sim.NewKernel(9)
	in, err := engine.New(k, machineFS(), engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sb := New(in, DefaultConfig(), 0)
	fs, wires, scn := committedFrames(frames, perFrame)
	var before, after runtime.MemStats
	var runErr error
	k.Go("intake", func(p *sim.Proc) {
		runErr = func() error {
			if err := schemaStandby(p, sb.Instance()); err != nil {
				return err
			}
			if err := sb.Start(p); err != nil {
				return err
			}
			for i, f := range fs {
				if i == frames/2 {
					p.Sleep(time.Second)
					runtime.ReadMemStats(&before)
				}
				sb.Receive(p, f, wires[i])
				p.Sleep(time.Millisecond)
			}
			p.Sleep(time.Second)
			runtime.ReadMemStats(&after)
			if sb.AppliedSCN() != scn {
				return fmt.Errorf("applied through SCN %d, want %d", sb.AppliedSCN(), scn)
			}
			return nil
		}()
	})
	k.Run(sim.Time(time.Hour))
	if runErr != nil {
		t.Fatal(runErr)
	}
	measured := frames - frames/2
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(measured)*128; got > limit {
		t.Errorf("%d frames of %d records allocated %d bytes (%d a record), want at most %d",
			measured, perFrame, got, got/uint64(measured*perFrame), limit)
	}
}

// A promotion rolls the receive queue's tail forward from the queued views
// themselves: with managed recovery stopped and thousands of records
// queued over many frames, the whole promotion allocates under half of
// what copying the tail alone would (112 bytes a record).
func TestPromoteCopiesNoRecord(t *testing.T) {
	const frames, perFrame = 20, 128
	k := sim.NewKernel(11)
	in, err := engine.New(k, machineFS(), engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sb := New(in, DefaultConfig(), 0)
	fs, wires, scn := committedFrames(frames, perFrame)
	var before, after runtime.MemStats
	var runErr error
	k.Go("promote", func(p *sim.Proc) {
		runErr = func() error {
			if err := schemaStandby(p, sb.Instance()); err != nil {
				return err
			}
			if err := sb.Start(p); err != nil {
				return err
			}
			sb.mrp.Stop() // everything received stays queued for the promotion
			for i, f := range fs {
				sb.Receive(p, f, wires[i])
			}
			if n, v := sb.recvQueue.pending, len(sb.recvQueue.q); n != frames*perFrame || v != frames {
				return fmt.Errorf("%d records queued in %d views, want %d in %d", n, v, frames*perFrame, frames)
			}
			runtime.ReadMemStats(&before)
			rep, err := sb.Promote(p)
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			if rep.RecordsScanned != frames*perFrame || sb.AppliedSCN() != scn {
				return fmt.Errorf("the promotion scanned %d records through SCN %d, want %d through %d",
					rep.RecordsScanned, sb.AppliedSCN(), frames*perFrame, scn)
			}
			return nil
		}()
	})
	k.Run(sim.Time(time.Hour))
	if runErr != nil {
		t.Fatal(runErr)
	}
	const n = frames * perFrame
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("promoting %d queued records allocated %d bytes (%d a record)", n, got, got/n)
	if limit := uint64(n) * 56; got >= limit {
		t.Errorf("promoting %d queued records allocated %d bytes (%d a record), want under %d (56 a record)",
			n, got, got/n, limit)
	}
}

// after hands out the queued views themselves past a given SCN, skipping
// only the leading run at or below it (the rule the promotion tail always
// had), and leaves the queue as it was.
func TestViewsAfterSkipsOnlyTheLeadingRun(t *testing.T) {
	recs := func(scns ...redo.SCN) []redo.Record {
		out := make([]redo.Record, len(scns))
		for i, scn := range scns {
			out[i].SCN = scn
		}
		return out
	}
	a, b, c, d := recs(1, 2, 3), recs(4, 5), recs(6), recs(2, 7)
	var q views
	for _, v := range [][]redo.Record{a, b, c, d} {
		q.push(v)
	}
	q.pop() // SCN 1
	for _, tc := range []struct {
		scn  redo.SCN
		want [][]redo.Record
	}{
		{0, [][]redo.Record{a[1:], b, c, d}},
		{2, [][]redo.Record{a[2:], b, c, d}},
		{3, [][]redo.Record{b, c, d}},
		{4, [][]redo.Record{b[1:], c, d}},
		{5, [][]redo.Record{c, d}},  // SCN 2 past the leading run stays
		{6, [][]redo.Record{d[1:]}}, // SCN 2 is in it
		{7, nil},
	} {
		got := q.after(tc.scn)
		if len(got) != len(tc.want) {
			t.Fatalf("after(%d) gives %d views, want %d", tc.scn, len(got), len(tc.want))
		}
		for i := range got {
			if len(got[i]) != len(tc.want[i]) || &got[i][0] != &tc.want[i][0] {
				t.Errorf("after(%d): view %d is %d records from SCN %d, want the queued %d from SCN %d",
					tc.scn, i, len(got[i]), got[i][0].SCN, len(tc.want[i]), tc.want[i][0].SCN)
			}
		}
	}
	if q.pending != 7 || q.head != 0 || q.off != 1 {
		t.Errorf("after moved the queue: %d pending, head %d, offset %d", q.pending, q.head, q.off)
	}
}
