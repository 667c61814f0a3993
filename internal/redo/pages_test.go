package redo

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"dbench/internal/sim"
)

// recBytes is the size of every record these tests write: a group of
// n*recBytes holds exactly n of them.
var recBytes = func() int64 { r := dataRec(1, 1, 100); return r.Size() }()

// P is the page size in records, short for the tests' arithmetic.
const P = pageRecords

// writeBursts appends each burst's records in one go and waits until they
// are durable, so each burst is one flushed segment while it fits the
// current group. Keys count the records from 0, so record i has SCN i+1.
func writeBursts(t *testing.T, k *sim.Kernel, m *Manager, bursts ...int) {
	t.Helper()
	k.Go("w", func(p *sim.Proc) {
		key := int64(0)
		for _, n := range bursts {
			var scn SCN
			for range n {
				scn = m.Append(dataRec(1, key, 100))
				key++
			}
			if err := m.WaitFlushed(p, scn); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// collect makes m's OnDurable tap copy every piece it is handed into flat
// and its last SCN into ends, checking that each piece is capacity-capped
// and lies in one page of the current group.
func collect(t *testing.T, m *Manager) (flat *[]Record, ends *[]SCN) {
	flat, ends = new([]Record), new([]SCN)
	m.OnDurable = func(_ *sim.Proc, recs []Record) {
		if cap(recs) != len(recs) {
			t.Errorf("piece of %d records has capacity %d", len(recs), cap(recs))
		}
		g := m.CurrentGroup()
		first, last := int(recs[0].SCN-g.FirstSCN()), int(recs[len(recs)-1].SCN-g.FirstSCN())
		if first/P != last/P {
			t.Errorf("piece of records %d..%d of the group crosses a page edge", first, last)
		}
		*flat = append(*flat, recs...)
		*ends = append(*ends, recs[len(recs)-1].SCN)
	}
	return flat, ends
}

// checkStream fails unless recs are SCNs 1..n in order, each exactly once.
func checkStream(t *testing.T, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("%d records became durable, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.SCN != SCN(i+1) || r.Key != int64(i) {
			t.Fatalf("durable record %d has SCN %d and key %d, want %d and %d", i, r.SCN, r.Key, i+1, i)
		}
	}
}

// A flushed segment reaches OnDurable as one piece per page it touches, in
// SCN order: segments of P/2, P and 2P records, starting at records 0, P/2
// and 3P/2 of the group, touch 1, 2 and 3 pages, so pieces end at every
// page edge and segment end.
func TestOnDurableGetsOnePiecePerPage(t *testing.T) {
	k, _, m := newTestLog(t, 1<<24, 3, false)
	flat, ends := collect(t, m)
	m.Start()
	writeBursts(t, k, m, P/2, P, 2*P)
	k.Run(sim.Time(time.Minute))
	m.Stop()
	k.RunAll()
	if want := []SCN{P / 2, P, 3 * P / 2, 2 * P, 3 * P, 7 * P / 2}; !reflect.DeepEqual(*ends, want) {
		t.Errorf("pieces end at SCNs %v, want %v", *ends, want)
	}
	checkStream(t, *flat, 7*P/2)
}

// A log switch that stalls mid-drain still hands over the records placed
// before it, page by page; the rest follow, once, when the switch goes
// through.
func TestOnDurableAcrossAStalledSwitch(t *testing.T) {
	k, _, m := newTestLog(t, (P+P/2)*recBytes, 2, false)
	flat, ends := collect(t, m)
	m.groups[1].ckptDone = false
	m.Start()
	writeBursts(t, k, m, 2*P)
	k.Run(sim.Time(5 * time.Second))
	if want := []SCN{P, 3 * P / 2}; m.FlushedSCN() != 3*P/2 || !reflect.DeepEqual(*ends, want) {
		t.Fatalf("before the switch: flushed %d in pieces ending at %v, want %d in %v", m.FlushedSCN(), *ends, 3*P/2, want)
	}
	checkStream(t, *flat, 3*P/2)
	m.groups[1].ckptDone = true
	m.reusable.Broadcast(k)
	k.Run(sim.Time(10 * time.Second))
	m.Stop()
	k.RunAll()
	if want := []SCN{P, 3 * P / 2, 2 * P}; !reflect.DeepEqual(*ends, want) {
		t.Errorf("pieces end at SCNs %v, want %v", *ends, want)
	}
	checkStream(t, *flat, 2*P)
}

// OnlineRecords reads what a flat copy of the stream holds from any SCN:
// at and beside page edges, at group edges, across log switches, and after
// the ring has wrapped (then the oldest group is not the first in the
// ring). Each result is exactly sized.
func TestOnlineRecordsMatchesAFlatRead(t *testing.T) {
	const total = 5 * P
	for _, g := range []int{2 * P, P + P/4} {
		k, _, m := newTestLog(t, int64(g)*recBytes, 3, false)
		m.OnSwitch = func(p *sim.Proc, old *Group) { m.CheckpointCompleted(old.LastSCN()) }
		flat, _ := collect(t, m)
		m.Start()
		writeBursts(t, k, m, 7, P-4, P+5, 3, 2*P, P-11)
		k.Run(sim.Time(time.Minute))
		checkStream(t, *flat, total)

		lowest := int(m.LowestOnlineSCN())
		if want := max(1, 1+total-3*g); lowest != want {
			t.Fatalf("%d-record groups: lowest online SCN %d, want %d", g, lowest, want)
		}
		if _, ok := m.OnlineRecords(SCN(lowest - 1)); lowest > 1 && ok {
			t.Errorf("%d-record groups: OnlineRecords(%d) ok, but SCN %d was overwritten", g, lowest-1, lowest-1)
		}
		for _, off := range []int{0, 1, P - 1, P, P + 1, g - 1, g, g + 1, g + P, total - lowest, total + 1 - lowest} {
			from := lowest + off
			recs, ok := m.OnlineRecords(SCN(from))
			if !ok {
				t.Errorf("%d-record groups: OnlineRecords(%d) not ok", g, from)
			}
			if want := (*flat)[from-1:]; !reflect.DeepEqual(recs, want) {
				t.Errorf("%d-record groups: OnlineRecords(%d) gave %d records, want %d", g, from, len(recs), len(want))
			}
			if cap(recs) != len(recs) {
				t.Errorf("%d-record groups: OnlineRecords(%d) has capacity %d for %d records", g, from, cap(recs), len(recs))
			}
		}
		m.Stop()
		k.RunAll()
	}
}

// FirstSCN and LastSCN read the first and last page at every fill level,
// and every page is opened at exactly pageRecords capacity.
func TestGroupSCNsAtPageEdges(t *testing.T) {
	var g Group
	if g.FirstSCN() != -1 || g.LastSCN() != -1 || len(g.Pieces()) != 0 {
		t.Fatal("an empty group has records")
	}
	for n := 1; n <= 2*P+1; n++ {
		g.place(Record{SCN: SCN(100 + n)})
		if g.FirstSCN() != 101 || g.LastSCN() != SCN(100+n) {
			t.Fatalf("%d records: FirstSCN %d, LastSCN %d, want 101, %d", n, g.FirstSCN(), g.LastSCN(), 100+n)
		}
		if want := (n + P - 1) / P; len(g.pages) != want {
			t.Fatalf("%d records in %d pages, want %d", n, len(g.pages), want)
		}
		for _, pg := range g.pages {
			if cap(pg) != P {
				t.Fatalf("%d records: a page has capacity %d", n, cap(pg))
			}
		}
	}
	pieces := g.Pieces()
	if len(pieces) != 3 || len(slices.Concat(pieces...)) != 2*P+1 || pieces[1][0].SCN != 101+P {
		t.Fatalf("Pieces: %d pieces", len(pieces))
	}
	for i, pc := range pieces {
		if cap(pc) != len(pc) || &pc[0] != &g.pages[i][0] {
			t.Fatalf("piece %d is not a capacity-capped view of page %d", i, i)
		}
	}
	g.empty()
	if g.FirstSCN() != -1 || g.LastSCN() != -1 || len(g.pages) != 0 {
		t.Fatal("an emptied group still has records")
	}
}

// A group whose members are all lost leaves a hole in the online redo: a
// range that runs across it is not whole, even though the groups on both
// sides of it are.
func TestOnlineRecordsReportsALostGroupAsAHole(t *testing.T) {
	k, fs, m := newTestLog(t, 17*recBytes, 3, false)
	m.Start()
	writeBursts(t, k, m, 17, 17, 17)
	k.Run(sim.Time(time.Minute))
	if m.FlushedSCN() != 51 || m.CurrentGroup().Seq != 3 {
		t.Fatalf("flushed %d into seq %d, want 51 into seq 3", m.FlushedSCN(), m.CurrentGroup().Seq)
	}
	for _, g := range m.Groups() {
		if g.Seq == 2 {
			for _, member := range g.Members() {
				if err := fs.Delete(member.Name()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, from := range []SCN{1, 17, 18, 34} {
		if recs, ok := m.OnlineRecords(from); ok {
			t.Errorf("OnlineRecords(%d) ok with seq 2 (SCN 18-34) lost: %d records", from, len(recs))
		}
	}
	if recs, ok := m.OnlineRecords(35); !ok || len(recs) != 17 {
		t.Errorf("OnlineRecords(35) = %d records, ok %v; want the 17 of seq 3", len(recs), ok)
	}
	m.Stop()
	k.RunAll()
}

// Placing records allocates their pages and nothing that grows: 4 pages of
// records cost 4 pages' bytes (plus the short page list), where one
// regrown array cost about four times the records' bytes.
func TestPlacingRecordsAllocatesOnlyPages(t *testing.T) {
	recs := make([]Record, 4*P)
	for i := range recs {
		recs[i] = Record{SCN: SCN(i + 1)}
	}
	var g Group
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range recs {
		g.place(r)
	}
	runtime.ReadMemStats(&after)
	if len(g.pages) != 4 {
		t.Fatalf("%d records in %d pages, want 4", len(recs), len(g.pages))
	}
	limit := 1.05 * float64(len(recs)) * float64(unsafe.Sizeof(Record{}))
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > limit {
		t.Errorf("placing %d records allocated %d bytes in %d objects, want at most %.0f bytes",
			len(recs), got, after.Mallocs-before.Mallocs, limit)
	}
}

// OnlineRecords copies what it returns once, into one exactly sized slice.
func TestOnlineRecordsCopiesOnce(t *testing.T) {
	k, _, m := newTestLog(t, 2*P*recBytes, 3, false)
	m.Start()
	writeBursts(t, k, m, P, 2*P, 2*P)
	k.Run(sim.Time(time.Minute))
	var recs []Record
	if got := testing.AllocsPerRun(20, func() { recs, _ = m.OnlineRecords(100) }); got != 1 {
		t.Errorf("OnlineRecords allocates %v times, want 1", got)
	}
	if len(recs) != 5*P-99 {
		t.Errorf("OnlineRecords(100) gave %d records, want %d", len(recs), 5*P-99)
	}
	m.Stop()
	k.RunAll()
}

// placedAt reports whether rec is the very record a page of m's groups holds.
func placedAt(m *Manager, rec *Record) bool {
	for _, g := range m.groups {
		for _, pg := range g.pages {
			if i := int(rec.SCN - pg[0].SCN); i >= 0 && i < len(pg) && &pg[i] == rec {
				return true
			}
		}
	}
	return false
}

// OnlinePieces hands out the pages themselves: capacity-capped views that
// read what OnlineRecords copies, from any SCN, after the ring has wrapped,
// whose records sit where LGWR placed them. A group's reuse drops its pages
// without writing them, so a view taken before it reads the same records
// after it.
func TestOnlinePiecesAreThePagesThemselves(t *testing.T) {
	k, _, m := newTestLog(t, (P+P/4)*recBytes, 3, false)
	m.OnSwitch = func(p *sim.Proc, old *Group) { m.CheckpointCompleted(old.LastSCN()) }
	m.Start()
	writeBursts(t, k, m, 7, P-4, P+5, 3, 2*P, P-11)
	k.Run(sim.Time(time.Minute))
	lowest := m.LowestOnlineSCN()
	for _, from := range []SCN{lowest, lowest + 1, lowest + P, m.FlushedSCN(), m.FlushedSCN() + 1} {
		pieces, ok := m.OnlinePieces(from)
		want, wantOK := m.OnlineRecords(from)
		if got := slices.Concat(pieces...); ok != wantOK || len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("OnlinePieces(%d) reads %d records (ok %v), OnlineRecords %d (ok %v)",
				from, len(slices.Concat(pieces...)), ok, len(want), wantOK)
		}
		for _, pc := range pieces {
			if len(pc) == 0 || cap(pc) != len(pc) || !placedAt(m, &pc[0]) || !placedAt(m, &pc[len(pc)-1]) {
				t.Fatalf("OnlinePieces(%d): a piece of %d records (capacity %d) is not a capped view of a page", from, len(pc), cap(pc))
			}
		}
	}
	held, _ := m.OnlinePieces(lowest)
	kept := slices.Clone(slices.Concat(held...))
	writeBursts(t, k, m, 4*P)
	k.Run(sim.Time(2 * time.Minute))
	if m.LowestOnlineSCN() <= kept[len(kept)-1].SCN {
		t.Fatalf("lowest online SCN %d: the held span (to SCN %d) was not overwritten", m.LowestOnlineSCN(), kept[len(kept)-1].SCN)
	}
	if !reflect.DeepEqual(slices.Concat(held...), kept) {
		t.Error("views taken before their groups were reused read other records after it")
	}
	m.Stop()
	k.RunAll()
}

// OnlinePieces allocates for its pieces, not its records: a span of five
// pages costs its short list of views, where a copy (OnlineRecords) costs
// 112 bytes a record.
func TestOnlinePiecesAllocatesPerPiece(t *testing.T) {
	k, _, m := newTestLog(t, 2*P*recBytes, 3, false)
	m.Start()
	writeBursts(t, k, m, P, 2*P, 2*P)
	k.Run(sim.Time(time.Minute))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pieces, _ := m.OnlinePieces(100)
	runtime.ReadMemStats(&after)
	n := len(slices.Concat(pieces...))
	if n != 5*P-99 {
		t.Fatalf("OnlinePieces(100) reads %d records, want %d", n, 5*P-99)
	}
	// A few growths of a list of 5 views, plus whatever the runtime
	// allocates meanwhile; a copy is 112 bytes a record, 549 KiB here.
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("OnlinePieces of %d pieces (%d records) allocated %d bytes, want at most 16 KiB", len(pieces), n, got)
	}
	m.Stop()
	k.RunAll()
}
