package archivelog

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
)

type fixture struct {
	k   *sim.Kernel
	fs  *simdisk.FS
	log *redo.Manager
	ar  *Archiver
}

func newFixture(t *testing.T, groupSize int64, groups int) *fixture {
	t.Helper()
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("redo"), simdisk.DefaultSpec("arch"))
	log, err := redo.NewManager(k, fs, redo.Config{
		GroupSizeBytes: groupSize,
		Groups:         groups,
		Disk:           "redo",
		ArchiveMode:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ar := NewArchiver(k, fs, log, "arch")
	log.OnSwitch = func(p *sim.Proc, old *redo.Group) {
		log.CheckpointCompleted(old.LastSCN())
		ar.Enqueue(old)
	}
	log.Start()
	ar.Start()
	return &fixture{k: k, fs: fs, log: log, ar: ar}
}

func (f *fixture) writeRecords(n, payload int) {
	f.k.Go("w", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			scn := f.log.Append(redo.Record{Txn: 1, Op: redo.OpUpdate, Table: "t", Key: int64(i), After: make([]byte, payload)})
			if err := f.log.WaitFlushed(p, scn); err != nil {
				return
			}
		}
	})
}

func (f *fixture) shutdown() {
	f.log.Stop()
	f.ar.Stop()
	f.k.RunAll()
}

func TestArchiverCopiesFilledGroups(t *testing.T) {
	f := newFixture(t, 2048, 3)
	defer f.shutdown()
	f.writeRecords(40, 100)
	f.k.Run(sim.Time(time.Minute))

	if f.ar.Archived() == 0 {
		t.Fatal("nothing archived")
	}
	inv := f.ar.Inventory()
	if inv.Len() != f.ar.Archived() {
		t.Fatalf("inventory %d != archived %d", inv.Len(), f.ar.Archived())
	}
	// Sequence numbers are consecutive and ordered.
	logs := inv.Logs()
	for i := 1; i < len(logs); i++ {
		if logs[i].Seq != logs[i-1].Seq+1 {
			t.Fatalf("seqs not consecutive: %d then %d", logs[i-1].Seq, logs[i].Seq)
		}
		if logs[i].FirstSCN != logs[i-1].LastSCN+1 {
			t.Fatalf("SCN ranges not contiguous: %d..%d then %d..%d",
				logs[i-1].FirstSCN, logs[i-1].LastSCN, logs[i].FirstSCN, logs[i].LastSCN)
		}
	}
	// Archive files exist on the archive disk and were charged.
	_, w, _, wb := f.fs.Disk("arch").Stats()
	if w == 0 || wb == 0 {
		t.Fatalf("no archive disk writes: ops=%d bytes=%d", w, wb)
	}
}

func TestArchivedRecordsMatchRedoStream(t *testing.T) {
	f := newFixture(t, 2048, 3)
	defer f.shutdown()
	f.writeRecords(40, 100)
	f.k.Run(sim.Time(time.Minute))

	var prev redo.SCN
	for _, a := range f.ar.Inventory().Logs() {
		for _, r := range slices.Concat(a.Pieces()...) {
			if r.SCN != prev+1 {
				t.Fatalf("archived SCN %d after %d", r.SCN, prev)
			}
			prev = r.SCN
		}
	}
	if prev == 0 {
		t.Fatal("no archived records")
	}
}

// An archived log keeps the records its group held when it was archived,
// after the group has been reused and refilled: here five groups' worth of
// redo, 2,500 records (several pages) each, cycles through three groups.
func TestArchivedLogSurvivesGroupReuse(t *testing.T) {
	rec := redo.Record{Table: "t", After: make([]byte, 100)}
	f := newFixture(t, 2500*rec.Size(), 3)
	defer f.shutdown()
	f.writeRecords(12500, 100)
	f.k.Run(sim.Time(10 * time.Minute))

	logs := f.ar.Inventory().Logs()
	if len(logs) < 4 || f.log.CurrentGroup().Seq < logs[1].Seq+3 {
		t.Fatalf("%d logs archived, current seq %d: seq 2's group was not refilled", len(logs), f.log.CurrentGroup().Seq)
	}
	for _, a := range logs {
		recs := slices.Concat(a.Pieces()...)
		if len(recs) != 2500 || recs[0].SCN != a.FirstSCN || recs[len(recs)-1].SCN != a.LastSCN {
			t.Fatalf("seq %d: %d records, want 2500 from SCN %d to %d", a.Seq, len(recs), a.FirstSCN, a.LastSCN)
		}
		for i, r := range recs {
			if r.SCN != a.FirstSCN+redo.SCN(i) || r.Key != int64(r.SCN-1) {
				t.Fatalf("seq %d record %d: SCN %d key %d, want SCN %d key %d", a.Seq, i, r.SCN, r.Key, a.FirstSCN+redo.SCN(i), a.FirstSCN+redo.SCN(i)-1)
			}
		}
	}
}

func TestInventoryFrom(t *testing.T) {
	f := newFixture(t, 2048, 3)
	defer f.shutdown()
	f.writeRecords(60, 100)
	f.k.Run(sim.Time(time.Minute))

	logs := f.ar.Inventory().Logs()
	if len(logs) < 3 {
		t.Fatalf("need >=3 archived logs, got %d", len(logs))
	}
	mid := logs[1]
	got := f.ar.Inventory().From(mid.LastSCN)
	if len(got) != len(logs)-1 {
		t.Fatalf("From(%d) = %d logs, want %d", mid.LastSCN, len(got), len(logs)-1)
	}
	if got[0].Seq != mid.Seq {
		t.Fatalf("first = seq %d, want %d", got[0].Seq, mid.Seq)
	}
}

func TestArchiverStopLeavesQueue(t *testing.T) {
	f := newFixture(t, 2048, 4)
	f.ar.Stop()
	f.writeRecords(40, 100)
	f.k.Run(sim.Time(time.Minute))
	if f.ar.Archived() != 0 {
		t.Fatal("archived while stopped")
	}
	if f.ar.QueueLen() == 0 {
		t.Fatal("queue empty despite switches")
	}
	// Restart drains the queue.
	f.ar.Start()
	f.k.Run(sim.Time(2 * time.Minute))
	if f.ar.Archived() == 0 {
		t.Fatal("nothing archived after restart")
	}
	f.shutdown()
}

func TestArchiveFailureWhenDestinationMissing(t *testing.T) {
	k := sim.NewKernel(1)
	fs := simdisk.NewFS(simdisk.DefaultSpec("redo")) // no arch disk
	log, err := redo.NewManager(k, fs, redo.Config{
		GroupSizeBytes: 2048, Groups: 3, Disk: "redo", ArchiveMode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ar := NewArchiver(k, fs, log, "arch")
	log.OnSwitch = func(p *sim.Proc, old *redo.Group) {
		log.CheckpointCompleted(old.LastSCN())
		ar.Enqueue(old)
	}
	log.Start()
	ar.Start()
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			scn := log.Append(redo.Record{Txn: 1, Op: redo.OpUpdate, Table: "t", Key: int64(i), After: make([]byte, 100)})
			if err := log.WaitFlushed(p, scn); err != nil {
				return
			}
		}
	})
	k.Run(sim.Time(30 * time.Second))
	if ar.Failures() == 0 {
		t.Fatal("expected archive failures")
	}
	// The log eventually stalls on archival (groups never released).
	if log.Stats().ArchiveWaits == 0 {
		t.Fatal("expected archival-required stalls")
	}
	log.Stop()
	ar.Stop()
	k.RunAll()
}

// Archiving a group keeps its pages, not a copy: the archived log's pieces
// are the group's own page views, record for record at the same address,
// and creating it allocates a few objects whatever the group holds (a copy
// of these 4,096 records was 448 KiB).
func TestArchivedLogHoldsTheGroupsPages(t *testing.T) {
	rec := redo.Record{Table: "t", After: make([]byte, 100)}
	f := newFixture(t, 4096*rec.Size(), 3)
	defer f.shutdown()
	f.ar.Stop()
	f.writeRecords(5000, 100)
	f.k.Run(sim.Time(5 * time.Minute))
	if f.ar.QueueLen() != 1 {
		t.Fatalf("%d groups queued for archiving, want 1", f.ar.QueueLen())
	}
	g := f.ar.queue[0]
	pages := g.Pieces()
	var before, after runtime.MemStats
	f.k.Go("archive", func(p *sim.Proc) {
		runtime.ReadMemStats(&before)
		f.ar.archiveNext(p)
		runtime.ReadMemStats(&after)
	})
	f.k.Run(sim.Time(10 * time.Minute))
	logs := f.ar.Inventory().Logs()
	if len(logs) != 1 {
		t.Fatalf("%d logs archived, want 1", len(logs))
	}
	pieces := logs[0].Pieces()
	if len(pieces) != 4 || len(pieces) != len(pages) {
		t.Fatalf("the archived log holds %d pieces, the group %d pages; want 4", len(pieces), len(pages))
	}
	for i, pc := range pieces {
		if len(pc) != len(pages[i]) || cap(pc) != len(pc) || &pc[0] != &pages[i][0] {
			t.Fatalf("piece %d (%d records, capacity %d) is not the group's page %d", i, len(pc), cap(pc), i)
		}
	}
	// A few hundred bytes, plus whatever the runtime allocates meanwhile.
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<10 {
		t.Errorf("archiving %d records allocated %d bytes, want at most 32 KiB", 4096, got)
	}
}
