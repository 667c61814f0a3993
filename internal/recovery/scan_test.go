package recovery

import (
	"fmt"
	"testing"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// SortedRefs allocates its result and nothing else (sort.Slice allocated a
// reflect swapper and a closure on every call), in (file name, block) order.
func TestSortedRefsAllocatesOnlyItsResult(t *testing.T) {
	files := []*storage.Datafile{{Name: "b.dbf"}, {Name: "a.dbf"}, {Name: "c.dbf"}}
	touched := make(map[storage.BlockRef]bool)
	for _, f := range files {
		for no := 40; no > 0; no -= 3 {
			touched[storage.BlockRef{File: f, No: no}] = true
		}
	}
	var refs []storage.BlockRef
	if got := testing.AllocsPerRun(20, func() { refs = SortedRefs(touched) }); got != 1 {
		t.Errorf("SortedRefs allocates %v times, want 1", got)
	}
	if len(refs) != len(touched) {
		t.Fatalf("%d refs for %d touched blocks", len(refs), len(touched))
	}
	for i := 1; i < len(refs); i++ {
		a, b := refs[i-1], refs[i]
		if a.File.Name > b.File.Name || a.File.Name == b.File.Name && a.No >= b.No {
			t.Fatalf("refs %d and %d out of order: %v then %v", i-1, i, a, b)
		}
	}
}

// A recovery scan reads the records where LGWR placed them: every record
// the archive path returns is one of the archived logs' or the online
// groups' own, at its address, in one unbroken SCN run; the online fast
// path returns the online log's page views themselves.
func TestRedoScanReadsThePlacedRecords(t *testing.T) {
	r, err := newRig(true, 16<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.setup(p); err != nil {
			return err
		}
		for i := int64(0); i < 400; i++ {
			if err := r.put(p, i%50, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		log := r.in.Log()
		placed := make(map[*redo.Record]bool)
		archives := r.in.Archiver().Inventory().Logs()
		for _, al := range archives {
			for rec := range all(al.Pieces()) {
				placed[rec] = true
			}
		}
		online, _ := log.OnlinePieces(0)
		for rec := range all(online) {
			placed[rec] = true
		}
		if len(archives) < 3 || log.LowestOnlineSCN() <= 1 {
			return fmt.Errorf("%d archives, lowest online SCN %d: the online log did not wrap", len(archives), log.LowestOnlineSCN())
		}
		var scanned, fast [][]redo.Record
		_, err := r.rm.run(p, KindInstance, func(rep *Report, tl *timeline) (err error) {
			if scanned, err = r.rm.redoRange(p, rep, 1, tl, nil); err != nil {
				return err
			}
			fast, err = r.rm.redoRange(p, rep, log.LowestOnlineSCN(), tl, nil)
			return err
		})
		if err != nil {
			return err
		}
		next := redo.SCN(1)
		for rec := range all(scanned) {
			if rec.SCN != next || !placed[rec] {
				return fmt.Errorf("the scan reads SCN %d (placed: %v) where SCN %d is due", rec.SCN, placed[rec], next)
			}
			next++
		}
		if next != log.FlushedSCN()+1 {
			return fmt.Errorf("the scan ends at SCN %d, the log at %d", next-1, log.FlushedSCN())
		}
		want, _ := log.OnlinePieces(log.LowestOnlineSCN())
		if len(fast) != len(want) {
			return fmt.Errorf("the online scan has %d pieces, the log %d", len(fast), len(want))
		}
		for i := range fast {
			if len(fast[i]) != len(want[i]) || &fast[i][0] != &want[i][0] {
				return fmt.Errorf("online piece %d is not the log's page view", i)
			}
		}
		return nil
	})
}
