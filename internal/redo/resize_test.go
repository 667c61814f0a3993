package redo

import (
	"testing"
	"time"

	"dbench/internal/sim"
)

// TestRequestResizeValidatesAndTracksTarget pins the resize request
// surface: bad geometries rejected, the target accessors report the
// pending geometry while the live config is untouched, and re-requesting
// the current geometry cancels an outstanding resize.
func TestRequestResizeValidatesAndTracksTarget(t *testing.T) {
	_, _, m := newTestLog(t, 1<<20, 3, false)
	if err := m.RequestResize(1<<20, 1); err == nil {
		t.Error("1 group accepted")
	}
	if err := m.RequestResize(0, 3); err == nil {
		t.Error("zero group size accepted")
	}
	if _, _, pending := m.PendingResize(); pending {
		t.Fatal("rejected requests left a pending resize")
	}
	if got := m.TargetGroupSize(); got != 1<<20 {
		t.Fatalf("target size = %d with no resize pending", got)
	}
	if got := m.TargetGroups(); got != 3 {
		t.Fatalf("target groups = %d with no resize pending", got)
	}

	if err := m.RequestResize(2<<20, 4); err != nil {
		t.Fatal(err)
	}
	size, groups, pending := m.PendingResize()
	if !pending || size != 2<<20 || groups != 4 {
		t.Fatalf("pending = (%d, %d, %v), want (2MB, 4, true)", size, groups, pending)
	}
	if m.TargetGroupSize() != 2<<20 || m.TargetGroups() != 4 {
		t.Fatalf("targets = (%d, %d)", m.TargetGroupSize(), m.TargetGroups())
	}
	if got := m.Config().GroupSizeBytes; got != 1<<20 {
		t.Fatalf("live config moved to %d before any switch", got)
	}

	// Requesting the current live geometry cancels the pending resize.
	if err := m.RequestResize(1<<20, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, pending := m.PendingResize(); pending {
		t.Fatal("re-requesting the current geometry did not clear the pending resize")
	}
}

// TestResizeLandsAtSwitchAndClears drives the deferred application on a
// live log: a forced switch adopts the new size on the fresh current
// group, and once checkpoints retire the old groups the whole ring holds
// the new geometry and the pending marker clears.
func TestResizeLandsAtSwitchAndClears(t *testing.T) {
	k, _, m := newTestLog(t, 1<<20, 3, false)
	m.Start()
	if err := m.RequestResize(2<<20, 4); err != nil {
		t.Fatal(err)
	}
	k.Go("driver", func(p *sim.Proc) {
		for i := int64(1); i < 6; i++ {
			m.Append(dataRec(TxnID(i), i, 100))
			scn := m.Append(Record{Txn: TxnID(i), Op: OpCommit})
			if err := m.WaitFlushed(p, scn); err != nil {
				t.Error(err)
				return
			}
			if _, err := m.ForceSwitch(p); err != nil {
				t.Error(err)
				return
			}
			// Retire everything so the next switch may rebuild old groups.
			m.CheckpointCompleted(m.NextSCN() - 1)
		}
	})
	k.Run(sim.Time(10 * time.Minute))
	m.Stop()
	k.RunAll()
	if got := m.Config().GroupSizeBytes; got != 2<<20 {
		t.Fatalf("live group size = %d after switches, want %d", got, 2<<20)
	}
	if _, _, pending := m.PendingResize(); pending {
		t.Fatal("resize still pending after the ring turned over")
	}
	groups := m.Groups()
	if len(groups) != 4 {
		t.Fatalf("%d groups after resize, want 4", len(groups))
	}
	for _, g := range groups {
		if g.Capacity() != 2<<20 {
			t.Fatalf("group %d capacity %d, want %d", g.ID, g.Capacity(), 2<<20)
		}
	}
	if m.CurrentGroup() == nil || !m.Running() && m.CurrentGroup().Bytes() < 0 {
		t.Fatal("current group accessor broken")
	}
}
