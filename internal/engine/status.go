package engine

import (
	"fmt"
	"strings"
	"time"
)

// Status renders the SHOW STATUS screen: the V$-view-style point-in-time
// snapshot a DBA (and the benchmark driver) uses to observe the instance.
// Every counter on it is read from the instance's counter registry: the
// summary lines quote rows that the screen also prints in full under
// "counters:", so a counter registered anywhere in the instance cannot miss
// the screen or disagree with it.
func (in *Instance) Status() string {
	var b strings.Builder
	v := in.reg.Value
	var queued, archived int
	if in.arch != nil {
		queued, archived = in.arch.QueueLen(), in.arch.Archived()
	}
	fmt.Fprintf(&b, "instance: %v (crashed=%v)\n", in.state, in.Crashed())
	fmt.Fprintf(&b, "scn: ckpt=%d undo=%d flushed=%d next=%d\n",
		in.db.Control.CheckpointSCN, in.db.Control.UndoSCN, in.log.FlushedSCN(), in.log.NextSCN())
	fmt.Fprintf(&b, "txns: active=%d zombie=%d\n", in.tm.ActiveCount(), in.tm.ZombieCount())
	fmt.Fprintf(&b, "cache: %d buffers (%d dirty), hits=%d misses=%d\n",
		in.cache.Len(), in.cache.DirtyCount(), v("cache.hits"), v("cache.misses"))
	fmt.Fprintf(&b, "redo: %d switches, %s written, stalls=%v; archive queue=%d done=%d\n",
		v("redo.switches"), byteSize(v("redo.flushed_bytes")),
		time.Duration(v("redo.stall_ns")).Round(time.Millisecond), queued, archived)
	fmt.Fprintf(&b, "checkpoints: %d\n", v("engine.checkpoints"))
	fmt.Fprintf(&b, "datafiles:\n")
	for _, f := range in.db.Datafiles() {
		status := "ONLINE"
		switch {
		case f.Lost():
			status = "LOST"
		case f.NeedsRecovery:
			status = "RECOVER"
		case !f.Online():
			status = "OFFLINE"
		}
		fmt.Fprintf(&b, "  %-16s %-12s %-8s ckpt=%d\n", f.Name, f.Tablespace, status, f.CkptSCN)
	}
	fmt.Fprintf(&b, "redo logs:\n")
	for _, g := range in.log.Groups() {
		status := "INACTIVE"
		switch {
		case g.Current():
			status = "CURRENT"
		case !g.Archived():
			status = "ACTIVE" // awaiting archive
		}
		fmt.Fprintf(&b, "  group %d seq=%-5d %-8s %5.1f%% full\n", g.ID, g.Seq, status,
			100*float64(g.Bytes())/float64(g.Capacity()))
	}
	fmt.Fprintf(&b, "counters:\n")
	for _, c := range in.reg.Snapshot() {
		fmt.Fprintf(&b, "  %-28s %d\n", c.Name, c.Value)
	}
	return b.String()
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
