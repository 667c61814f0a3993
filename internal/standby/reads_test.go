package standby

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbench/internal/engine"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/tpcc"
	"dbench/internal/txn"
)

// testReplica adapts a stand-by to the tpcc.Replica routing interface,
// the same shape the experiment runner uses.
type testReplica struct{ s *Standby }

func (r *testReplica) ReadOnly(p *sim.Proc, fn func(s tpcc.ReadSession) error) error {
	sn, err := r.s.Snapshot()
	if err != nil {
		return err
	}
	err = fn(sn)
	sn.Done(p)
	return err
}

// TestReplicaServedReadsConsistent routes a share of the read-only TPC-C
// traffic to a lagging stand-by and holds the replica to its contract:
// snapshots are pinned no newer than the stand-by's applied SCN, the
// TPC-C consistency conditions hold on the replica view while it trails
// the primary, reads beyond the staleness bound are refused (falling
// back to the primary), and routed traffic actually lands on the
// stand-by.
func TestReplicaServedReadsConsistent(t *testing.T) {
	k := sim.NewKernel(31)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 1 << 20
	ecfg.Redo.Groups = 3
	ecfg.Redo.ArchiveMode = true
	ecfg.CacheBlocks = 256
	ecfg.CheckpointTimeout = 60 * time.Second
	ecfg.CPUs = 4
	tcfg := tpcc.DefaultConfig()
	tcfg.Warehouses = 1
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 300
	tcfg.TerminalsPerWarehouse = 4

	pri, err := engine.New(k, machineFS(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	app := tpcc.NewApp(pri, tcfg)
	drv := tpcc.NewDriver(app, tpcc.DriverConfig{})

	var runErr error
	k.Go("reads", func(p *sim.Proc) {
		runErr = func() error {
			if err := pri.Open(p); err != nil {
				return err
			}
			if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
				return err
			}
			if err := app.Load(p, rand.New(rand.NewSource(31))); err != nil {
				return err
			}
			if err := pri.Checkpoint(p); err != nil {
				return err
			}
			backupSCN := pri.DB().Control.CheckpointSCN
			if err := pri.ForceLogSwitch(p); err != nil {
				return err
			}
			sbIn, err := buildClone(p, k, ecfg, tcfg, 31, "sb1", ecfg.RecoveryParallelism)
			if err != nil {
				return err
			}
			sbCfg := DefaultConfig()
			sbCfg.MaxReadLag = 1 << 30 // lag freely; staleness tested below
			sb := New(sbIn, sbCfg, backupSCN)
			cluster, err := NewCluster(pri, []*Standby{sb}, ClusterConfig{
				Mode: ModeAsync,
				Link: sim.LinkSpec{Name: "lan", Latency: time.Millisecond, BytesPerSec: 100 << 20},
			})
			if err != nil {
				return err
			}
			if err := cluster.Start(p); err != nil {
				return err
			}
			pri.Log().OnDurable = cluster.OnDurable
			pri.Txns().CommitGate = cluster.CommitGate
			pri.OnStateChange = cluster.OnPrimaryState
			replica := &testReplica{s: sb}
			app.Replica = replica
			app.ReplicaShare = 0.5

			drv.Start()
			p.Sleep(10 * time.Second)

			// The stand-by must actually be trailing here, or every bound
			// below is tested vacuously.
			if lag := sb.Lag(); lag <= 1 {
				return fmt.Errorf("stand-by not lagging under load (lag=%d records)", lag)
			}
			// Snapshot pinned at (never past) the applied SCN, which in
			// turn trails the primary's flushed position.
			sn, err := sb.Snapshot()
			if err != nil {
				return err
			}
			if sn.SCN() > sb.AppliedSCN() {
				return fmt.Errorf("snapshot SCN %d newer than applied SCN %d", sn.SCN(), sb.AppliedSCN())
			}
			if sn.SCN() >= pri.Log().FlushedSCN() {
				return fmt.Errorf("snapshot SCN %d not behind primary flushed %d: not a lagging read", sn.SCN(), pri.Log().FlushedSCN())
			}
			sn.Done(p)
			// The TPC-C consistency conditions must hold on the lagging
			// replica view — older than the primary, but internally
			// consistent.
			viols, err := app.CheckReplicaConsistency(p, replica)
			if err != nil {
				return err
			}
			if len(viols) > 0 {
				return fmt.Errorf("replica consistency violations on lagging stand-by: %v", viols)
			}

			// Negative: a stand-by lagging beyond the configured bound
			// refuses the snapshot. Tighten the bound, then catch the
			// stand-by at a lagging instant (the apply oscillates between
			// caught-up and owing under load).
			sb.cfg.MaxReadLag = 1
			for i := 0; i < 10000 && sb.Lag() <= 1; i++ {
				p.Sleep(time.Millisecond)
			}
			if lag := sb.Lag(); lag <= 1 {
				return fmt.Errorf("never caught the stand-by lagging (lag=%d)", lag)
			}
			if _, err := sb.Snapshot(); !errors.Is(err, ErrStaleReplica) {
				return fmt.Errorf("stale-beyond-bound snapshot not refused: %v", err)
			}
			sb.cfg.MaxReadLag = 1 << 30

			// A routed read against a stale replica falls back to the
			// primary and still serves the transaction. The stale stand-by
			// is synthetic: far behind a pushed primary position, never
			// within bound.
			staleIn, err := engine.New(k, machineFS(), ecfg)
			if err != nil {
				return err
			}
			stale := New(staleIn, DefaultConfig(), 0)
			push := &redo.StreamFrame{Seq: 1, PrimarySCN: 100000}
			stale.Receive(p, push, push.Encode())
			app.Replica = &testReplica{s: stale}
			fb := app.ReplicaFallback
			app.ReplicaShare = 1
			if _, err := app.OrderStatus(p, rand.New(rand.NewSource(7)), 1); err != nil {
				return fmt.Errorf("order-status with stale replica: %w", err)
			}
			if app.ReplicaFallback <= fb {
				return fmt.Errorf("stale replica read did not fall back to the primary")
			}
			app.Replica = replica
			app.ReplicaShare = 0.5

			drv.Quiesce(p)
			if app.ReplicaServed == 0 {
				return fmt.Errorf("no read-only transaction was served by the stand-by")
			}
			return nil
		}()
	})
	// The primary stays alive (recurring checkpoints), so the horizon
	// must be tight or the kernel grinds on long after the test is done.
	k.Run(sim.Time(5 * time.Minute))
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestSnapshotFailsClosedAcrossApply pins the snapshot lifetime rule: a
// snapshot taken before the apply advances must refuse further reads
// (fail closed) rather than mix rows from two apply positions.
func TestSnapshotFailsClosedAcrossApply(t *testing.T) {
	k := sim.NewKernel(5)
	in, err := engine.New(k, machineFS(), engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sb := New(in, DefaultConfig(), 0)
	var runErr error
	k.Go("closed", func(p *sim.Proc) {
		runErr = func() error {
			if err := schemaStandby(p, sb.Instance()); err != nil {
				return err
			}
			if err := sb.Start(p); err != nil {
				return err
			}
			f := &redo.StreamFrame{Seq: 1, PrimarySCN: 1, Records: []redo.Record{
				{SCN: 1, Txn: 1, Op: redo.OpInsert, Table: "acct", Key: 1, After: []byte("a")},
				{SCN: 2, Txn: 1, Op: redo.OpCommit},
			}}
			f.Records[1].SCN = 2
			sb.Receive(p, f, f.Encode())
			p.Sleep(time.Second) // let the stream apply drain
			sn, err := sb.Snapshot()
			if err != nil {
				return err
			}
			if _, err := sn.Read(p, "acct", 1); err != nil {
				return fmt.Errorf("read at snapshot SCN: %v", err)
			}
			// Apply advances past the snapshot.
			f2 := &redo.StreamFrame{Seq: 2, PrimarySCN: 3, Records: []redo.Record{
				{SCN: 3, Txn: 2, Op: redo.OpUpdate, Table: "acct", Key: 1, Before: []byte("a"), After: []byte("b")},
				{SCN: 4, Txn: 2, Op: redo.OpCommit},
			}}
			sb.Receive(p, f2, f2.Encode())
			p.Sleep(time.Second)
			if _, err := sn.Read(p, "acct", 1); !errors.Is(err, ErrStaleReplica) {
				return fmt.Errorf("outlived snapshot did not fail closed: %v", err)
			}
			sn.Done(p)
			return nil
		}()
	})
	k.Run(sim.Time(time.Hour))
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestSnapshotReadsPendingRowsAsTheirBeforeImages pins the committed-read
// overlay: under a transaction the stream has not seen finish, a row it
// inserted reads as absent, and a row it updated (twice) or deleted reads
// as the before-image of its first change to that row — also after enough
// committed traffic has streamed past to compact the loser table. Once the
// commit arrives, the snapshot reads the new state. Either way a read is a
// view, as txn.Manager.Read's is: the very bytes the stream carried, capped
// at their length, which the image shares with the applied record.
func TestSnapshotReadsPendingRowsAsTheirBeforeImages(t *testing.T) {
	k := sim.NewKernel(5)
	in, err := engine.New(k, machineFS(), engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sb := New(in, DefaultConfig(), 0)
	frame := func(seq uint64, recs ...redo.Record) *redo.StreamFrame {
		for i := range recs {
			recs[i].SCN = redo.SCN(seq*10 + uint64(i))
		}
		return &redo.StreamFrame{Seq: seq, PrimarySCN: recs[len(recs)-1].SCN, Records: recs}
	}
	type row struct {
		v  string
		ok bool
	}
	read := func(p *sim.Proc) (map[int64]row, []int64, error) {
		sn, err := sb.Snapshot()
		if err != nil {
			return nil, nil, err
		}
		defer sn.Done(p)
		got := make(map[int64]row)
		for key := int64(1); key <= 3; key++ {
			v, err := sn.Read(p, "acct", key)
			if err != nil && !errors.Is(err, txn.ErrRowNotFound) {
				return nil, nil, err
			}
			got[key] = row{string(v), err == nil}
		}
		var scanned []int64
		err = sn.Scan(p, "acct", func(key int64, v []byte) bool {
			if r := got[key]; !r.ok || r.v != string(v) {
				scanned = append(scanned, -key) // disagrees with Read
			} else {
				scanned = append(scanned, key)
			}
			return true
		})
		return got, scanned, err
	}
	isView := func(p *sim.Proc, key int64, carried []byte) error {
		sn, err := sb.Snapshot()
		if err != nil {
			return err
		}
		defer sn.Done(p)
		v, err := sn.Read(p, "acct", key)
		if err != nil {
			return err
		}
		if &v[0] != &carried[0] || cap(v) != len(v) {
			return fmt.Errorf("row %d reads %q (cap %d), not a capped view of the %q the stream carried", key, v, cap(v), carried)
		}
		return nil
	}
	a0, a2, b0 := []byte("a0"), []byte("a2"), []byte("b0")
	var runErr error
	k.Go("overlay", func(p *sim.Proc) {
		runErr = func() error {
			if err := schemaStandby(p, sb.Instance()); err != nil {
				return err
			}
			if err := sb.Start(p); err != nil {
				return err
			}
			for _, f := range []*redo.StreamFrame{
				frame(1,
					redo.Record{Txn: 1, Op: redo.OpInsert, Table: "acct", Key: 1, After: []byte("a0")},
					redo.Record{Txn: 1, Op: redo.OpInsert, Table: "acct", Key: 2, After: []byte("b0")},
					redo.Record{Txn: 1, Op: redo.OpCommit}),
				frame(2,
					redo.Record{Txn: 2, Op: redo.OpInsert, Table: "acct", Key: 3, After: []byte("c1")},
					redo.Record{Txn: 2, Op: redo.OpUpdate, Table: "acct", Key: 1, Before: a0, After: []byte("a1")},
					redo.Record{Txn: 2, Op: redo.OpUpdate, Table: "acct", Key: 1, Before: []byte("a1"), After: a2},
					redo.Record{Txn: 2, Op: redo.OpDelete, Table: "acct", Key: 2, Before: b0}),
			} {
				sb.Receive(p, f, f.Encode())
			}
			p.Sleep(time.Second) // let the stream apply drain
			got, scanned, err := read(p)
			if err != nil {
				return err
			}
			want := map[int64]row{1: {"a0", true}, 2: {"b0", true}, 3: {"", false}}
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(scanned) != "[1 2]" {
				return fmt.Errorf("under the pending transaction: read %v, scanned %v; want %v and [1 2]", got, scanned, want)
			}
			if err := isView(p, 1, a0); err != nil {
				return err
			}
			if err := isView(p, 2, b0); err != nil {
				return err
			}
			// 1200 committed transactions insert and delete row 9 in turn,
			// five to a frame: more than a compaction's worth of records.
			seq := uint64(3)
			for i := 0; i < 1200; i += 5 {
				var recs []redo.Record
				for j := i; j < i+5; j++ {
					id := redo.TxnID(100 + j)
					rec := redo.Record{Txn: id, Op: redo.OpInsert, Table: "acct", Key: 9, After: []byte("f")}
					if j%2 == 1 {
						rec = redo.Record{Txn: id, Op: redo.OpDelete, Table: "acct", Key: 9, Before: []byte("f")}
					}
					recs = append(recs, rec, redo.Record{Txn: id, Op: redo.OpCommit})
				}
				f := frame(seq, recs...)
				sb.Receive(p, f, f.Encode())
				seq++
			}
			p.Sleep(time.Second)
			if recs, _, _ := tableSize(sb.losers); recs >= 1200 {
				return fmt.Errorf("the loser table holds %d records after 1200 committed changes: it never compacted", recs)
			}
			if got, scanned, err = read(p); err != nil {
				return err
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(scanned) != "[1 2]" {
				return fmt.Errorf("after a compaction, under the pending transaction: read %v, scanned %v; want %v and [1 2]", got, scanned, want)
			}
			if err := isView(p, 1, a0); err != nil {
				return err
			}
			f := frame(seq, redo.Record{Txn: 2, Op: redo.OpCommit})
			sb.Receive(p, f, f.Encode())
			p.Sleep(time.Second)
			got, scanned, err = read(p)
			if err != nil {
				return err
			}
			want = map[int64]row{1: {"a2", true}, 2: {"", false}, 3: {"c1", true}}
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(scanned) != "[1 3]" {
				return fmt.Errorf("after the commit: read %v, scanned %v; want %v and [1 3]", got, scanned, want)
			}
			return isView(p, 1, a2)
		}()
	})
	k.Run(sim.Time(time.Hour))
	if runErr != nil {
		t.Fatal(runErr)
	}
}
