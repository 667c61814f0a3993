package standby

import (
	"fmt"
	"testing"
	"time"

	"math/rand"

	"dbench/internal/engine"
	"dbench/internal/monitor"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/tpcc"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"sync", ModeSync}, {"async", ModeAsync}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("%v.String() = %q", got, got.String())
		}
	}
	// Archive shipping is a cluster mode but not a streaming mode: it has
	// a name, and the -repl-mode parser does not take it.
	if got := ModeArchive.String(); got != "archive" {
		t.Fatalf("ModeArchive.String() = %q", got)
	}
	for _, bad := range []string{"quorum", "archive"} {
		if _, err := ParseMode(bad); err == nil {
			t.Fatalf("ParseMode(%q) succeeded", bad)
		}
	}
}

// TestClusterIntrospection drives a small sync cluster (two first-tier
// stand-bys, one cascade) through load, a simulated primary bounce
// (stream resync from the online logs), and a failover, checking the
// introspection surface the experiment runner and the chaos fingerprints
// consume: counters, V$REPLICATION rows, MMON probes, the stream hash,
// and the promoted-instance accessors.
func TestClusterIntrospection(t *testing.T) {
	k := sim.NewKernel(17)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 1 << 20
	ecfg.Redo.Groups = 3
	ecfg.Redo.ArchiveMode = true
	ecfg.CacheBlocks = 256
	ecfg.CheckpointTimeout = 60 * time.Second
	tcfg := tpcc.DefaultConfig()
	tcfg.Warehouses = 1
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 300

	pri, err := engine.New(k, machineFS(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	app := tpcc.NewApp(pri, tcfg)

	var runErr error
	k.Go("introspect", func(p *sim.Proc) {
		runErr = func() error {
			if err := pri.Open(p); err != nil {
				return err
			}
			if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
				return err
			}
			if err := app.Load(p, rand.New(rand.NewSource(17))); err != nil {
				return err
			}
			if err := pri.Checkpoint(p); err != nil {
				return err
			}
			backupSCN := pri.DB().Control.CheckpointSCN
			if err := pri.ForceLogSwitch(p); err != nil {
				return err
			}
			sbs := make([]*Standby, 3)
			for i := range sbs {
				in, err := buildClone(p, k, ecfg, tcfg, 17, fmt.Sprintf("sb%d", i+1), 1)
				if err != nil {
					return err
				}
				sbs[i] = New(in, DefaultConfig(), backupSCN)
			}
			cluster, err := NewCluster(pri, sbs, ClusterConfig{Mode: ModeSync, Link: diffLink, Cascade: 1})
			if err != nil {
				return err
			}
			if err := cluster.Start(p); err != nil {
				return err
			}
			pri.Log().OnDurable = cluster.OnDurable
			pri.Txns().CommitGate = cluster.CommitGate
			pri.OnStateChange = cluster.OnPrimaryState

			repo := monitor.New()
			cluster.RegisterProbes(repo)

			put := func(key int64) error {
				tx, err := pri.Begin()
				if err != nil {
					return err
				}
				if err := pri.Insert(p, tx, tpcc.TableHistory, 1<<40+key, make([]byte, 64)); err != nil {
					return err
				}
				return pri.Commit(p, tx)
			}
			for i := int64(0); i < 50; i++ {
				if err := put(i); err != nil {
					return err
				}
			}
			repo.Sample(p.Now())

			if got := cluster.FirstTier(); got != 2 {
				return fmt.Errorf("first tier = %d, want 2", got)
			}
			if got := len(cluster.Links()); got != 3 {
				return fmt.Errorf("links = %d, want 3 (2 first-tier + 1 cascade)", got)
			}
			if got := len(cluster.Standbys()); got != 3 {
				return fmt.Errorf("standbys = %d, want 3", got)
			}
			st := cluster.Stats()
			frames, bytes, records, syncWaits, resyncs := st.Frames, st.Bytes, st.Records, st.SyncWaits, st.Resyncs
			if frames == 0 || bytes == 0 || records == 0 {
				return fmt.Errorf("stream counters empty: frames=%d bytes=%d records=%d", frames, bytes, records)
			}
			if syncWaits == 0 {
				return fmt.Errorf("sync mode recorded no commit waits")
			}
			if resyncs != 0 {
				return fmt.Errorf("resyncs = %d before any primary bounce", resyncs)
			}
			if cluster.StreamHash() == 0 {
				return fmt.Errorf("stream hash empty after traffic")
			}
			if cluster.ActiveInstance() != pri || cluster.Promoted() != nil || cluster.PromotedSCN() != 0 {
				return fmt.Errorf("cluster reports a failover before any crash")
			}
			rows := cluster.VReplication()
			if len(rows) != 3 {
				return fmt.Errorf("V$REPLICATION rows = %d, want 3", len(rows))
			}
			for i, r := range rows {
				wantMode := "sync"
				if i == 2 {
					wantMode = "casc"
				}
				if r.Mode != wantMode || r.Status != "APPLYING" || r.ReceivedSCN == 0 {
					return fmt.Errorf("row %d = %+v", i, r)
				}
			}
			sb := sbs[0]
			if sb.Name() != "sb1" {
				return fmt.Errorf("standby name = %q", sb.Name())
			}
			if sb.lastPrimary == 0 || sb.StreamHash() == 0 {
				return fmt.Errorf("stream watermarks empty: primary=%d hash=%d", sb.lastPrimary, sb.StreamHash())
			}
			last, ok := repo.Last()
			if !ok {
				return fmt.Errorf("no sample")
			}
			seen := map[string]bool{}
			for _, g := range last.Gauges {
				seen[g.Name] = true
			}
			for _, name := range []string{"repl.lag.records", "repl.rto.estimate.ms", "repl.link.stalls"} {
				if !seen[name] {
					return fmt.Errorf("probe %s missing from sample gauges %v", name, last.Gauges)
				}
			}

			// A primary bounce (instance recovery, not failover): the
			// streamers stop with the instance and resync from the online
			// logs when it reopens — no stand-by falls behind permanently.
			cluster.OnPrimaryState(p.Now(), engine.StateDown)
			cluster.OnPrimaryState(p.Now(), engine.StateOpen)
			if resyncs := cluster.Stats().Resyncs; resyncs != 2 {
				return fmt.Errorf("resyncs = %d after bounce, want 2 (first tier)", resyncs)
			}
			for i := int64(50); i < 60; i++ {
				if err := put(i); err != nil {
					return err
				}
			}
			if !cluster.quorum(pri.Log().FlushedSCN()) {
				return fmt.Errorf("first tier not caught up after resync")
			}

			// Failover: the introspection flips to the promoted stand-by.
			pri.Crash()
			if _, err := cluster.Promote(p); err != nil {
				return err
			}
			if cluster.Promoted() == nil || cluster.ActiveInstance() != cluster.Promoted().Instance() {
				return fmt.Errorf("active instance did not follow the promotion")
			}
			if cluster.PromotedSCN() == 0 {
				return fmt.Errorf("promoted SCN empty")
			}
			if cluster.LastRTOEstimate() < 0 {
				return fmt.Errorf("negative RTO estimate")
			}
			status := map[string]int{}
			for _, r := range cluster.VReplication() {
				status[r.Status]++
			}
			if status["PRIMARY"] != 1 {
				return fmt.Errorf("V$REPLICATION statuses = %v, want exactly one PRIMARY", status)
			}
			return nil
		}()
	})
	k.Run(sim.Time(5 * time.Minute))
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestClusterIntrospectionArchive: an archive-shipping cluster shows on the
// same introspection surface as a streaming one — a V$REPLICATION row with
// mode "archive" counting whole logs as transport units, the MMON probes,
// and the promoted-instance accessors — while costing the primary no
// stream: no link, no LNS process, no commit wait.
func TestClusterIntrospectionArchive(t *testing.T) {
	pr := newPair(t, 32<<10, 3)
	pr.run(t, func(p *sim.Proc) error {
		if err := schema(p, pr.primary); err != nil {
			return err
		}
		if err := schemaStandby(p, pr.sb.Instance()); err != nil {
			return err
		}
		cluster, err := NewCluster(pr.primary, []*Standby{pr.sb}, ClusterConfig{Mode: ModeArchive})
		if err != nil {
			return err
		}
		if err := cluster.Start(p); err != nil {
			return err
		}
		pr.primary.Archiver().OnArchived = cluster.OnArchived
		pr.primary.Txns().CommitGate = cluster.CommitGate
		pr.primary.OnStateChange = cluster.OnPrimaryState
		repo := monitor.New()
		cluster.RegisterProbes(repo)

		for i := int64(0); i < 600; i++ {
			if err := pr.put(p, pr.primary, i%200, fmt.Sprintf("v%d", i)); err != nil {
				return err
			}
		}
		p.Sleep(5 * time.Second) // let ARCH, RFS and MRP drain
		repo.Sample(p.Now())

		if n := len(cluster.Links()); n != 0 {
			return fmt.Errorf("archive cluster built %d stream links", n)
		}
		if st := cluster.Stats(); st.Frames != 0 || st.SyncWaits != 0 {
			return fmt.Errorf("archive cluster streamed %d frames and held %d commits", st.Frames, st.SyncWaits)
		}
		rows := cluster.VReplication()
		if len(rows) != 1 {
			return fmt.Errorf("V$REPLICATION rows = %d, want 1", len(rows))
		}
		r := rows[0]
		if r.Mode != "archive" || r.Status != "APPLYING" || r.Frames < 2 || r.Bytes == 0 ||
			r.ReceivedSCN == 0 || r.AppliedSCN != r.ReceivedSCN || r.LagRecords != 0 {
			return fmt.Errorf("row = %+v, want a caught-up archive stand-by with several logs received", r)
		}
		if int(r.Frames) != pr.primary.Archiver().Archived() {
			return fmt.Errorf("stand-by received %d logs, primary archived %d", r.Frames, pr.primary.Archiver().Archived())
		}
		last, ok := repo.Last()
		if !ok {
			return fmt.Errorf("no sample")
		}
		for _, g := range last.Gauges {
			if g.Name == "repl.rto.estimate.ms" && g.Value < activationOverhead.Milliseconds() {
				return fmt.Errorf("RTO estimate %d ms is below the activation overhead", g.Value)
			}
		}

		pr.primary.Crash()
		if _, err := cluster.Promote(p); err != nil {
			return err
		}
		if cluster.Promoted() != pr.sb || cluster.ActiveInstance() != pr.sb.Instance() {
			return fmt.Errorf("active instance did not follow the promotion")
		}
		if cluster.PromotedSCN() != redo.SCN(r.ReceivedSCN) || cluster.PromotedLag() == 0 {
			return fmt.Errorf("promoted at SCN %d with lag %d, want SCN %d and the unarchived tail as lag",
				cluster.PromotedSCN(), cluster.PromotedLag(), r.ReceivedSCN)
		}
		if got := cluster.VReplication()[0].Status; got != "PRIMARY" {
			return fmt.Errorf("promoted row status = %q", got)
		}
		return nil
	})
}
