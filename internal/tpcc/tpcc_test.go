package tpcc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/recovery"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
)

// smallConfig keeps unit-test runs fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 60
	cfg.Items = 500
	cfg.TerminalsPerWarehouse = 5
	return cfg
}

type rig struct {
	k   *sim.Kernel
	in  *engine.Instance
	app *App
	drv *Driver
	err error
}

func newRig(t testing.TB, cfg Config, mutate func(*engine.Config)) *rig {
	t.Helper()
	k := sim.NewKernel(1234)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 4 << 20
	ecfg.CacheBlocks = 512
	ecfg.CheckpointTimeout = 60 * time.Second
	if mutate != nil {
		mutate(&ecfg)
	}
	in, err := engine.New(k, fs, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(in, cfg)
	return &rig{k: k, in: in, app: app, drv: NewDriver(app, DriverConfig{})}
}

func (r *rig) boot(p *sim.Proc) error {
	if err := r.in.Open(p); err != nil {
		return err
	}
	if err := r.app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
		return err
	}
	if err := r.app.Load(p, rand.New(rand.NewSource(99))); err != nil {
		return err
	}
	return r.in.Checkpoint(p)
}

func (r *rig) run(t testing.TB, fn func(p *sim.Proc) error) {
	t.Helper()
	r.k.Go("bench", func(p *sim.Proc) {
		if err := fn(p); err != nil {
			r.err = err
		}
	})
	r.k.Run(sim.Time(100 * time.Hour))
	if r.err != nil {
		t.Fatal(r.err)
	}
}

func TestLoadProducesConsistentDatabase(t *testing.T) {
	r := newRig(t, smallConfig(), nil)
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		viols, err := r.app.CheckConsistency(p)
		if err != nil {
			return err
		}
		if len(viols) != 0 {
			return fmt.Errorf("violations after load: %v", viols[:min(3, len(viols))])
		}
		return nil
	})
}

func TestWorkloadRunsAndStaysConsistent(t *testing.T) {
	r := newRig(t, smallConfig(), nil)
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		r.drv.Start()
		p.Sleep(2 * time.Minute)
		r.drv.Quiesce(p)
		if got := r.drv.CountCommitted(TxnNewOrder); got < 50 {
			return fmt.Errorf("only %d New-Order commits in 2 min", got)
		}
		// All five types ran.
		for _, typ := range []TxnType{TxnNewOrder, TxnPayment, TxnOrderStatus, TxnDelivery, TxnStockLevel} {
			if r.drv.CountCommitted(typ) == 0 {
				return fmt.Errorf("no %v commits", typ)
			}
		}
		// Mix sanity: Payment within a factor of 1.5 of New-Order.
		no, pay := r.drv.CountCommitted(TxnNewOrder), r.drv.CountCommitted(TxnPayment)
		if pay*3 < no*2 || no*3 < pay*2 {
			return fmt.Errorf("mix skewed: NO=%d P=%d", no, pay)
		}
		viols, err := r.app.CheckConsistency(p)
		if err != nil {
			return err
		}
		if len(viols) != 0 {
			return fmt.Errorf("violations after run: %v", viols[:min(3, len(viols))])
		}
		// Durability of every acked New-Order.
		lost, _, err := r.app.Missing(p, r.drv.Commits(), -1)
		if err != nil {
			return err
		}
		if lost != 0 {
			return fmt.Errorf("%d acked orders missing", lost)
		}
		return nil
	})
	if len(r.drv.aborts) == 0 {
		t.Log("note: no user aborts observed (small run)")
	}
}

func TestTpmCAndSeriesAgree(t *testing.T) {
	r := newRig(t, smallConfig(), nil)
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		start := p.Now()
		r.drv.Start()
		p.Sleep(2 * time.Minute)
		r.drv.Stop()
		p.Sleep(time.Second)
		end := start.Add(2 * time.Minute)
		tpmc := r.drv.TpmC(start, end)
		buckets := r.drv.ThroughputSeries(start, end, 30*time.Second)
		sum := 0
		for _, b := range buckets {
			sum += b
		}
		if int(tpmc*2+0.5) != sum {
			return fmt.Errorf("tpmC=%.1f (=%d in 2min) but buckets sum to %d", tpmc, int(tpmc*2+0.5), sum)
		}
		return nil
	})
}

func TestCrashDuringWorkloadRecoversConsistently(t *testing.T) {
	r := newRig(t, smallConfig(), nil)
	bk := backup.NewManager(r.k, r.in.FS(), engine.DiskArch)
	rm := recovery.NewManager(r.in, bk)
	r.run(t, func(p *sim.Proc) error {
		if err := r.boot(p); err != nil {
			return err
		}
		r.drv.Start()
		p.Sleep(90 * time.Second)
		// SHUTDOWN ABORT in the middle of full throughput.
		crashAt := p.Now()
		r.in.Crash()
		p.Sleep(2 * time.Second) // detection time
		if _, err := rm.InstanceRecovery(p); err != nil {
			return err
		}
		// Terminals resume by themselves (they retry); wait for
		// service to resume, then quiesce.
		p.Sleep(60 * time.Second)
		r.drv.Quiesce(p)

		back, ok := r.drv.FirstCommitAfter(crashAt)
		if !ok {
			return fmt.Errorf("service never resumed after crash")
		}
		if back.Sub(crashAt) <= 0 {
			return fmt.Errorf("recovery time %v", back.Sub(crashAt))
		}
		// No committed work lost, no integrity violations.
		lost, _, err := r.app.Missing(p, r.drv.Commits(), -1)
		if err != nil {
			return err
		}
		if lost != 0 {
			return fmt.Errorf("%d acked orders lost by crash recovery", lost)
		}
		viols, err := r.app.CheckConsistency(p)
		if err != nil {
			return err
		}
		if len(viols) != 0 {
			return fmt.Errorf("violations after crash recovery: %v", viols[:min(3, len(viols))])
		}
		return nil
	})
}

func TestLastNameSpec(t *testing.T) {
	tests := []struct {
		num  int
		want string
	}{
		{0, "BARBARBAR"},
		{1, "BARBAROUGHT"},
		{371, "PRICALLYOUGHT"},
		{999, "EINGEINGEING"},
	}
	for _, tt := range tests {
		if got := LastName(tt.num); got != tt.want {
			t.Errorf("LastName(%d) = %q, want %q", tt.num, got, tt.want)
		}
	}
}

func TestNURandInRange(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(span uint8) bool {
		x, y := 1, int(span%200)+2
		v := nuRand(r, 1023, 7, x, y)
		return v >= x && v <= y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRowCodecsRoundTrip(t *testing.T) {
	w := Warehouse{ID: 3, Name: "acme", Street: "s", City: "c", State: "ST", Zip: "12345", Tax: 0.05, YTD: 300000}
	wb, err := DecodeWarehouse(w.Encode())
	if err != nil || wb != w {
		t.Fatalf("warehouse: %+v err=%v", wb, err)
	}
	d := District{ID: 4, WID: 3, Name: "d", Street: "s", City: "c", State: "ST", Zip: "z", Tax: 0.01, YTD: 5, NextOID: 77}
	db, err := DecodeDistrict(d.Encode())
	if err != nil || db != d {
		t.Fatalf("district: %+v err=%v", db, err)
	}
	o := Order{ID: 9, DID: 4, WID: 3, CID: 2, EntryTime: 12345, CarrierID: 5, OLCnt: 7, AllLocal: 1}
	ob, err := DecodeOrder(o.Encode())
	if err != nil || ob != o {
		t.Fatalf("order: %+v err=%v", ob, err)
	}
	s := Stock{ItemID: 11, WID: 3, Quantity: 50, YTD: 7, OrderCnt: 2, RemoteCnt: 1, Data: "xyz"}
	for i := range s.Dists {
		s.Dists[i] = fmt.Sprintf("dist%02d", i)
	}
	sb, err := DecodeStock(s.Encode())
	if err != nil || sb != s {
		t.Fatalf("stock: %+v err=%v", sb, err)
	}
}

// Property: customer codec round-trips arbitrary content.
func TestQuickCustomerCodec(t *testing.T) {
	f := func(id uint16, first, last, data string, balCents int32) bool {
		c := Customer{
			ID: int(id), DID: 3, WID: 1,
			First: first, Middle: "OE", Last: last,
			Credit: "GC", Balance: float64(balCents) / 100, Data: data,
		}
		got, err := DecodeCustomer(c.Encode())
		return err == nil && got == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeysAreUniqueAcrossRanges(t *testing.T) {
	seen := make(map[int64]string)
	check := func(k int64, what string) {
		if prev, ok := seen[k]; ok && prev != what {
			t.Fatalf("key collision: %d used by %s and %s", k, prev, what)
		}
		seen[k] = what
	}
	for w := 1; w <= 3; w++ {
		for d := 1; d <= 10; d++ {
			check(DKey(w, d), "district")
			for c := 1; c <= 30; c++ {
				check(CKey(w, d, c), "customer")
			}
			for o := 1; o <= 40; o++ {
				check(OKey(w, d, o), "order")
				for ol := 1; ol <= 15; ol++ {
					check(OLKey(w, d, o, ol), "order_line")
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
