package sim

import (
	"testing"
	"time"
)

func TestLinkSpecTransferTime(t *testing.T) {
	unlimited := LinkSpec{Name: "fast"}
	if got := unlimited.TransferTime(1 << 20); got != 0 {
		t.Fatalf("unlimited link transfer time = %v, want 0", got)
	}
	s := LinkSpec{Name: "slow", BytesPerSec: 1000}
	if got := s.TransferTime(0); got != 0 {
		t.Fatalf("zero-byte transfer time = %v, want 0", got)
	}
	if got, want := s.TransferTime(500), Duration(500*time.Millisecond); got != want {
		t.Fatalf("500B at 1kB/s = %v, want %v", got, want)
	}
}

func TestLinkSendPaysLatencyAndBandwidth(t *testing.T) {
	k := NewKernel(1)
	spec := LinkSpec{Name: "wan", Latency: Duration(10 * time.Millisecond), BytesPerSec: 1000}
	l := NewLink(k, spec)
	if l.Spec().Name != "wan" {
		t.Fatalf("spec name = %q", l.Spec().Name)
	}
	var took Duration
	k.Go("send", func(p *Proc) {
		start := p.Now()
		l.Send(p, 1000) // 1s serialization + 10ms propagation
		took = p.Now().Sub(start)
	})
	k.RunAll()
	if want := Duration(time.Second + 10*time.Millisecond); took != want {
		t.Fatalf("send took %v, want %v", took, want)
	}
	if l.sends != 1 || l.bytesSent != 1000 {
		t.Fatalf("counters sends=%d bytes=%d, want 1/1000", l.sends, l.bytesSent)
	}
	if l.PartitionStalls() != 0 {
		t.Fatalf("unexpected partition stalls: %d", l.PartitionStalls())
	}
}

func TestLinkSerializesConcurrentSenders(t *testing.T) {
	k := NewKernel(1)
	l := NewLink(k, LinkSpec{BytesPerSec: 1000})
	var done []Time
	for i := 0; i < 2; i++ {
		k.Go("send", func(p *Proc) {
			l.Send(p, 1000)
			done = append(done, p.Now())
		})
	}
	k.RunAll()
	// FIFO through the pipe: the second sender waits out the first's
	// full serialization, so deliveries land at 1s and 2s.
	if len(done) != 2 || done[0] != Time(time.Second) || done[1] != Time(2*time.Second) {
		t.Fatalf("deliveries at %v, want [1s 2s]", done)
	}
}

func TestLinkPartitionBlocksUntilHealed(t *testing.T) {
	k := NewKernel(1)
	l := NewLink(k, LinkSpec{})
	l.SetPartitioned(true)
	if !l.partitioned {
		t.Fatal("link not partitioned after SetPartitioned(true)")
	}
	var delivered Time
	k.Go("send", func(p *Proc) {
		l.Send(p, 10)
		delivered = p.Now()
	})
	k.After(5*time.Second, func() { l.SetPartitioned(false) })
	k.RunAll()
	if delivered != Time(5*time.Second) {
		t.Fatalf("delivery at %v, want at the 5s heal", delivered)
	}
	if l.partitioned {
		t.Fatal("link still partitioned after heal")
	}
	if l.PartitionStalls() != 1 {
		t.Fatalf("partition stalls = %d, want 1", l.PartitionStalls())
	}
	// Healing an already-healthy link is a no-op.
	l.SetPartitioned(false)
	if l.partitioned {
		t.Fatal("healthy link became partitioned")
	}
}

func TestLinkExtraLatencyWindow(t *testing.T) {
	k := NewKernel(1)
	l := NewLink(k, LinkSpec{Latency: Duration(time.Millisecond)})
	l.SetExtraLatency(Duration(100 * time.Millisecond))
	if got := l.extra; got != Duration(100*time.Millisecond) {
		t.Fatalf("extra latency = %v", got)
	}
	var first, second Time
	k.Go("send", func(p *Proc) {
		l.Send(p, 1)
		first = p.Now()
		l.SetExtraLatency(-1) // clamped to clear
		l.Send(p, 1)
		second = p.Now()
	})
	k.RunAll()
	if first != Time(101*time.Millisecond) {
		t.Fatalf("lagged send delivered at %v, want 101ms", first)
	}
	if l.extra != 0 {
		t.Fatalf("extra latency not cleared: %v", l.extra)
	}
	if second != Time(102*time.Millisecond) {
		t.Fatalf("post-spike send delivered at %v, want 102ms", second)
	}
}
