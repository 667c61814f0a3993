package sim

import "time"

// LinkSpec describes a one-way network link: fixed propagation latency
// plus a serialization rate. The zero value is an infinitely fast link.
type LinkSpec struct {
	// Name labels the link in reports ("lan", "wan", ...).
	Name string
	// Latency is the propagation delay added to every message.
	Latency Duration
	// BytesPerSec is the serialization bandwidth (0 = unlimited).
	BytesPerSec int64
}

// TransferTime returns the serialization delay for n bytes.
func (s LinkSpec) TransferTime(n int64) Duration {
	if s.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / float64(s.BytesPerSec) * float64(time.Second))
}

// Link models a reliable, ordered, one-way network path on the simulation
// substrate: messages are serialized through a FIFO pipe at the spec's
// bandwidth, then delayed by the propagation latency. Two fault controls
// cover the ResBench network dimensions: a partition blocks senders until
// the link heals (messages are never lost, like a TCP stream that
// retransmits), and an extra-latency window models a lag spike.
type Link struct {
	k    *Kernel
	spec LinkSpec
	pipe *Resource

	partitioned bool
	healed      Cond
	extra       Duration // lag-spike latency added while set

	sends     int64
	bytesSent int64
	stalls    int64 // sends that blocked on a partition
}

// NewLink returns a link on the kernel with the given spec.
func NewLink(k *Kernel, spec LinkSpec) *Link {
	return &Link{k: k, spec: spec, pipe: NewResource(1)}
}

// Spec returns the link's static description.
func (l *Link) Spec() LinkSpec { return l.spec }

// Send carries n bytes across the link on the calling process: it blocks
// while the link is partitioned, serializes the message through the pipe
// (FIFO with any concurrent senders), then pays the propagation latency.
// When Send returns the message has been delivered to the far side.
func (l *Link) Send(p *Proc, n int64) {
	if l.partitioned {
		l.stalls++
		for l.partitioned {
			l.healed.Wait(p)
		}
	}
	l.pipe.Use(p, l.spec.TransferTime(n))
	if d := l.spec.Latency + l.extra; d > 0 {
		p.Sleep(d)
	}
	l.sends++
	l.bytesSent += n
}

// SetPartitioned opens (true) or heals (false) a partition. Healing wakes
// every sender blocked on the partition, in FIFO order.
func (l *Link) SetPartitioned(v bool) {
	if l.partitioned && !v {
		l.partitioned = false
		l.healed.Broadcast(l.k)
		return
	}
	l.partitioned = v
}

// SetExtraLatency sets (or, with 0, clears) a lag-spike latency added to
// every subsequent send's propagation delay.
func (l *Link) SetExtraLatency(d Duration) {
	if d < 0 {
		d = 0
	}
	l.extra = d
}

// PartitionStalls reports sends that had to wait out a partition.
func (l *Link) PartitionStalls() int64 { return l.stalls }
