package fabric

import "time"

// Config holds the calibrated cost model of the simulated fabric. The
// defaults approximate the paper's testbed: InfiniBand EDR 4x (100 Gbps)
// ConnectX-5 NICs behind one SB7890 switch.
type Config struct {
	// LinkBandwidth is the per-direction link speed in bytes per second.
	// 100 Gbps ≈ 12.5e9 B/s on the wire; we use the effective data rate.
	LinkBandwidth float64

	// Propagation is the one-way cable + PHY delay between a NIC and the
	// switch (applied twice per hop: NIC→switch and switch→NIC combined).
	Propagation time.Duration

	// SwitchDelay is the switch forwarding latency per message.
	SwitchDelay time.Duration

	// PostOverhead is the CPU+doorbell cost a process pays to post one work
	// request (WRITE/READ/SEND/atomic).
	PostOverhead time.Duration

	// InlineSaving is subtracted from the NIC-side start-up cost for writes
	// at or below InlineThreshold bytes (payload rides in the WQE, saving a
	// DMA read).
	InlineSaving    time.Duration
	InlineThreshold int

	// WireOverheadBytes is added to every message's serialized size
	// (headers, CRCs); it makes tiny messages bandwidth-inefficient.
	WireOverheadBytes int

	// NICStartup is the fixed NIC processing time per work request before
	// serialization begins. It bounds the achievable message rate.
	NICStartup time.Duration

	// CompletionDelay is the lag between the last byte leaving the sender
	// (or the ack arriving, folded in) and the completion entry appearing
	// in the sender's CQ.
	CompletionDelay time.Duration

	// PollCost is the CPU cost of one CQ poll.
	PollCost time.Duration

	// DetectDelay models memory-polling granularity on the target: the gap
	// between a commit into a memory region and a polling process observing
	// it.
	DetectDelay time.Duration

	// AtomicRemoteCost is the NIC-side cost to execute a remote atomic
	// (fetch-and-add) at the responder, covering the PCIe round trip
	// and serialization of concurrent atomics to the same NIC.
	AtomicRemoteCost time.Duration

	// MulticastLoss is the probability that a multicast delivery to one
	// member is dropped (unreliable transport).
	MulticastLoss float64

	// Faults, when non-nil, makes the fabric misbehave according to the
	// plan: probabilistic verb drops, extra delivery delay and jitter,
	// duplication, reordering, link flaps, and whole-node crashes. See
	// fault.go for the exact semantics. Nil injects nothing.
	Faults *FaultPlan
}

// DefaultConfig returns the calibrated cost model described in DESIGN.md §6.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth:     12.5e9, // 100 Gbps
		Propagation:       250 * time.Nanosecond,
		SwitchDelay:       120 * time.Nanosecond,
		PostOverhead:      75 * time.Nanosecond,
		InlineSaving:      60 * time.Nanosecond,
		InlineThreshold:   220,
		WireOverheadBytes: 42,
		NICStartup:        80 * time.Nanosecond,
		CompletionDelay:   300 * time.Nanosecond,
		PollCost:          40 * time.Nanosecond,
		DetectDelay:       80 * time.Nanosecond,
		AtomicRemoteCost:  150 * time.Nanosecond,
		MulticastLoss:     0,
	}
}

// controlBytes is the largest payload that rides the control lane (high
// priority service level): small READs and atomics bypass the bulk FIFO.
const controlBytes = 256

// serialization returns the wire time for a message with the given payload
// size.
func (c *Config) serialization(bytes int) time.Duration {
	wire := float64(bytes + c.WireOverheadBytes)
	return time.Duration(wire / c.LinkBandwidth * 1e9)
}
