package transport

import "encoding/binary"

// The segment descriptor is the one 16-byte record every ring kind
// attaches to a segment — trailing the payload as a footer in private and
// shared rings, so the NIC's increasing-address DMA order makes
// "descriptor visible" imply "payload complete" (paper §5.2), and leading
// it as a header in multicast messages:
//
//	[0:4) fill LE32 | [4] flags | [5:8) tag LE24 | [8:16) seq LE64
//
// fill is the valid payload bytes. tag is zero on a private ring, the
// flow tag on a shared ring, and source index (low byte) plus the low 16
// bits of the membership epoch on multicast. seq pins a descriptor to one
// write: a slot's previous lap differs from the expected value by a
// multiple of the ring size, so a stale or zeroed descriptor never
// matches. docs/PROTOCOL.md, "Segment descriptor", is the reference.
const (
	// SegDescBytes is the encoded size of a SegDesc.
	SegDescBytes = 16
	// SegDescFlagsOff is the offset of the flags byte: a ring's consumer
	// hands a slot back by storing that one byte.
	SegDescFlagsOff = 4
	// SegDescMaxTag is the largest tag the 24-bit field carries.
	SegDescMaxTag = 1<<24 - 1
	// RingHeaderBytes precedes the slots of a ring: the consumer-owned
	// count of released slots (8 bytes little-endian at offset 0, READ by
	// producers to learn what was freed), padded to a cache line.
	RingHeaderBytes = 64
)

// Descriptor flag bits.
const (
	// SegCommitted marks a slot that holds a segment not yet released.
	SegCommitted = 1 << 0
	// SegEnd marks the producer's last segment: end of its stream.
	SegEnd = 1 << 1
)

// SegDesc is a decoded segment descriptor.
type SegDesc struct {
	Fill  uint32
	Flags byte
	Tag   uint32 // low 24 bits travel
	Seq   uint64
}

// Put encodes d into b[:SegDescBytes].
func (d SegDesc) Put(b []byte) {
	_ = b[SegDescBytes-1]
	binary.LittleEndian.PutUint32(b[0:4], d.Fill)
	b[4] = d.Flags
	b[5], b[6], b[7] = byte(d.Tag), byte(d.Tag>>8), byte(d.Tag>>16)
	binary.LittleEndian.PutUint64(b[8:16], d.Seq)
}

// ParseSegDesc decodes b[:SegDescBytes]. Every bit pattern is a valid
// descriptor; whether it is the expected one is the reader's check on
// Flags and Seq.
func ParseSegDesc(b []byte) SegDesc {
	_ = b[SegDescBytes-1]
	return SegDesc{
		Fill:  binary.LittleEndian.Uint32(b[0:4]),
		Flags: b[4],
		Tag:   uint32(b[5]) | uint32(b[6])<<8 | uint32(b[7])<<16,
		Seq:   binary.LittleEndian.Uint64(b[8:16]),
	}
}
