package fabric

import (
	"math/bits"
)

// The fabric snapshots ("stages") the bytes a READ response or a SEND
// carries, and a WRITE's only when it is doorbell-batched or a fault
// delays or duplicates its commit; a plain WRITE commits straight from its
// source. Staging buffers are recycled through size-classed per-cluster
// freelists instead of allocating per operation. The freelists are plain
// slices, not sync.Pools: the kernel serializes all access, and — unlike
// sync.Pool — a GC cycle cannot empty them, which would silently
// reintroduce per-operation allocations into the steady state.

// stagedBuf boxes a recycled staging buffer; passing the box (rather than
// the slice) around avoids re-boxing on every recycle.
type stagedBuf struct{ b []byte }

// stagedGet returns a staging buffer of length n backed by a recycled
// power-of-two allocation. Recycled buffers are not zeroed: callers must
// only read back regions they wrote (stageInto documents the contract).
func (c *Cluster) stagedGet(n int) *stagedBuf {
	if n <= 0 {
		return &stagedBuf{}
	}
	class := bits.Len(uint(n - 1))
	if class >= len(c.stagedFree) {
		return &stagedBuf{b: make([]byte, n)}
	}
	if fl := c.stagedFree[class]; len(fl) > 0 {
		sb := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		c.stagedFree[class] = fl[:len(fl)-1]
		sb.b = sb.b[:n]
		return sb
	}
	return &stagedBuf{b: make([]byte, n, 1<<class)}
}

// stagedPut recycles a buffer obtained from stagedGet. Buffers whose
// capacity is not an exact size class (oversized one-off allocations) are
// dropped on the floor.
func (c *Cluster) stagedPut(sb *stagedBuf) {
	cp := cap(sb.b)
	if cp == 0 || cp&(cp-1) != 0 {
		return
	}
	class := bits.Len(uint(cp)) - 1
	if class >= len(c.stagedFree) {
		return
	}
	sb.b = sb.b[:cp]
	c.stagedFree[class] = append(c.stagedFree[class], sb)
}

// stagedRef counts the scheduled commit events still reading a shared
// staging buffer; the last release returns it to the cluster freelist. All
// accesses happen in scheduler or process context of one kernel, which the
// baton-passing handoff serializes.
type stagedRef struct {
	buf  *stagedBuf
	refs int
}

func (r *stagedRef) release(c *Cluster) {
	r.refs--
	if r.refs == 0 {
		if r.buf != nil {
			c.stagedPut(r.buf)
			r.buf = nil
		}
		c.srefFree = append(c.srefFree, r)
	}
}

// bytes returns the staged bytes (nil for an empty message, which stages
// no buffer).
func (r *stagedRef) bytes() []byte {
	if r.buf == nil {
		return nil
	}
	return r.buf.b
}

// stagedRefGet returns a recycled reference holder initialized to refs
// references; release recycles it when the count drains.
func (c *Cluster) stagedRefGet(refs int) *stagedRef {
	var r *stagedRef
	if n := len(c.srefFree); n > 0 {
		r = c.srefFree[n-1]
		c.srefFree[n-1] = nil
		c.srefFree = c.srefFree[:n-1]
	} else {
		r = new(stagedRef)
	}
	r.refs = refs
	return r
}
