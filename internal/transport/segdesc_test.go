package transport

import (
	"bytes"
	"testing"
)

// FuzzSegFooter holds the segment descriptor codec to what every ring
// kind relies on when it reads bytes a peer wrote: any 16 bytes parse
// (no panic) and re-encode to themselves, the tag never leaves its 24
// bits, and the descriptor of the same slot a whole number of laps ago
// never carries the expected seq — seq travels in full, so a stale lap
// cannot alias the current one. The seed corpus lives under
// testdata/fuzz/FuzzSegFooter and is replayed by plain `go test`.
func FuzzSegFooter(f *testing.F) {
	f.Add(make([]byte, SegDescBytes), uint16(32), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, SegDescBytes), uint16(1), uint8(255))
	f.Fuzz(func(t *testing.T, b []byte, slots uint16, laps uint8) {
		if len(b) < SegDescBytes {
			return
		}
		d := ParseSegDesc(b)
		if d.Tag > SegDescMaxTag {
			t.Fatalf("tag %#x exceeds 24 bits", d.Tag)
		}
		var again [SegDescBytes]byte
		d.Put(again[:])
		if !bytes.Equal(again[:], b[:SegDescBytes]) {
			t.Fatalf("Parse then Put: % x became % x", b[:SegDescBytes], again)
		}
		if got := ParseSegDesc(again[:]); got != d {
			t.Fatalf("Put then Parse: %+v became %+v", d, got)
		}

		// A tag wider than the field is cut to it, never spilled into
		// the flags or the seq next to it.
		wide := d
		wide.Tag |= 0xff << 24
		wide.Put(again[:])
		if got := ParseSegDesc(again[:]); got != d {
			t.Fatalf("tag %#x: %+v became %+v", wide.Tag, d, got)
		}

		back := uint64(slots) * uint64(laps)
		if back == 0 {
			return
		}
		stale := d
		stale.Seq = d.Seq - back // an earlier lap of the same slot
		stale.Put(again[:])
		if got := ParseSegDesc(again[:]).Seq; got == d.Seq {
			t.Fatalf("seq %d, %d laps of %d slots back, reads as the expected %d", stale.Seq, laps, slots, d.Seq)
		}
	})
}
