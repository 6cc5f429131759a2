package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: sample -> leaf location -> innermost inlined function -> name.
// It buckets the flat CPU time of every sample by the package of its
// leaf function into the ledger's layers. Nothing else of the format is
// decoded, so it needs no module beyond the standard library.
//
// Field numbers (github.com/google/pprof/proto/profile.proto):
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (packed), 2 value (packed)
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (index into string_table)
//
// A CPU profile's sample values are [sample count, CPU nanoseconds].

// layerProfile is a CPU profile bucketed by layer.
type layerProfile struct {
	ns    map[string]int64 // flat CPU ns per layer
	total int64
	// otherFuncs keeps the unmatched functions, so that a failed run can
	// say what it could not place.
	otherFuncs map[string]int64
}

// topOther names the heaviest functions that fell into no layer.
func (p layerProfile) topOther() string {
	names := make([]string, 0, len(p.otherFuncs))
	for n := range p.otherFuncs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return p.otherFuncs[names[i]] > p.otherFuncs[names[j]] })
	if len(names) > 3 {
		names = names[:3]
	}
	return strings.Join(names, ", ")
}

// layerOf maps a function's symbol name to a layer. The program's
// packages are layers of their own; the Go runtime and every
// standard-library package (memmove, channels, the scheduler, atomics,
// time) count as "runtime"; this harness is "bench". What remains
// (other packages of the module) is "other".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch pkg {
	case "dfi/internal/sim":
		return "sim"
	case "dfi/internal/fabric":
		return "fabric"
	case "dfi/internal/transport/chanloop":
		return "chanloop"
	case "dfi/internal/transport/sharedring":
		return "sharedring"
	case "dfi/internal/registry":
		return "registry"
	case "dfi/internal/core":
		return "core"
	case "dfi/internal/core/partition":
		return "partition"
	case "dfi/internal/schema":
		return "schema"
	case "dfi/internal/metrics":
		return "metrics"
	case "main", "dfi/benchmark":
		return "bench"
	}
	if first, _, _ := strings.Cut(pkg, "/"); first != "dfi" && !strings.Contains(first, ".") {
		return "runtime"
	}
	return "other"
}

func newLayerProfile() layerProfile {
	return layerProfile{ns: map[string]int64{}, otherFuncs: map[string]int64{}}
}

// add decodes a gzipped CPU profile and adds its samples' CPU time to
// the layer of their leaf function.
func (out *layerProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}

	type sample struct {
		leaf uint64
		ns   int64
	}
	var samples []sample
	leafFunc := map[uint64]uint64{} // location id -> function id of its innermost line
	funcName := map[uint64]uint64{} // function id -> string index
	var strs []string

	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			haveLeaf := false
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := repeated(v, b)
					if err == nil && !haveLeaf && len(ids) > 0 {
						s.leaf, haveLeaf = ids[0], true
					}
					return err
				case 2:
					more, err := repeated(v, b)
					vals = append(vals, more...)
					return err
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) != 2 {
				return fmt.Errorf("sample with %d values, want [count, cpu ns]", len(vals))
			}
			s.ns = int64(vals[1])
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			haveLine := false
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine:
					haveLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			leafFunc[id] = fn
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}

	for _, s := range samples {
		name := ""
		if i := funcName[leafFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		layer := "other"
		if name != "" {
			layer = layerOf(name)
		}
		if layer == "other" {
			out.otherFuncs[name] += s.ns
		}
		out.ns[layer] += s.ns
		out.total += s.ns
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in b; fixed-width fields, which the
// profile format does not use, are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errTruncated
			}
			msg = msg[width:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// repeated decodes a repeated varint field that arrived either packed
// (b) or as one plain element (v).
func repeated(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// uvarint decodes one base-128 varint, returning 0 bytes read when the
// buffer ends inside it or the value overflows.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0
	}
	return x, n
}
