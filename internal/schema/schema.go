// Package schema implements DFI's tuple type system (paper §4.1).
//
// A schema is a list of typed columns mirroring the LP64 data model. Tuple
// types are fixed at flow initialization, so flow execution never
// interprets types: attribute access is pure offset computation, which is
// what lets routing decisions and aggregations run at network speed.
package schema

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Type is a column data type. Sizes mirror C++ LP64 types, as the paper
// specifies; Char carries an application-chosen byte width.
type Type struct {
	Kind  Kind
	Width int // only for KindChar; other kinds have fixed widths
}

// Kind enumerates the built-in column kinds.
type Kind uint8

// Built-in column kinds.
const (
	KindInt32 Kind = iota
	KindInt64
	KindUint32
	KindUint64
	KindFloat64
	KindChar // fixed-width byte string
)

// Convenience constructors mirroring the paper's DFI_Schema literals.
var (
	Int32   = Type{Kind: KindInt32}
	Int64   = Type{Kind: KindInt64}
	Uint32  = Type{Kind: KindUint32}
	Uint64  = Type{Kind: KindUint64}
	Float64 = Type{Kind: KindFloat64}
)

// Char returns a fixed-width byte-string type of n bytes.
func Char(n int) Type { return Type{Kind: KindChar, Width: n} }

// Size returns the type's byte width.
func (t Type) Size() int {
	switch t.Kind {
	case KindInt32, KindUint32:
		return 4
	case KindInt64, KindUint64, KindFloat64:
		return 8
	case KindChar:
		return t.Width
	}
	panic(fmt.Sprintf("schema: unknown kind %d", t.Kind))
}

// String returns the column type's name ("int64", "char(16)", ...). A
// pure function of the value: safe from any goroutine.
func (t Type) String() string {
	switch t.Kind {
	case KindInt32:
		return "int32"
	case KindInt64:
		return "int64"
	case KindUint32:
		return "uint32"
	case KindUint64:
		return "uint64"
	case KindFloat64:
		return "float64"
	case KindChar:
		return fmt.Sprintf("char(%d)", t.Width)
	}
	return "unknown"
}

// Column is one named, typed attribute.
type Column struct {
	Name string
	Type Type
}

// Schema describes the tuples flowing through a DFI flow. It is immutable
// after construction.
type Schema struct {
	cols    []Column
	offsets []int
	size    int
	index   map[string]int
}

// New builds a schema from columns. Column names must be unique and
// non-empty; Char columns must have positive width.
func New(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: at least one column required")
	}
	s := &Schema{index: make(map[string]int, len(cols))}
	off := 0
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate column %q", c.Name)
		}
		if c.Type.Kind == KindChar && c.Type.Width <= 0 {
			return nil, fmt.Errorf("schema: column %q: char width must be positive", c.Name)
		}
		s.index[c.Name] = i
		s.offsets = append(s.offsets, off)
		off += c.Type.Size()
	}
	s.cols = append(s.cols, cols...)
	s.size = off
	return s, nil
}

// MustNew is New for statically known schemas; it panics on error.
func MustNew(cols ...Column) *Schema {
	s, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// TupleSize returns the fixed byte width of one tuple.
func (s *Schema) TupleSize() int { return s.size }

// Columns returns the number of columns.
func (s *Schema) Columns() int { return len(s.cols) }

// Column returns column i.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Offset returns the byte offset of column i within a tuple.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// String renders the schema as {name type, ...}. A schema is immutable
// once built: safe from any goroutine.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte('}')
	return b.String()
}

// Tuple is one fixed-width record laid out per a Schema. It is a view into
// flow buffer memory — valid only until the segment it lives in is
// released back to the flow.
type Tuple []byte

// Int32 reads column i of the tuple as int32.
func (s *Schema) Int32(t Tuple, i int) int32 {
	return int32(binary.LittleEndian.Uint32(t[s.offsets[i]:]))
}

// PutInt32 writes column i of the tuple.
func (s *Schema) PutInt32(t Tuple, i int, v int32) {
	binary.LittleEndian.PutUint32(t[s.offsets[i]:], uint32(v))
}

// Int64 reads column i of the tuple as int64.
func (s *Schema) Int64(t Tuple, i int) int64 {
	return int64(binary.LittleEndian.Uint64(t[s.offsets[i]:]))
}

// PutInt64 writes column i of the tuple.
func (s *Schema) PutInt64(t Tuple, i int, v int64) {
	binary.LittleEndian.PutUint64(t[s.offsets[i]:], uint64(v))
}

// Uint32 reads column i of the tuple as uint32.
func (s *Schema) Uint32(t Tuple, i int) uint32 {
	return binary.LittleEndian.Uint32(t[s.offsets[i]:])
}

// PutUint32 writes column i of the tuple.
func (s *Schema) PutUint32(t Tuple, i int, v uint32) {
	binary.LittleEndian.PutUint32(t[s.offsets[i]:], v)
}

// Uint64 reads column i of the tuple as uint64.
func (s *Schema) Uint64(t Tuple, i int) uint64 {
	return binary.LittleEndian.Uint64(t[s.offsets[i]:])
}

// PutUint64 writes column i of the tuple.
func (s *Schema) PutUint64(t Tuple, i int, v uint64) {
	binary.LittleEndian.PutUint64(t[s.offsets[i]:], v)
}

// Float64 reads column i of the tuple as float64.
func (s *Schema) Float64(t Tuple, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(t[s.offsets[i]:]))
}

// PutFloat64 writes column i of the tuple.
func (s *Schema) PutFloat64(t Tuple, i int, v float64) {
	binary.LittleEndian.PutUint64(t[s.offsets[i]:], math.Float64bits(v))
}

// Bytes returns the raw bytes of column i (useful for Char columns).
func (s *Schema) Bytes(t Tuple, i int) []byte {
	off := s.offsets[i]
	return t[off : off+s.cols[i].Type.Size()]
}

// KeyUint64 extracts column i widened to uint64 for routing decisions; it
// is the default shuffle-key accessor. Char columns hash their bytes.
func (s *Schema) KeyUint64(t Tuple, i int) uint64 {
	switch s.cols[i].Type.Kind {
	case KindInt32, KindUint32:
		return uint64(binary.LittleEndian.Uint32(t[s.offsets[i]:]))
	case KindInt64, KindUint64, KindFloat64:
		return binary.LittleEndian.Uint64(t[s.offsets[i]:])
	case KindChar:
		return fnv1a(s.Bytes(t, i))
	}
	panic("schema: unknown kind")
}

// KeysUint64 extracts column i of every tuple widened to uint64, appending
// into dst (reused when its capacity suffices) and returning the filled
// slice. One pass over the whole batch hoists the per-tuple kind dispatch
// out of the loop; Source.PushBatch uses it as the vectorized routing pass.
func (s *Schema) KeysUint64(dst []uint64, tuples []Tuple, i int) []uint64 {
	if cap(dst) < len(tuples) {
		dst = make([]uint64, len(tuples))
	}
	dst = dst[:len(tuples)]
	off := s.offsets[i]
	switch s.cols[i].Type.Kind {
	case KindInt32, KindUint32:
		for j, t := range tuples {
			dst[j] = uint64(binary.LittleEndian.Uint32(t[off:]))
		}
	case KindInt64, KindUint64, KindFloat64:
		for j, t := range tuples {
			dst[j] = binary.LittleEndian.Uint64(t[off:])
		}
	case KindChar:
		w := s.cols[i].Type.Size()
		for j, t := range tuples {
			dst[j] = fnv1a(t[off : off+w])
		}
	default:
		panic("schema: unknown kind")
	}
	return dst
}

// NewTuple allocates a zeroed tuple for the schema.
func (s *Schema) NewTuple() Tuple { return make(Tuple, s.size) }

// Hash is DFI's default key-based partition function: a 64-bit
// finalizer-style hash of the key, suitable for modulo distribution over
// targets.
func Hash(key uint64) uint64 {
	// splitmix64 finalizer.
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return key
}

func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
