package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Column describes one attribute of a relation schema. Name is the
// fully qualified column name; qualification uses '.' (e.g. "c.custkey")
// but the engine treats names opaquely except for suffix resolution.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. Schemas are immutable by
// convention: operators build new schemas rather than mutating.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Cols) }

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// IndexOf resolves a column reference. An exact match wins; otherwise a
// unique suffix match on the part after the last '.' is accepted, so
// "custkey" resolves against "c.custkey" if unambiguous. Returns -1 if
// the name cannot be resolved uniquely.
func (s Schema) IndexOf(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	if strings.IndexByte(name, '.') >= 0 {
		return -1 // no suffix after a dot has a dot
	}
	// Suffix resolution.
	found := -1
	for i, c := range s.Cols {
		if suffixAfterDot(c.Name) == name {
			if found >= 0 {
				return -1 // ambiguous
			}
			found = i
		}
	}
	return found
}

func suffixAfterDot(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// MustIndexOf is IndexOf that panics on failure; used when the caller
// has already validated the plan.
func (s Schema) MustIndexOf(name string) int {
	i := s.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("engine: column %q not found in schema %v", name, s.Names()))
	}
	return i
}

// Has reports whether name resolves in the schema.
func (s Schema) Has(name string) bool { return s.IndexOf(name) >= 0 }

// Concat returns the concatenation of two schemas (join output shape).
func (s Schema) Concat(t Schema) Schema {
	cols := make([]Column, 0, len(s.Cols)+len(t.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, t.Cols...)
	return Schema{Cols: cols}
}

// Project returns the schema consisting of the named columns, in order.
func (s Schema) Project(names []string) (Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i := s.IndexOf(n)
		if i < 0 {
			return Schema{}, fmt.Errorf("engine: project: column %q not in schema %v", n, s.Names())
		}
		c := s.Cols[i]
		c.Name = n // keep the name as written by the caller
		cols = append(cols, c)
	}
	return Schema{Cols: cols}, nil
}

// Rename returns a copy of the schema with every column name passed
// through f. Used to alias relations (e.g. self-joins).
func (s Schema) Rename(f func(string) string) Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = Column{Name: f(c.Name), Kind: c.Kind}
	}
	return Schema{Cols: cols}
}

// Equal reports structural equality of schemas (names and kinds).
func (s Schema) Equal(t Schema) bool {
	if len(s.Cols) != len(t.Cols) {
		return false
	}
	for i := range s.Cols {
		if s.Cols[i] != t.Cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(a int, b string)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row of a relation; len(Tuple) == schema.Len().
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns the concatenation of two tuples in a fresh slice.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// TupleEqual reports element-wise equality of two tuples.
func TupleEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// CompareTuples orders tuples lexicographically.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// HashTuple hashes a tuple consistently with TupleEqual.
func HashTuple(t Tuple) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t {
		h ^= HashValue(v)
		h *= fnvPrime64
	}
	return h
}

// KeyString renders a tuple into a string usable as a map key,
// consistent with TupleEqual (numeric values normalize). String cells
// are length-prefixed so adjacent strings can never produce ambiguous
// concatenations: ("ab","c") and ("a","bc") — or a single string that
// embeds the separator bytes of another encoding — render to distinct
// keys. AppendKey exposes the underlying append-style encoder for
// callers that reuse a scratch buffer.
func KeyString(t Tuple) string {
	return string(AppendKey(nil, t))
}

// AppendKey appends the KeyString encoding of t to dst and returns the
// extended buffer.
func AppendKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = appendValueKey(dst, v)
	}
	return dst
}

// appendRowKey appends the KeyString encoding of row i of cols, read
// from the vectors, to dst.
func appendRowKey(dst []byte, cols []ColVec, i int) []byte {
	for c := range cols {
		dst = appendValueKey(dst, cols[c].Value(i))
	}
	return dst
}

// appendValueKey appends the KeyString encoding of one cell to dst.
func appendValueKey(dst []byte, v Value) []byte {
	switch v.K {
	case KindNull:
		dst = append(dst, 0, 'n')
	case KindBool:
		// Distinct tag: booleans are not Compare-equal to the ints
		// 0/1 (kinds order first), so they must not share encodings.
		dst = append(dst, 0, 'b')
		dst = strconv.AppendInt(dst, v.I, 10)
	case KindInt:
		dst = append(dst, 0, 'i')
		dst = strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			dst = append(dst, 0, 'i')
			dst = strconv.AppendInt(dst, int64(v.F), 10)
		} else {
			dst = append(dst, 0, 'f')
			dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		}
	case KindString:
		dst = append(dst, 0, 's')
		dst = strconv.AppendInt(dst, int64(len(v.S)), 10)
		dst = append(dst, ':')
		dst = append(dst, v.S...)
	}
	return dst
}
