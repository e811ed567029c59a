package engine

// This file is the columnar half of the execution engine: a
// struct-of-arrays batch representation (ColBatch / ColVec) and the
// optional capability that moves it (ColBatchIterator). The
// representation mirrors what modern vectorized engines use: one typed
// vector per column, a null marker array, and a selection vector so
// filters narrow batches without moving any data. The storage layer's
// segments are already columnar, so a columnar scan hands its vectors
// upward with no transposition at all, and the filters and projections
// directly above it work on those vectors; the topmost of them
// materializes tuples once, in its NextBatch, for the row operator
// above — except under the probe side of a hash join, which takes the
// column batches and materializes the rows that join.

// ColVec is one column of a ColBatch. It has two layouts:
//
//   - typed: Kind names the payload vector (Ints for int and bool,
//     Floats, Strs), and Nulls — when non-nil — marks NULL cells;
//   - generic: Vals holds tagged Values cell by cell (used for mixed
//     or unknown columns; Vals non-nil selects this layout).
type ColVec struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
	Vals   []Value
}

// IntVec builds a typed int column (nulls may be nil).
func IntVec(xs []int64, nulls []bool) ColVec { return ColVec{Kind: KindInt, Ints: xs, Nulls: nulls} }

// BoolVec builds a typed bool column stored as 0/1 ints.
func BoolVec(xs []int64, nulls []bool) ColVec { return ColVec{Kind: KindBool, Ints: xs, Nulls: nulls} }

// FloatVec builds a typed float column.
func FloatVec(xs []float64, nulls []bool) ColVec {
	return ColVec{Kind: KindFloat, Floats: xs, Nulls: nulls}
}

// StrVec builds a typed string column.
func StrVec(xs []string, nulls []bool) ColVec {
	return ColVec{Kind: KindString, Strs: xs, Nulls: nulls}
}

// GenericVec builds a generic tagged-value column.
func GenericVec(vals []Value) ColVec { return ColVec{Kind: KindNull, Vals: vals} }

// Len returns the physical cell count.
func (v *ColVec) Len() int {
	if v.Vals != nil {
		return len(v.Vals)
	}
	switch v.Kind {
	case KindInt, KindBool:
		return len(v.Ints)
	case KindFloat:
		return len(v.Floats)
	case KindString:
		return len(v.Strs)
	}
	return len(v.Nulls)
}

// IsNull reports whether cell i is NULL.
func (v *ColVec) IsNull(i int) bool {
	if v.Vals != nil {
		return v.Vals[i].IsNull()
	}
	return v.Nulls != nil && v.Nulls[i]
}

// Value materializes cell i as a tagged scalar.
func (v *ColVec) Value(i int) Value {
	if v.Vals != nil {
		return v.Vals[i]
	}
	if v.Nulls != nil && v.Nulls[i] {
		return Null()
	}
	switch v.Kind {
	case KindInt:
		return Int(v.Ints[i])
	case KindBool:
		return Bool(v.Ints[i] != 0)
	case KindFloat:
		return Float(v.Floats[i])
	case KindString:
		return Str(v.Strs[i])
	}
	return Null()
}

// ColBatch is a struct-of-arrays batch: N physical rows stored column
// by column, plus an optional selection vector. When Sel is non-nil
// only the listed physical row indices are live (in Sel order); a nil
// Sel means all N rows. Filters narrow batches by shrinking Sel, never
// by moving column data.
type ColBatch struct {
	Sch  Schema
	Cols []ColVec
	N    int
	Sel  []int32
}

// Rows returns the live (selected) row count.
func (b *ColBatch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowID maps a live row ordinal to its physical row index.
func (b *ColBatch) RowID(k int) int {
	if b.Sel != nil {
		return int(b.Sel[k])
	}
	return k
}

// Materialize converts the live rows to tuples. The returned []Tuple
// reuses rowsBuf's backing array, but the tuple cells are freshly
// allocated (one arena per call), so the tuples themselves remain
// valid indefinitely — matching the Iterator.NextBatch contract, under
// which consumers may retain tuples but not the batch slice.
func (b *ColBatch) Materialize(rowsBuf []Tuple) []Tuple {
	n := b.Rows()
	nc := len(b.Cols)
	cells := make([]Value, n*nc)
	rows := rowsBuf[:0]
	for k := 0; k < n; k++ {
		i := b.RowID(k)
		t := cells[k*nc : (k+1)*nc : (k+1)*nc]
		for c := range b.Cols {
			t[c] = b.Cols[c].Value(i)
		}
		rows = append(rows, t)
	}
	return rows
}

// ColBatchIterator is the optional columnar capability of an Iterator:
// a natively columnar source, and the filters, projections and trace
// wrappers stacked directly on one, can hand their rows upward as
// column batches instead of tuples. A parent finds it with
// NativeColumnar at Open and then pulls either NextColBatch or
// NextBatch for the whole stream, never both.
type ColBatchIterator interface {
	Iterator
	// NextColBatch returns the next non-empty column batch, or ok=false
	// at end of stream. The batch (its Sel and Cols headers) is borrowed
	// until the next call; column payloads are immutable. It may only be
	// called on an opened iterator whose ColumnarNative reports true.
	NextColBatch() (*ColBatch, bool, error)
	// ColumnarNative reports whether the operator's input chain is
	// columnar all the way down to a columnar source.
	ColumnarNative() bool
}

// NativeColumnar returns the columnar capability of it, or nil and
// false when it (or something beneath it) produces rows.
func NativeColumnar(it Iterator) (ColBatchIterator, bool) {
	c, ok := it.(ColBatchIterator)
	if !ok || !c.ColumnarNative() {
		return nil, false
	}
	return c, true
}
