package engine

// This file is the batch representation every operator hands its parent
// (Iterator.Next): a struct-of-arrays batch (ColBatch / ColVec). It
// mirrors what modern vectorized engines use: one typed vector per
// column, a null marker array, and a selection vector so filters narrow
// batches without moving any data. The storage layer's segments and the
// in-memory partition images are already columnar, so their scans hand
// vectors upward with no transposition at all; the filters and
// projections above them, the joins and the duplicate elimination take
// and give column batches (a hash join gathers its output column by
// column). Tuples are made at the one sink, DrainLimited, through
// ColBatch.Materialize; below it no operator makes one.

// ColVec is one column of a ColBatch. It has two layouts:
//
//   - typed: Kind names the payload vector (Ints for int and bool,
//     Floats, Strs), and Nulls — when non-nil — marks NULL cells; a
//     column of NULLs only is Kind KindNull with Nulls alone;
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

// intCell returns cell i when it is a non-NULL int of a typed vector.
func intCell(v *ColVec, i int) (int64, bool) {
	if v.Vals != nil || v.Kind != KindInt || (v.Nulls != nil && v.Nulls[i]) {
		return 0, false
	}
	return v.Ints[i], true
}

// Slice returns cells [lo, hi) of v, sharing its payload.
func (v *ColVec) Slice(lo, hi int) ColVec {
	w := ColVec{Kind: v.Kind}
	if v.Nulls != nil {
		w.Nulls = v.Nulls[lo:hi:hi]
	}
	switch {
	case v.Vals != nil:
		w.Vals = v.Vals[lo:hi:hi]
	case v.Kind == KindInt || v.Kind == KindBool:
		w.Ints = v.Ints[lo:hi:hi]
	case v.Kind == KindFloat:
		w.Floats = v.Floats[lo:hi:hi]
	case v.Kind == KindString:
		w.Strs = v.Strs[lo:hi:hi]
	}
	return w
}

// BuildColVec lays the n cells cell(0), …, cell(n-1) out as one column:
// typed when every non-NULL cell has the same kind, NULLs only when none
// has a kind, and generic when the kinds disagree (an int beside a
// float, say, which a typed vector could not give back as written).
func BuildColVec(n int, cell func(i int) Value) ColVec {
	kind, nulls := KindNull, false
	for i := 0; i < n; i++ {
		switch k := cell(i).K; {
		case k == KindNull:
			nulls = true
		case kind == KindNull:
			kind = k
		case k != kind:
			vals := make([]Value, n)
			for i := range vals {
				vals[i] = cell(i)
			}
			return GenericVec(vals)
		}
	}
	v := ColVec{Kind: kind}
	if nulls || kind == KindNull {
		v.Nulls = make([]bool, n)
	}
	switch kind {
	case KindInt, KindBool:
		v.Ints = make([]int64, n)
	case KindFloat:
		v.Floats = make([]float64, n)
	case KindString:
		v.Strs = make([]string, n)
	}
	for i := 0; i < n; i++ {
		c := cell(i)
		switch {
		case c.K == KindNull:
			v.Nulls[i] = true
		case kind == KindFloat:
			v.Floats[i] = c.F
		case kind == KindString:
			v.Strs[i] = c.S
		default:
			v.Ints[i] = c.I
		}
	}
	return v
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

// Materialize appends the live rows to dst as tuples, their cells
// freshly allocated (one arena per call), so the tuples stay valid
// indefinitely. It is how a sink makes its rows.
func (b *ColBatch) Materialize(dst []Tuple) []Tuple {
	n := b.Rows()
	nc := len(b.Cols)
	cells := make([]Value, n*nc)
	for k := 0; k < n; k++ {
		i := b.RowID(k)
		t := cells[k*nc : (k+1)*nc : (k+1)*nc]
		for c := range b.Cols {
			t[c] = b.Cols[c].Value(i)
		}
		dst = append(dst, t)
	}
	return dst
}
