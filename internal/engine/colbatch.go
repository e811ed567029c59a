package engine

// This file is the columnar half of the execution engine: a
// struct-of-arrays batch representation (ColBatch / ColVec) and the
// optional capability that moves it (ColBatchIterator). The
// representation mirrors what modern vectorized engines use: one typed
// vector per column, a null marker array, and a selection vector so
// filters narrow batches without moving any data. The storage layer's
// segments and the in-memory partition images are already columnar, so
// their scans hand vectors upward with no transposition at all; the
// filters and projections above them, and the hash joins, take and
// give column batches (a hash join gathers its output column by
// column). Tuples are made once, by the first row operator above —
// Drain, a Distinct, a sort, an aggregation, a semi join — through
// ColBatch.Materialize in its input's NextBatch.

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

// Window returns cells [lo, hi) of v, sharing its payload.
func (v *ColVec) Window(lo, hi int) ColVec {
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

// transpose lays a batch of rows of schema sch out as a column batch,
// each column by BuildColVec. It is how an operator that takes column
// batches reads an input that produces rows.
func transpose(rows []Tuple, sch Schema) ColBatch {
	cols := make([]ColVec, sch.Len())
	for c := range cols {
		cols[c] = BuildColVec(len(rows), func(i int) Value { return rows[i][c] })
	}
	return ColBatch{Sch: sch, Cols: cols, N: len(rows)}
}

// colReader pulls an opened iterator as column batches: a columnar
// input's own, a row input's transposed once. rows is the row batch the
// current column batch was transposed from (borrowed like it), nil for
// a columnar input.
type colReader struct {
	it   Iterator
	col  ColBatchIterator
	rows []Tuple
	cb   ColBatch
}

// newColReader reads the opened iterator it.
func newColReader(it Iterator) colReader {
	col, _ := NativeColumnar(it)
	return colReader{it: it, col: col}
}

// next returns the next non-empty column batch, ok=false at the end.
func (r *colReader) next() (*ColBatch, bool, error) {
	if r.col != nil {
		return r.col.NextColBatch()
	}
	rows, ok, err := r.it.NextBatch()
	if err != nil || !ok {
		r.rows = nil
		return nil, false, err
	}
	r.rows = rows
	r.cb = transpose(rows, r.it.Schema())
	return &r.cb, true, nil
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
// which consumers may retain tuples but not the batch slice. It is the
// NextBatch of every operator that also moves column batches, and each
// of them reports the rows it made as rows_materialized.
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

// materializer is the NextBatch half of an operator that moves column
// batches: it makes a batch's live rows into tuples and counts them.
type materializer struct {
	rows []Tuple // reused batch headers
	made int64
}

// next turns what NextColBatch returned into what NextBatch returns.
func (m *materializer) next(cb *ColBatch, ok bool, err error) ([]Tuple, bool, error) {
	if !ok {
		return nil, false, err
	}
	m.rows = cb.Materialize(m.rows)
	m.made += int64(len(m.rows))
	return m.rows, true, nil
}

// stats reports rows_materialized, when any row was made.
func (m *materializer) stats(emit func(key string, v int64)) {
	if m.made > 0 {
		emit("rows_materialized", m.made)
	}
}

// ColBatchIterator is the optional columnar capability of an Iterator:
// a natively columnar source (a stored segment scan, an in-memory
// partition image), a hash join, and the filters, projections and trace
// wrappers stacked on those, can hand their rows upward as column
// batches instead of tuples. A parent finds it with NativeColumnar at
// Open and then pulls either NextColBatch or NextBatch for the whole
// stream, never both.
type ColBatchIterator interface {
	Iterator
	// NextColBatch returns the next non-empty column batch, or ok=false
	// at end of stream. The batch (its Sel and Cols headers) is borrowed
	// until the next call; column payloads are immutable, so a consumer
	// may keep them (a hash join's build table does). It may only be
	// called on an opened iterator whose ColumnarNative reports true.
	NextColBatch() (*ColBatch, bool, error)
	// ColumnarNative reports whether the operator produces column
	// batches: a filter or projection only over an input that does.
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
