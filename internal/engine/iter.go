package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// DefaultBatchSize is the most rows an operator that makes its batches
// (a hash join's output, the windows of an in-memory column batch) puts
// in one; 1024 rows of a handful of vectors fit comfortably in L2.
const DefaultBatchSize = 1024

// Iterator is the physical operator interface: a pull pipeline that
// moves column batches. Open must be called before Next.
// Implementations are single-use.
type Iterator interface {
	Open() error
	// Next returns the next non-empty column batch, or ok=false at end
	// of stream. The batch — its header, Cols and Sel — is borrowed until
	// the next call: the producer may reuse them. The column payloads are
	// immutable, so a consumer may keep them (a hash join's build table
	// does).
	Next() (*ColBatch, bool, error)
	Close() error
	Schema() Schema
}

// ErrDeadline is what DrainLimited returns once its deadline has
// passed.
var ErrDeadline = errors.New("engine: query deadline exceeded")

// Drain runs an iterator to completion and makes its result into rows:
// the sink, where tuples are made.
func Drain(it Iterator) (*Relation, error) {
	out, _, err := DrainLimited(it, 0, time.Time{})
	return out, err
}

// DrainLimited is Drain under a row cap (0 = none) and a deadline (zero
// = none), the one loop that makes tuples. It checks the deadline
// before every pull, so a runaway query stops materializing instead of
// exhausting memory. It returns the rows cut at the cap and whether a
// row lay past it; only when a batch ends exactly on the cap does it
// pull once more to learn that, and that pull's error is the query's.
func DrainLimited(it Iterator, maxRows int, deadline time.Time) (*Relation, bool, error) {
	if err := it.Open(); err != nil {
		return nil, false, err
	}
	defer it.Close()
	out := NewRelation(it.Schema())
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, false, ErrDeadline
		}
		cb, ok, err := it.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return out, false, nil
		}
		out.Rows = cb.Materialize(out.Rows)
		if maxRows > 0 && len(out.Rows) >= maxRows {
			over := len(out.Rows) > maxRows
			out.Rows = out.Rows[:maxRows]
			if !over {
				if _, over, err = it.Next(); err != nil {
					return nil, false, err
				}
			}
			return out, over, nil
		}
	}
}

// NewScan builds a scan over r: Open lays its rows out as one column
// batch (relBatch), which is served as a ValuesPlan's batch is.
func NewScan(r *Relation) Iterator {
	return &colScanIter{src: &ColBatch{Sch: r.Sch}, rel: r, sorted: -1}
}

// Positions locates the rows of each tuple id in a column batch whose
// rows ascend by tuple id: tid t's rows are [t−Base, t−Base+1) when Off
// is nil — every tid from Base to Base+Len−1 has exactly one row — and
// [Off[t−Base], Off[t−Base+1]) otherwise, empty for a tid without rows.
type Positions struct {
	Base int64
	Len  int
	Off  []int32
}

// PositionsOf records where each of the ascending tids lies; nil when
// they do not ascend, or span more than four times their count (and a
// batch), where the offsets would outweigh the rows.
func PositionsOf(tids []int64) *Positions {
	n := len(tids)
	if n == 0 {
		return &Positions{}
	}
	span := uint64(tids[n-1]) - uint64(tids[0])
	if n > math.MaxInt32/4 || span >= uint64(4*n+DefaultBatchSize) || !slices.IsSorted(tids) {
		return nil
	}
	p := &Positions{Base: tids[0], Len: int(span) + 1, Off: make([]int32, span+2)}
	for _, t := range tids {
		p.Off[t-p.Base+1]++
	}
	dense := p.Len == n
	for i := 1; i < len(p.Off); i++ {
		dense = dense && p.Off[i] == 1
		p.Off[i] += p.Off[i-1]
	}
	if dense {
		p.Off = nil
	}
	return p
}

// RowLookup is an optional Iterator method, of an input that finds its
// rows by their int key in column col without scanning: the in-memory
// scan with Positions on its tuple-id column, and a filter, projection,
// rename or trace wrapper over one. Lookup, asked after Open, returns
// nil when the input cannot. Otherwise the function it returns gives
// the rows whose cell in col is one of keys[sel[0]], keys[sel[1]], … —
// ascending, a key repeated asked once — in key order, as a selection
// over the input's vectors, the same ones on every call, and honours
// the keys handed down (KeyNarrower) as Next would; nil when there is
// none. The batch is borrowed until the next call, whose caller may
// narrow its selection in place; Next is not called.
type RowLookup interface {
	Lookup(col int) func(keys []int64, sel []int32) *ColBatch
}

// lookupOf is in's lookup on its column col, nil when it has none, with
// then, when not nil, applied to the rows it finds.
func lookupOf(in Iterator, col int, then func(*ColBatch) *ColBatch) func([]int64, []int32) *ColBatch {
	l, ok := in.(RowLookup)
	if !ok {
		return nil
	}
	find := l.Lookup(col)
	if find == nil || then == nil {
		return find
	}
	return func(keys []int64, sel []int32) *ColBatch {
		if cb := find(keys, sel); cb != nil {
			return then(cb)
		}
		return nil
	}
}

// colScanIter scans a column batch held in memory (a ValuesPlan's
// Batch, or a relation laid out at Open), handing out windows of
// DefaultBatchSize rows that share its vectors — of the rows [pos, end),
// which keys on its sorted column narrow — each behind a selection of
// the rows no key list drops. With positions on its sorted column it
// finds the same rows by tuple id (RowLookup).
type colScanIter struct {
	src      *ColBatch // before a relation's Open, its schema alone
	rel      *Relation // when set, laid out into src at Open
	sorted   int       // the ascending int column, -1 none
	at       *Positions
	pos, end int
	keys     []ColKeys // the keys handed down (NarrowKeys)
	cols     []ColVec  // reused window headers
	sel      []int32   // reused selection
	cb       ColBatch

	skipped int64 // OperatorStats: rows the keys left out
}

func (s *colScanIter) Open() error {
	if s.rel != nil {
		s.src = relBatch(s.rel)
	}
	s.pos, s.end, s.keys, s.skipped = 0, s.src.N, s.keys[:0], 0
	return nil
}
func (s *colScanIter) Close() error   { return nil }
func (s *colScanIter) Schema() Schema { return s.src.Sch }

// NarrowKeys (KeyNarrower) narrows the rows not yet served to those
// whose sorted column lies in the keys' range, and has Next drop the
// rows whose typed int column col holds no key of a list.
func (s *colScanIter) NarrowKeys(col int, keys Keys) {
	s.keys = append(s.keys, ColKeys{Col: col, Keys: keys})
	if col != s.sorted {
		return
	}
	xs, n := s.src.Cols[col].Ints, s.end-s.pos
	s.pos = max(s.pos, sort.Search(s.end, func(i int) bool { return xs[i] >= keys.Lo }))
	s.end = max(s.pos, min(s.end, sort.Search(s.end, func(i int) bool { return xs[i] > keys.Hi })))
	s.skipped += int64(n - (s.end - s.pos))
}

// Lookup (RowLookup) answers on the sorted column, given positions.
func (s *colScanIter) Lookup(col int) func([]int64, []int32) *ColBatch {
	if s.at == nil || col != s.sorted || s.src.Cols[col].Vals != nil || s.src.Cols[col].Kind != KindInt {
		return nil
	}
	return s.lookup
}

// lookup finds the keys' rows by their positions, within the window
// [pos, end) and without the rows a key list drops.
func (s *colScanIter) lookup(keys []int64, of []int32) *ColBatch {
	sel, n := s.sel[:0], 0
	for pass := 0; pass < 2; pass++ { // count, then find
		sel = slices.Grow(sel, n)
		for k, i := range of {
			if k == 0 || keys[i] != keys[of[k-1]] {
				lo, hi := s.at.rows(keys[i])
				for r := max(lo, s.pos); r < min(hi, s.end); r++ {
					if pass == 0 {
						n++
					} else {
						sel = append(sel, int32(r))
					}
				}
			}
		}
	}
	s.sel = sel
	sel, dropped := SelectKeyed(s.keys, s.src.Cols, s.src.N, sel, &s.sel)
	if s.skipped += int64(dropped); len(sel) == 0 {
		return nil
	}
	s.cb = ColBatch{Sch: s.src.Sch, Cols: s.src.Cols, N: s.src.N, Sel: sel}
	return &s.cb
}

// rows returns the rows [lo, hi) of tid t.
func (p *Positions) rows(t int64) (int, int) {
	switch i := uint64(t - p.Base); {
	case i >= uint64(p.Len):
		return 0, 0
	case p.Off == nil:
		return int(i), int(i) + 1
	default:
		return int(p.Off[i]), int(p.Off[i+1])
	}
}

func (s *colScanIter) Next() (*ColBatch, bool, error) {
	for s.pos < s.end {
		lo, hi := s.pos, min(s.pos+DefaultBatchSize, s.end)
		s.pos = hi
		s.cols = s.cols[:0]
		for c := range s.src.Cols {
			s.cols = append(s.cols, s.src.Cols[c].Slice(lo, hi))
		}
		sel, dropped := SelectKeyed(s.keys, s.cols, hi-lo, nil, &s.sel)
		if s.skipped += int64(dropped); sel != nil && len(sel) == 0 {
			continue
		}
		s.cb = ColBatch{Sch: s.src.Sch, Cols: s.cols, N: hi - lo, Sel: sel}
		return &s.cb, true, nil
	}
	return nil, false, nil
}

// OperatorStats reports, when keys were handed down, the rows they left
// out.
func (s *colScanIter) OperatorStats(emit func(key string, v int64)) {
	if len(s.keys) > 0 {
		emit("rows_skipped_by_join", s.skipped)
	}
}

// FilterIter applies a predicate, evaluated vectorized over selection
// vectors: typed comparisons run as tight loops over the column
// payloads and only the selection vector shrinks — no tuple is built
// and no column data moves.
type FilterIter struct {
	In   Iterator
	Pred Expr // unbound

	vp  *vecPred // the compiled predicate
	sel []int32  // reused selection buffer
	cb  ColBatch // reused output batch header
}

// NewFilter builds a filter; pred is bound at Open time.
func NewFilter(in Iterator, pred Expr) *FilterIter {
	return &FilterIter{In: in, Pred: pred}
}

func (f *FilterIter) Open() error {
	if err := f.In.Open(); err != nil {
		return err
	}
	b, err := f.Pred.Bind(f.In.Schema())
	if err != nil {
		return err
	}
	f.vp = compileVecPred(b, f.In.Schema())
	return nil
}

// Next narrows input batches through the compiled predicate.
func (f *FilterIter) Next() (*ColBatch, bool, error) {
	for {
		in, ok, err := f.In.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.sel = f.vp.filter(in, f.sel)
		if len(f.sel) == 0 {
			continue
		}
		f.cb = ColBatch{Sch: in.Sch, Cols: in.Cols, N: in.N, Sel: f.sel}
		return &f.cb, true, nil
	}
}

func (f *FilterIter) Close() error   { return f.In.Close() }
func (f *FilterIter) Schema() Schema { return f.In.Schema() }

// NarrowKeys (KeyNarrower) forwards keys to the input, whose columns the
// filter passes through.
func (f *FilterIter) NarrowKeys(col int, keys Keys) { narrowInput(f.In, col, keys) }

// Lookup (RowLookup) narrows the rows the input finds by the predicate,
// in place.
func (f *FilterIter) Lookup(col int) func([]int64, []int32) *ColBatch {
	return lookupOf(f.In, col, func(in *ColBatch) *ColBatch {
		if sel := f.vp.narrow(in, in.Sel); len(sel) > 0 {
			f.cb = ColBatch{Sch: in.Sch, Cols: in.Cols, N: in.N, Sel: sel}
			return &f.cb
		}
		return nil
	})
}

// ProjectIter projects to named columns (and may rename via "src AS dst"
// entries handled by the logical layer; physically it is index-based)
// by re-slicing the input batch's column headers: projection over
// columns is free.
type ProjectIter struct {
	In    Iterator
	Names []string

	idx  []int
	sch  Schema
	cols []ColVec // reused projected column headers
	cb   ColBatch // reused output batch header
}

// NewProject builds a projection onto the named columns.
func NewProject(in Iterator, names []string) *ProjectIter {
	return &ProjectIter{In: in, Names: names}
}

func (p *ProjectIter) Open() error {
	if err := p.In.Open(); err != nil {
		return err
	}
	insch := p.In.Schema()
	p.idx = make([]int, len(p.Names))
	cols := make([]Column, len(p.Names))
	for i, n := range p.Names {
		j := insch.IndexOf(n)
		if j < 0 {
			return fmt.Errorf("engine: project: column %q not in %v", n, insch.Names())
		}
		p.idx[i] = j
		cols[i] = Column{Name: n, Kind: insch.Cols[j].Kind}
	}
	p.sch = Schema{Cols: cols}
	return nil
}

func (p *ProjectIter) Next() (*ColBatch, bool, error) {
	in, ok, err := p.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return p.project(in), true, nil
}

func (p *ProjectIter) project(in *ColBatch) *ColBatch {
	cols := p.cols[:0]
	for _, j := range p.idx {
		cols = append(cols, in.Cols[j])
	}
	p.cols = cols
	p.cb = ColBatch{Sch: p.sch, Cols: cols, N: in.N, Sel: in.Sel}
	return &p.cb
}

// Lookup (RowLookup) projects the rows the input finds by the column
// the projection picks for col.
func (p *ProjectIter) Lookup(col int) func([]int64, []int32) *ColBatch {
	if col >= len(p.idx) {
		return nil
	}
	return lookupOf(p.In, p.idx[col], p.project)
}

func (p *ProjectIter) Close() error { return p.In.Close() }

// NarrowKeys (KeyNarrower) forwards keys to the input column the
// projection picks for col.
func (p *ProjectIter) NarrowKeys(col int, keys Keys) {
	if col < len(p.idx) {
		narrowInput(p.In, p.idx[col], keys)
	}
}

func (p *ProjectIter) Schema() Schema {
	if p.sch.Len() == 0 && len(p.Names) > 0 {
		// Schema before Open: best effort from input schema.
		insch := p.In.Schema()
		cols := make([]Column, len(p.Names))
		for i, n := range p.Names {
			j := insch.IndexOf(n)
			k := KindNull
			if j >= 0 {
				k = insch.Cols[j].Kind
			}
			cols[i] = Column{Name: n, Kind: k}
		}
		return Schema{Cols: cols}
	}
	return p.sch
}

// RenameIter relabels the columns of its input (width must match).
type RenameIter struct {
	In    Iterator
	Names []string

	sch Schema
	cb  ColBatch // reused output batch header
}

// NewRename relabels the input's columns positionally.
func NewRename(in Iterator, names []string) *RenameIter {
	return &RenameIter{In: in, Names: names}
}

func (r *RenameIter) Open() error {
	if len(r.Names) != r.In.Schema().Len() {
		return fmt.Errorf("engine: rename: %d names for %d columns",
			len(r.Names), r.In.Schema().Len())
	}
	if err := r.In.Open(); err != nil {
		return err
	}
	r.sch = r.Schema()
	return nil
}

// Next hands over the input's batch under the new labels.
func (r *RenameIter) Next() (*ColBatch, bool, error) {
	in, ok, err := r.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return r.relabel(in), true, nil
}

func (r *RenameIter) relabel(in *ColBatch) *ColBatch {
	r.cb = *in
	r.cb.Sch = r.sch
	return &r.cb
}

// Lookup (RowLookup) relabels the rows the input finds.
func (r *RenameIter) Lookup(col int) func([]int64, []int32) *ColBatch {
	return lookupOf(r.In, col, r.relabel)
}

func (r *RenameIter) Close() error { return r.In.Close() }

// NarrowKeys (KeyNarrower) forwards keys to the input, whose columns the
// rename relabels in place.
func (r *RenameIter) NarrowKeys(col int, keys Keys) { narrowInput(r.In, col, keys) }

func (r *RenameIter) Schema() Schema {
	in := r.In.Schema()
	cols := make([]Column, len(r.Names))
	for i, n := range r.Names {
		k := KindNull
		if i < len(in.Cols) {
			k = in.Cols[i].Kind
		}
		cols[i] = Column{Name: n, Kind: k}
	}
	return Schema{Cols: cols}
}

// DistinctIter removes duplicate rows via hashing. It keys each row from
// its vectors and hands over the first-seen rows of each input batch as
// a selection over it, so it makes no tuple.
type DistinctIter struct {
	In   Iterator
	seen map[string]struct{}
	buf  []byte   // reused key-encoding buffer
	sel  []int32  // reused selection buffer
	cb   ColBatch // reused output batch header
}

// NewDistinct builds a duplicate-eliminating operator.
func NewDistinct(in Iterator) *DistinctIter { return &DistinctIter{In: in} }

func (d *DistinctIter) Open() error {
	d.seen = make(map[string]struct{})
	return d.In.Open()
}

func (d *DistinctIter) Next() (*ColBatch, bool, error) {
	for {
		in, ok, err := d.In.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		sel := d.sel[:0]
		for k, n := 0, in.Rows(); k < n; k++ {
			i := in.RowID(k)
			// The map[string(bytes)] lookup does not allocate; only fresh
			// keys pay a string conversion on insert.
			d.buf = appendRowKey(d.buf[:0], in.Cols, i)
			if _, dup := d.seen[string(d.buf)]; dup {
				continue
			}
			d.seen[string(d.buf)] = struct{}{}
			sel = append(sel, int32(i))
		}
		d.sel = sel
		if len(sel) > 0 {
			d.cb = ColBatch{Sch: in.Sch, Cols: in.Cols, N: in.N, Sel: sel}
			return &d.cb, true, nil
		}
	}
}

func (d *DistinctIter) Close() error   { d.seen, d.sel = nil, nil; return d.In.Close() }
func (d *DistinctIter) Schema() Schema { return d.In.Schema() }
