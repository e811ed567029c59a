package engine

import (
	"fmt"
	"sort"
)

// DefaultBatchSize is the number of tuples moved per NextBatch call. The
// value trades per-call overhead against cache residency of a batch;
// 1024 rows of a handful of Values fit comfortably in L2.
const DefaultBatchSize = 1024

// Iterator is the physical operator interface: a pull pipeline that
// moves rows a batch at a time. Open must be called before NextBatch.
// Implementations are single-use.
type Iterator interface {
	Open() error
	// NextBatch returns the next batch of rows, or ok=false at end of
	// stream. A batch returned with ok=true is non-empty. The slice is
	// borrowed read-only until the next NextBatch call: the producer may
	// reuse its backing array, and it may be a window of storage the
	// producer does not own (ScanIter hands out Relation.Rows itself), so
	// a consumer never writes to it and copies the row headers it wants
	// to keep. The tuples are immutable and may be retained indefinitely.
	NextBatch() ([]Tuple, bool, error)
	Close() error
	Schema() Schema
}

// Drain runs an iterator to completion and materializes the result.
func Drain(it Iterator) (*Relation, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	rows, err := drainAll(it)
	if err != nil {
		return nil, err
	}
	out := NewRelation(it.Schema())
	out.Rows = rows
	return out, nil
}

// drainAll collects the remaining rows of an opened iterator, copying
// the row headers out of each borrowed batch.
func drainAll(it Iterator) ([]Tuple, error) {
	var rows []Tuple
	for {
		batch, ok, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, batch...)
	}
}

// Window serves a materialized row slice a batch at a time: it returns
// the next at most DefaultBatchSize rows from *pos and advances *pos,
// or ok=false once rows is exhausted. It is the NextBatch of every
// operator that holds its whole output (scans, sort, aggregation, the
// store's index lookups).
func Window(rows []Tuple, pos *int) ([]Tuple, bool, error) {
	if *pos >= len(rows) {
		return nil, false, nil
	}
	end := *pos + DefaultBatchSize
	if end > len(rows) {
		end = len(rows)
	}
	batch := rows[*pos:end]
	*pos = end
	return batch, true, nil
}

// ScanIter scans a materialized relation, handing out windows of
// Rel.Rows without copying row headers.
type ScanIter struct {
	Rel *Relation
	pos int
}

// NewScan builds a scan over r.
func NewScan(r *Relation) *ScanIter { return &ScanIter{Rel: r} }

func (s *ScanIter) Open() error                       { s.pos = 0; return nil }
func (s *ScanIter) NextBatch() ([]Tuple, bool, error) { return Window(s.Rel.Rows, &s.pos) }
func (s *ScanIter) Close() error                      { return nil }
func (s *ScanIter) Schema() Schema                    { return s.Rel.Sch }

// colScanIter scans a column batch held in memory (a ValuesPlan's
// Batch), handing out windows of DefaultBatchSize rows that share its
// vectors.
type colScanIter struct {
	src  *ColBatch
	pos  int
	cols []ColVec // reused window headers
	cb   ColBatch
	mat  materializer
}

func (s *colScanIter) Open() error          { s.pos, s.mat.made = 0, 0; return nil }
func (s *colScanIter) Close() error         { s.mat.rows = nil; return nil }
func (s *colScanIter) Schema() Schema       { return s.src.Sch }
func (s *colScanIter) ColumnarNative() bool { return true }

func (s *colScanIter) NextColBatch() (*ColBatch, bool, error) {
	if s.pos >= s.src.N {
		return nil, false, nil
	}
	lo, hi := s.pos, min(s.pos+DefaultBatchSize, s.src.N)
	s.pos = hi
	s.cols = s.cols[:0]
	for c := range s.src.Cols {
		s.cols = append(s.cols, s.src.Cols[c].Window(lo, hi))
	}
	s.cb = ColBatch{Sch: s.src.Sch, Cols: s.cols, N: hi - lo}
	return &s.cb, true, nil
}

func (s *colScanIter) NextBatch() ([]Tuple, bool, error) { return s.mat.next(s.NextColBatch()) }

// OperatorStats reports the rows the scan made into tuples.
func (s *colScanIter) OperatorStats(emit func(key string, v int64)) { s.mat.stats(emit) }

// FilterIter applies a predicate. Above a natively columnar input it
// evaluates the predicate vectorized over selection vectors (see
// NextColBatch) and materializes only the survivors; otherwise it
// evaluates row by row over the input's batches.
type FilterIter struct {
	In   Iterator
	Pred Expr // unbound

	bound Expr
	out   []Tuple // reused output buffer

	colIn ColBatchIterator // the input's columnar path; nil when it has none
	vp    *vecPred         // compiled predicate for the columnar path
	sel   []int32          // reused selection buffer
	cb    ColBatch         // reused output batch header
	mat   materializer     // NextBatch over the columnar path
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
	f.bound = b
	f.vp = nil
	f.mat.made = 0
	if f.colIn, _ = NativeColumnar(f.In); f.colIn != nil {
		f.vp = compileVecPred(f.bound, f.In.Schema())
	}
	return nil
}

func (f *FilterIter) NextBatch() ([]Tuple, bool, error) {
	if f.colIn != nil {
		return f.mat.next(f.NextColBatch())
	}
	for {
		in, ok, err := f.In.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		out := f.out[:0]
		for _, row := range in {
			if f.bound.Eval(row).Truth() {
				out = append(out, row)
			}
		}
		f.out = out
		if len(out) > 0 {
			return out, true, nil
		}
	}
}

// NextColBatch narrows input batches through the compiled vectorized
// predicate: typed comparisons run as tight loops over the column
// payloads and only the selection vector shrinks — no tuple is built
// and no column data moves.
func (f *FilterIter) NextColBatch() (*ColBatch, bool, error) {
	for {
		in, ok, err := f.colIn.NextColBatch()
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

// ColumnarNative reports whether the filter's whole input chain is
// columnar.
func (f *FilterIter) ColumnarNative() bool {
	_, ok := NativeColumnar(f.In)
	return ok
}

func (f *FilterIter) Close() error   { return f.In.Close() }
func (f *FilterIter) Schema() Schema { return f.In.Schema() }

// NarrowKeyRange (KeyRangeNarrower) forwards a range to the input, whose
// columns the filter passes through.
func (f *FilterIter) NarrowKeyRange(col int, lo, hi int64) { narrowInput(f.In, col, lo, hi) }

// OperatorStats reports the rows the filter made into tuples.
func (f *FilterIter) OperatorStats(emit func(key string, v int64)) { f.mat.stats(emit) }

// ProjectIter projects to named columns (and may rename via "src AS dst"
// entries handled by the logical layer; physically it is index-based).
// Above a natively columnar input the projection re-slices column
// vectors (see NextColBatch).
type ProjectIter struct {
	In    Iterator
	Names []string

	idx []int
	sch Schema
	out []Tuple // reused output buffer

	colIn ColBatchIterator // the input's columnar path; nil when it has none
	cols  []ColVec         // reused projected column headers
	cb    ColBatch         // reused output batch header
	mat   materializer     // NextBatch over the columnar path
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
	p.colIn, _ = NativeColumnar(p.In)
	p.mat.made = 0
	return nil
}

// NextBatch rebuilds whole batches of narrowed rows.
func (p *ProjectIter) NextBatch() ([]Tuple, bool, error) {
	if p.colIn != nil {
		return p.mat.next(p.NextColBatch())
	}
	in, ok, err := p.In.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	out := p.out[:0]
	// One backing allocation for the whole batch's cells.
	w := len(p.idx)
	cells := make([]Value, len(in)*w)
	for r, row := range in {
		t := cells[r*w : (r+1)*w : (r+1)*w]
		for i, j := range p.idx {
			t[i] = row[j]
		}
		out = append(out, t)
	}
	p.out = out
	return out, true, nil
}

// NextColBatch re-slices the input batch's column vectors: projection
// over columns is free.
func (p *ProjectIter) NextColBatch() (*ColBatch, bool, error) {
	in, ok, err := p.colIn.NextColBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	cols := p.cols[:0]
	for _, j := range p.idx {
		cols = append(cols, in.Cols[j])
	}
	p.cols = cols
	p.cb = ColBatch{Sch: p.sch, Cols: cols, N: in.N, Sel: in.Sel}
	return &p.cb, true, nil
}

// ColumnarNative reports whether the projection's whole input chain is
// columnar.
func (p *ProjectIter) ColumnarNative() bool {
	_, ok := NativeColumnar(p.In)
	return ok
}

func (p *ProjectIter) Close() error { return p.In.Close() }

// NarrowKeyRange (KeyRangeNarrower) forwards a range to the input column
// the projection picks for col.
func (p *ProjectIter) NarrowKeyRange(col int, lo, hi int64) {
	if col < len(p.idx) {
		narrowInput(p.In, p.idx[col], lo, hi)
	}
}

// OperatorStats reports the rows the projection made into tuples.
func (p *ProjectIter) OperatorStats(emit func(key string, v int64)) { p.mat.stats(emit) }

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
	return r.In.Open()
}

func (r *RenameIter) NextBatch() ([]Tuple, bool, error) { return r.In.NextBatch() }
func (r *RenameIter) Close() error                      { return r.In.Close() }

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

// DistinctIter removes duplicate rows via hashing.
type DistinctIter struct {
	In   Iterator
	seen map[string]struct{}
	buf  []byte  // reused key-encoding buffer
	out  []Tuple // reused output buffer
}

// NewDistinct builds a duplicate-eliminating operator.
func NewDistinct(in Iterator) *DistinctIter { return &DistinctIter{In: in} }

func (d *DistinctIter) Open() error {
	d.seen = make(map[string]struct{})
	return d.In.Open()
}

func (d *DistinctIter) NextBatch() ([]Tuple, bool, error) {
	for {
		in, ok, err := d.In.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		out := d.out[:0]
		for _, row := range in {
			// The map[string(bytes)] lookup does not allocate; only fresh
			// keys pay a string conversion on insert.
			d.buf = AppendKey(d.buf[:0], row)
			if _, dup := d.seen[string(d.buf)]; dup {
				continue
			}
			d.seen[string(d.buf)] = struct{}{}
			out = append(out, row)
		}
		d.out = out
		if len(out) > 0 {
			return out, true, nil
		}
	}
}

func (d *DistinctIter) Close() error   { d.seen, d.out = nil, nil; return d.In.Close() }
func (d *DistinctIter) Schema() Schema { return d.In.Schema() }

// SortIter materializes and sorts its input by the named key columns
// (ascending, lexicographic).
type SortIter struct {
	In   Iterator
	Keys []string

	rows []Tuple
	pos  int
}

// NewSort builds an in-memory sort on the given key columns.
func NewSort(in Iterator, keys []string) *SortIter {
	return &SortIter{In: in, Keys: keys}
}

func (s *SortIter) Open() error {
	if err := s.In.Open(); err != nil {
		return err
	}
	sch := s.In.Schema()
	idx := make([]int, len(s.Keys))
	for i, k := range s.Keys {
		j := sch.IndexOf(k)
		if j < 0 {
			return fmt.Errorf("engine: sort: column %q not in %v", k, sch.Names())
		}
		idx[i] = j
	}
	var err error
	if s.rows, err = drainAll(s.In); err != nil {
		return err
	}
	sortByKeys(s.rows, idx)
	s.pos = 0
	return nil
}

func (s *SortIter) NextBatch() ([]Tuple, bool, error) { return Window(s.rows, &s.pos) }
func (s *SortIter) Close() error                      { s.rows = nil; return s.In.Close() }
func (s *SortIter) Schema() Schema                    { return s.In.Schema() }

// sortByKeys stably sorts rows ascending on the key columns idx.
func sortByKeys(rows []Tuple, idx []int) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, i := range idx {
			if c := Compare(rows[a][i], rows[b][i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// LimitIter passes through at most N rows.
type LimitIter struct {
	In Iterator
	N  int64

	seen int64
}

// NewLimit builds a limit operator.
func NewLimit(in Iterator, n int64) *LimitIter { return &LimitIter{In: in, N: n} }

func (l *LimitIter) Open() error { l.seen = 0; return l.In.Open() }

func (l *LimitIter) NextBatch() ([]Tuple, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	in, ok, err := l.In.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	if left := l.N - l.seen; int64(len(in)) > left {
		in = in[:left]
	}
	l.seen += int64(len(in))
	return in, true, nil
}

func (l *LimitIter) Close() error   { return l.In.Close() }
func (l *LimitIter) Schema() Schema { return l.In.Schema() }
