package engine

import (
	"errors"
	"fmt"
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

// RowLookup is an optional Iterator method, of an input that finds its
// rows by their int key in column col without scanning: the in-memory
// scan on its sorted column, the store's scan on its tuple ids, and a
// filter, projection, rename or trace wrapper over one. Lookup, asked
// after Open, returns nil when the input cannot. Otherwise the function
// it returns gives the rows whose cell in col is one of keys[sel[0]],
// keys[sel[1]], … — ascending, a key repeated asked once, and ascending
// across calls, whose last key the next may ask again — in key order,
// as a selection over vectors borrowed until the next call, and honours
// the keys handed down (KeyNarrower) as Next would; nil when there is
// none. The caller may narrow the selection in place; Next is not
// called.
type RowLookup interface {
	Lookup(col int) func(keys []int64, sel []int32) (*ColBatch, error)
}

// lookupOf is in's lookup on its column col, nil when it has none, with
// then, when not nil, applied to the rows it finds.
func lookupOf(in Iterator, col int, then func(*ColBatch) *ColBatch) func([]int64, []int32) (*ColBatch, error) {
	l, ok := in.(RowLookup)
	if !ok {
		return nil
	}
	find := l.Lookup(col)
	if find == nil || then == nil {
		return find
	}
	return func(keys []int64, sel []int32) (*ColBatch, error) {
		cb, err := find(keys, sel)
		if cb != nil {
			cb = then(cb)
		}
		return cb, err
	}
}

// Gallop returns the first i in [lo, hi) with xs[i] ≥ t, hi when there
// is none; xs ascends. Probing lo, lo+1, lo+3, lo+7, … and halving the
// last step, it finds a row near lo in few probes: a lookup's forward
// search over an ascending column.
func Gallop(xs []int64, lo, hi int, t int64) int {
	if lo >= hi || xs[lo] >= t {
		return lo
	}
	step := 1
	for lo+step < hi && xs[lo+step] < t {
		lo, step = lo+step, 2*step
	}
	for hi = min(lo+step, hi); hi-lo > 1; { // xs[lo] < t, the answer in (lo, hi]
		if mid := int(uint(lo+hi) >> 1); xs[mid] < t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// colScanIter scans a column batch held in memory (a ValuesPlan's
// Batch, or a relation laid out at Open), handing out windows of
// DefaultBatchSize rows that share its vectors — of the rows [pos, end),
// which keys on its sorted column narrow — each behind a selection of
// the rows no key list drops, or of the rows a list's value-order run
// finds (settle). It finds the same rows by their key in its sorted
// column (RowLookup).
type colScanIter struct {
	src      *ColBatch // before a relation's Open, its schema alone
	rel      *Relation // when set, laid out into src at Open
	sorted   int       // the ascending int column, -1 none
	runs     func(col int) []int32
	pos, end int
	keys     []ColKeys // the keys handed down (NarrowKeys)
	settled  bool      // rows is decided
	rows     []int32   // when not nil, the rows a run found, ascending, of which [pos, end) are left
	tids     []int64   // the sorted column's cells of rows, for lookups
	cols     []ColVec  // reused window headers
	sel      []int32   // reused selection
	cb       ColBatch

	skipped int64 // OperatorStats: rows the keys left out
}

func (s *colScanIter) Open() error {
	if s.rel != nil {
		s.src = relBatch(s.rel)
	}
	s.pos, s.end, s.keys, s.skipped, s.settled, s.rows, s.tids = 0, s.src.N, s.keys[:0], 0, false, nil, nil
	return nil
}
func (s *colScanIter) Close() error   { return nil }
func (s *colScanIter) Schema() Schema { return s.src.Sch }

// NarrowKeys (KeyNarrower) narrows the rows not yet served to those
// whose sorted column lies in the keys' range, and has Next drop the
// rows whose typed int column col holds no key of a list. Keys handed
// once the rows a run found are served are ignored.
func (s *colScanIter) NarrowKeys(col int, keys Keys) {
	s.keys = append(s.keys, ColKeys{Col: col, Keys: keys})
	if col != s.sorted || s.rows != nil {
		return
	}
	xs, n := s.src.Cols[col].Ints, s.end-s.pos
	s.pos = max(s.pos, sort.Search(s.end, func(i int) bool { return xs[i] >= keys.Lo }))
	s.end = max(s.pos, min(s.end, sort.Search(s.end, func(i int) bool { return xs[i] > keys.Hi })))
	s.skipped += int64(n - (s.end - s.pos))
}

// settle, at the first pull, looks the keys of the first list on a
// column with a run up in the run — keys × log n + the rows it finds —
// and makes the rows of [pos, end) it finds that no list drops the rows
// the scan serves, in row order. It returns how many, -1 when the scan
// reads its rows.
func (s *colScanIter) settle() int {
	for k := 0; !s.settled && s.runs != nil && k < len(s.keys); k++ {
		h := s.keys[k]
		if h.List == nil || h.Col == s.sorted || s.runs(h.Col) == nil {
			continue
		}
		run, xs := s.runs(h.Col), s.src.Cols[h.Col].Ints
		spans := func(of func(lo, hi int)) { // the span of each key in run
			for at, j := 0, 0; j < len(h.List); j++ {
				lo := at + sort.Search(len(run)-at, func(i int) bool { return xs[run[at+i]] >= h.List[j] })
				for at = lo; at < len(run) && xs[run[at]] == h.List[j]; at++ {
				}
				of(lo, at)
			}
		}
		n := 0
		spans(func(lo, hi int) { n += hi - lo })
		rows := make([]int32, 0, n)
		spans(func(lo, hi int) { rows = append(rows, run[lo:hi]...) })
		slices.Sort(rows)
		lo := sort.Search(n, func(i int) bool { return int(rows[i]) >= s.pos })
		rows = rows[lo:sort.Search(n, func(i int) bool { return int(rows[i]) >= s.end })]
		s.rows, _ = SelectKeyed(s.keys, s.src.Cols, s.src.N, rows, &rows)
		s.settled, s.skipped = true, s.skipped+int64(s.end-s.pos-len(s.rows))
		s.pos, s.end = 0, len(s.rows)
	}
	if s.settled = true; s.rows == nil {
		return -1
	}
	return len(s.rows)
}

// Lookup (RowLookup) answers on the sorted column, when it holds ints.
func (s *colScanIter) Lookup(col int) func([]int64, []int32) (*ColBatch, error) {
	if col != s.sorted || s.src.Cols[col].Vals != nil || s.src.Cols[col].Kind != KindInt {
		return nil
	}
	return s.lookup
}

// lookup finds each key's rows by galloping forward over the sorted
// column, within the window [pos, end) and without the rows a key list
// drops — or over the rows a run found. It leaves pos, where Next, not
// called, would serve from, at the last key's first row: the next call
// may ask that key again.
func (s *colScanIter) lookup(keys []int64, of []int32) (*ColBatch, error) {
	xs := s.src.Cols[s.sorted].Ints
	if s.settle(); s.rows != nil {
		if s.tids == nil {
			s.tids = make([]int64, len(s.rows))
			for i, r := range s.rows {
				s.tids[i] = xs[r]
			}
		}
		xs = s.tids
	}
	sel := slices.Grow(s.sel[:0], len(of))
	for k, at := 0, s.pos; k < len(of); k++ {
		if t := keys[of[k]]; k == 0 || t != keys[of[k-1]] {
			s.pos = Gallop(xs, at, s.end, t)
			for at = s.pos; at < s.end && xs[at] == t; at++ {
				sel = append(sel, int32(at))
			}
		}
	}
	s.sel = sel
	if s.rows != nil {
		for i, j := range sel {
			sel[i] = s.rows[j]
		}
	} else {
		var dropped int
		sel, dropped = SelectKeyed(s.keys, s.src.Cols, s.src.N, sel, &s.sel)
		s.skipped += int64(dropped)
	}
	if len(sel) == 0 {
		return nil, nil
	}
	s.cb = ColBatch{Sch: s.src.Sch, Cols: s.src.Cols, N: s.src.N, Sel: sel}
	return &s.cb, nil
}

func (s *colScanIter) Next() (*ColBatch, bool, error) {
	if s.settle(); s.rows != nil {
		if s.pos == s.end {
			return nil, false, nil
		}
		found := s.rows[s.pos:min(s.pos+DefaultBatchSize, s.end)]
		s.pos += len(found)
		lo, hi := int(found[0]), int(found[len(found)-1])+1
		s.sel = slices.Grow(s.sel[:0], len(found))
		for _, r := range found {
			s.sel = append(s.sel, r-int32(lo))
		}
		return s.window(lo, hi, s.sel), true, nil
	}
	for s.pos < s.end {
		lo, hi := s.pos, min(s.pos+DefaultBatchSize, s.end)
		s.pos = hi
		cb := s.window(lo, hi, nil)
		sel, dropped := SelectKeyed(s.keys, s.cols, hi-lo, nil, &s.sel)
		if s.skipped += int64(dropped); sel != nil && len(sel) == 0 {
			continue
		}
		cb.Sel = sel
		return cb, true, nil
	}
	return nil, false, nil
}

// window is the batch of rows [lo, hi), sharing the source's vectors,
// behind sel.
func (s *colScanIter) window(lo, hi int, sel []int32) *ColBatch {
	s.cols = s.cols[:0]
	for c := range s.src.Cols {
		s.cols = append(s.cols, s.src.Cols[c].Slice(lo, hi))
	}
	s.cb = ColBatch{Sch: s.src.Sch, Cols: s.cols, N: hi - lo, Sel: sel}
	return &s.cb
}

// OperatorStats reports, when keys were handed down, the rows they left
// out, and the rows a run found.
func (s *colScanIter) OperatorStats(emit func(key string, v int64)) {
	if len(s.keys) > 0 {
		emit("rows_skipped_by_join", s.skipped)
	}
	if s.rows != nil {
		emit("rows_found_by_keys", int64(len(s.rows)))
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
func (f *FilterIter) Lookup(col int) func([]int64, []int32) (*ColBatch, error) {
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
func (p *ProjectIter) Lookup(col int) func([]int64, []int32) (*ColBatch, error) {
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
func (r *RenameIter) Lookup(col int) func([]int64, []int32) (*ColBatch, error) {
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
