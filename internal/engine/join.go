package engine

import "fmt"

// HashJoinIter is an equi-join on extracted key pairs with an optional
// residual predicate evaluated on the concatenated row. This mirrors
// the Merge Cond / Join Filter split visible in the paper's Figure 13
// plan: the α (tuple-id) conditions become keys, and the ψ (descriptor
// consistency) conditions become the residual filter.
//
// The build side L goes into an open-addressing joinTable keyed by a
// 64-bit hash of the key columns, which keeps the build rows' headers;
// the probe side R is driven in batches, each probe row hashed directly
// from its key columns and looked up once. A probe side that is a
// columnar prefix (a store scan, or filters and projections over one)
// is pulled as column batches and narrowed before it is materialized
// (narrowProbe): a probe row becomes a tuple when, and only when, its
// key is in the build table. An empty build side ends the stream
// without pulling R at all. Neither phase allocates per row: the only
// allocations are the surviving probe rows' cells, the amortized arena
// chunks that output rows are carved from, and an output row is written
// once, already narrowed to the join's output columns.
type HashJoinIter struct {
	L, R     Iterator
	Pairs    []EquiPair
	Residual Expr

	outCols []string // output projection of the concatenated row (nil = all)
	pick    []int    // outCols as positions in the concatenated row

	table *joinTable
	lidx  []int
	ridx  []int
	bound Expr
	sch   Schema

	colR       ColBatchIterator // R's columnar path; nil when it has none
	hits       [1]probeHits     // the current column batch narrowed to its matches
	probeBatch []Tuple          // current batch of the probe side R
	probePos   int
	cur        Tuple // current probe row
	match      int32 // next build row in the current chain, -1 = none

	probeRows, probeMaterialized int64 // OperatorStats

	out     []Tuple  // reused output batch headers
	arena   outArena // output cells (write-once)
	scratch Tuple    // residual evaluation buffer
}

// NewHashJoin builds a hash join; pairs must be non-empty. out names the
// columns of the concatenated row to emit, in order (nil = all of them);
// the residual still sees the whole row.
func NewHashJoin(l, r Iterator, pairs []EquiPair, residual Expr, out []string) *HashJoinIter {
	return &HashJoinIter{L: l, R: r, Pairs: pairs, Residual: residual, outCols: out}
}

func (j *HashJoinIter) Open() error {
	if len(j.Pairs) == 0 {
		return fmt.Errorf("engine: hash join requires at least one equi pair")
	}
	if err := j.L.Open(); err != nil {
		return err
	}
	if err := j.R.Open(); err != nil {
		return err
	}
	lsch, rsch := j.L.Schema(), j.R.Schema()
	full := lsch.Concat(rsch)
	var err error
	if j.sch, j.pick, err = bindOut(full, j.outCols); err != nil {
		return err
	}
	j.lidx = make([]int, len(j.Pairs))
	j.ridx = make([]int, len(j.Pairs))
	for i, p := range j.Pairs {
		li := lsch.IndexOf(p.L)
		ri := rsch.IndexOf(p.R)
		if li < 0 || ri < 0 {
			return fmt.Errorf("engine: hash join: pair %v not resolvable (%v ⋈ %v)",
				p, lsch.Names(), rsch.Names())
		}
		j.lidx[i] = li
		j.ridx[i] = ri
	}
	if j.Residual != nil {
		b, err := j.Residual.Bind(full)
		if err != nil {
			return err
		}
		j.bound = b
	}
	// Build phase on the left input.
	j.table = newJoinTable(j.lidx)
	if err := j.table.build(j.L); err != nil {
		return err
	}
	j.colR, _ = NativeColumnar(j.R)
	j.probeBatch, j.probePos = nil, 0
	j.match = -1
	j.scratch = make(Tuple, full.Len())
	j.probeRows, j.probeMaterialized = 0, 0
	return nil
}

// pullProbe advances to the next non-empty batch of probe rows. Row
// batches come as R hands them; a column batch is narrowed to the rows
// with a partner in the build table, and those alone are materialized,
// their chain heads kept beside them in hits.
func (j *HashJoinIter) pullProbe() (bool, error) {
	j.probePos = 0
	if j.colR == nil {
		batch, ok, err := j.R.NextBatch()
		j.probeBatch = batch
		j.probeRows += int64(len(batch))
		return ok, err
	}
	for {
		cb, ok, err := j.colR.NextColBatch()
		if err != nil || !ok {
			j.probeBatch = nil
			return false, err
		}
		j.probeRows += int64(cb.Rows())
		narrowProbe([]*joinTable{j.table}, cb, j.ridx, j.hits[:])
		if len(j.hits[0].sel) == 0 {
			continue
		}
		matched := ColBatch{Sch: cb.Sch, Cols: cb.Cols, N: cb.N, Sel: j.hits[0].sel}
		j.probeBatch = matched.Materialize(j.probeBatch)
		j.probeMaterialized += int64(len(j.probeBatch))
		return true, nil
	}
}

// NextBatch probes batches of right rows against the build table and
// emits up to DefaultBatchSize joined rows, carved from the output
// arena. The residual is evaluated on a reused full-width scratch
// buffer, so rejected candidates cost no allocation at all.
func (j *HashJoinIter) NextBatch() ([]Tuple, bool, error) {
	if j.table.len() == 0 {
		return nil, false, nil // nothing to join with: R is not read
	}
	out := j.out[:0]
	for {
		// Drain the current probe row's match chain.
		for j.match >= 0 {
			l := j.table.row(j.match)
			j.match = j.table.nextMatch(j.match)
			if !residualHolds(j.bound, j.scratch, l, j.cur) {
				continue
			}
			out = append(out, j.arena.emit(l, j.cur, j.pick))
			if len(out) >= DefaultBatchSize {
				j.out = out
				return out, true, nil
			}
		}
		// Advance the probe side.
		for j.probePos >= len(j.probeBatch) {
			ok, err := j.pullProbe()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.out = out
				return out, len(out) > 0, nil
			}
		}
		j.cur = j.probeBatch[j.probePos]
		if j.colR != nil {
			j.match = j.hits[0].heads[j.probePos]
		} else if h, keyed := hashKeyAt(j.cur, j.ridx); keyed {
			j.match = j.table.lookup(h, j.cur, j.ridx)
		}
		j.probePos++
	}
}

// OperatorStats reports how many probe rows the join was handed and how
// many of them it turned from columns into tuples itself: none of a row
// input, only the rows with a partner of a columnar one.
func (j *HashJoinIter) OperatorStats(emit func(key string, v int64)) {
	emit("probe_rows", j.probeRows)
	emit("probe_rows_materialized", j.probeMaterialized)
}

func (j *HashJoinIter) Close() error {
	j.table = nil
	j.out, j.probeBatch, j.hits = nil, nil, [1]probeHits{}
	j.arena = outArena{}
	err1 := j.L.Close()
	err2 := j.R.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (j *HashJoinIter) Schema() Schema {
	if j.sch.Len() > 0 {
		return j.sch
	}
	return joinSchema(j.L.Schema(), j.R.Schema(), j.outCols)
}

// residualHolds evaluates a join's bound residual predicate (nil = none)
// on the concatenated row l ++ r, assembled in the reused full-width
// buffer scratch: a rejected candidate costs no allocation.
func residualHolds(bound Expr, scratch, l, r Tuple) bool {
	if bound == nil {
		return true
	}
	copy(scratch, l)
	copy(scratch[len(l):], r)
	return bound.Eval(scratch).Truth()
}

// joinSchema is the schema an inner join of l and r reports before it
// is opened: best effort, like ProjectIter's.
func joinSchema(l, r Schema, out []string) Schema {
	full := l.Concat(r)
	if sch, _, err := bindOut(full, out); err == nil {
		return sch
	}
	return full
}

// NestedLoopJoinIter evaluates an arbitrary (possibly empty = cross
// product) predicate over the concatenated row. The right input is
// materialized.
type NestedLoopJoinIter struct {
	L, R Iterator
	Cond Expr

	outCols []string // output projection of the concatenated row (nil = all)
	pick    []int

	right   []Tuple
	lbatch  []Tuple // current batch of the left input
	lpos    int
	cur     Tuple // left row being joined against right[rpos:]
	rpos    int
	bound   Expr
	sch     Schema
	out     []Tuple  // reused output batch headers
	arena   outArena // output cells (write-once)
	scratch Tuple    // predicate evaluation buffer
}

// NewNestedLoopJoin builds a nested-loop join (cond may be nil for a
// cross product); out is NewHashJoin's.
func NewNestedLoopJoin(l, r Iterator, cond Expr, out []string) *NestedLoopJoinIter {
	return &NestedLoopJoinIter{L: l, R: r, Cond: cond, outCols: out}
}

func (j *NestedLoopJoinIter) Open() error {
	if err := j.L.Open(); err != nil {
		return err
	}
	if err := j.R.Open(); err != nil {
		return err
	}
	full := j.L.Schema().Concat(j.R.Schema())
	var err error
	if j.sch, j.pick, err = bindOut(full, j.outCols); err != nil {
		return err
	}
	if j.Cond != nil {
		b, err := j.Cond.Bind(full)
		if err != nil {
			return err
		}
		j.bound = b
	}
	if j.right, err = drainAll(j.R); err != nil {
		return err
	}
	j.scratch = make(Tuple, full.Len())
	j.lbatch, j.lpos = nil, 0
	j.rpos = len(j.right) // no current left row yet
	return nil
}

// NextBatch emits up to DefaultBatchSize joined rows, resuming from the
// (left row, right position) cursor the previous call stopped at.
func (j *NestedLoopJoinIter) NextBatch() ([]Tuple, bool, error) {
	out := j.out[:0]
	for {
		for j.rpos < len(j.right) {
			r := j.right[j.rpos]
			j.rpos++
			if !residualHolds(j.bound, j.scratch, j.cur, r) {
				continue
			}
			out = append(out, j.arena.emit(j.cur, r, j.pick))
			if len(out) >= DefaultBatchSize {
				j.out = out
				return out, true, nil
			}
		}
		for j.lpos >= len(j.lbatch) {
			batch, ok, err := j.L.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.out = out
				return out, len(out) > 0, nil
			}
			j.lbatch, j.lpos = batch, 0
		}
		j.cur = j.lbatch[j.lpos]
		j.lpos++
		j.rpos = 0
	}
}

func (j *NestedLoopJoinIter) Close() error {
	j.right, j.lbatch, j.out = nil, nil, nil
	j.arena = outArena{}
	err1 := j.L.Close()
	err2 := j.R.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (j *NestedLoopJoinIter) Schema() Schema {
	if j.sch.Len() > 0 {
		return j.sch
	}
	return joinSchema(j.L.Schema(), j.R.Schema(), j.outCols)
}

// SemiJoinIter emits left rows that have at least one match on the
// right under pairs + residual; with Anti=true it emits left rows with
// no match. Used by U-relation reduction (Proposition 3.3). It shares
// the hashed-key joinTable with HashJoinIter: the right side is built
// into the table (with no key columns, every right row lands on one
// chain, covering the keyless cross-check case), and left rows probe
// by direct hashing — no per-row key or candidate-slice allocations.
type SemiJoinIter struct {
	L, R     Iterator
	Pairs    []EquiPair
	Residual Expr
	Anti     bool

	table   *joinTable
	lidx    []int
	bound   Expr
	sch     Schema
	scratch Tuple // residual evaluation buffer

	out []Tuple // reused output batch headers
}

// NewSemiJoin builds a (anti-)semi-join.
func NewSemiJoin(l, r Iterator, pairs []EquiPair, residual Expr, anti bool) *SemiJoinIter {
	return &SemiJoinIter{L: l, R: r, Pairs: pairs, Residual: residual, Anti: anti}
}

func (j *SemiJoinIter) Open() error {
	if err := j.L.Open(); err != nil {
		return err
	}
	if err := j.R.Open(); err != nil {
		return err
	}
	lsch, rsch := j.L.Schema(), j.R.Schema()
	j.sch = lsch
	j.lidx = make([]int, len(j.Pairs))
	ridx := make([]int, len(j.Pairs))
	for i, p := range j.Pairs {
		li := lsch.IndexOf(p.L)
		ri := rsch.IndexOf(p.R)
		if li < 0 || ri < 0 {
			return fmt.Errorf("engine: semi join: pair %v not resolvable", p)
		}
		j.lidx[i] = li
		ridx[i] = ri
	}
	if j.Residual != nil {
		b, err := j.Residual.Bind(lsch.Concat(rsch))
		if err != nil {
			return err
		}
		j.bound = b
	}
	j.scratch = make(Tuple, lsch.Len()+rsch.Len())
	// Build phase on the right input. With no equi pairs the key is
	// empty, so all right rows share one chain and every left row
	// probes the full right side, as the keyless semantics require.
	j.table = newJoinTable(ridx)
	return j.table.build(j.R)
}

// matched reports whether a left row has a qualifying right match.
func (j *SemiJoinIter) matched(row Tuple) bool {
	h, keyed := hashKeyAt(row, j.lidx)
	if !keyed {
		return false // NULL keys never match
	}
	for m := j.table.lookup(h, row, j.lidx); m >= 0; m = j.table.nextMatch(m) {
		if residualHolds(j.bound, j.scratch, row, j.table.row(m)) {
			return true
		}
	}
	return false
}

// NextBatch filters whole left batches, passing surviving row headers
// through unchanged (the semi join emits its input rows, so it
// allocates nothing).
func (j *SemiJoinIter) NextBatch() ([]Tuple, bool, error) {
	for {
		in, ok, err := j.L.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		out := j.out[:0]
		for _, row := range in {
			if j.matched(row) != j.Anti {
				out = append(out, row)
			}
		}
		j.out = out
		if len(out) > 0 {
			return out, true, nil
		}
	}
}

func (j *SemiJoinIter) Close() error {
	j.table = nil
	j.out = nil
	err1 := j.L.Close()
	err2 := j.R.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (j *SemiJoinIter) Schema() Schema { return j.L.Schema() }
