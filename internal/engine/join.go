package engine

import (
	"fmt"
	"math"
)

// KeyRangeNarrower is an optional Iterator method: NarrowKeyRange tells
// an opened input that its consumer keeps no row whose column col is
// NULL or an int outside [lo, hi], so the input may leave such rows
// unread (a cell of another kind, such as a float equal to a key, must
// still come). It is a hint — the input may still emit them — handed
// over after Open and before the first pull; an input may ignore a range
// that comes later, and one handed several keeps them all.
//
// Only an operator that drops such rows anyway originates a range: the
// hash join and the semi join hand their probe input the range of their
// build keys, once the build side is drained, when the key is one int
// column; the anti join, which keeps exactly the rows outside it, never
// does. An operator whose output column is an input's column forwards a
// range on it to that input: a filter to its input, a projection to the
// column it picks, a semi or anti join to the left input whose rows it
// passes through, and a hash join to the side the column is read from —
// dropping, while it drains its build side, the build rows the range
// excludes. Nothing forwards a range to the other side's key column: a
// float key equal to an int outside the range joins, and the consumer
// keeps the row. A store scan skips the file segments whose bounds miss
// a range and, on the tid column, serves of a segment whose tuple ids
// ascend only the window of rows inside it.
type KeyRangeNarrower interface {
	NarrowKeyRange(col int, lo, hi int64)
}

// narrowInput hands in a range on its column col, when in can narrow.
func narrowInput(in Iterator, col int, lo, hi int64) {
	if n, ok := in.(KeyRangeNarrower); ok {
		n.NarrowKeyRange(col, lo, hi)
	}
}

// narrowProbeInput hands in, a join's probe input, the range of the build
// keys held in t when the key is the one int column probeIdx names (t
// keeps intKeys).
func narrowProbeInput(in Iterator, probeIdx []int, t *joinTable) {
	if len(probeIdx) != 1 || t.intKeys == nil {
		return
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, k := range t.intKeys {
		lo, hi = min(lo, k), max(hi, k)
	}
	if lo <= hi {
		narrowInput(in, probeIdx[0], lo, hi)
	}
}

// keyRange is a range handed down on column col.
type keyRange struct {
	col    int
	lo, hi int64
}

// drops reports whether the range lets its consumer drop row i of cols:
// the row's cell is NULL or an int outside the range.
func (r keyRange) drops(cols []ColVec, i int) bool {
	v := &cols[r.col]
	if v.IsNull(i) {
		return true
	}
	x, ok := intCell(v, i)
	if v.Vals != nil && v.Vals[i].K == KindInt {
		x, ok = v.Vals[i].I, true
	}
	return ok && (x < r.lo || x > r.hi)
}

// HashJoinIter is an equi-join on extracted key pairs with an optional
// residual predicate over the concatenated row. This mirrors the Merge
// Cond / Join Filter split visible in the paper's Figure 13 plan: the α
// (tuple-id) conditions become keys, and the ψ (descriptor consistency)
// conditions become the residual filter.
//
// The build side L is drained into a joinTable that keeps its batches
// and refers to its rows; the probe side R is pulled batch by batch,
// each probe batch is looked up key by key from its vectors
// (narrowProbe), the match chains of the rows that found a partner are
// walked with the residual evaluated on the cells of the two sides in
// place (pairPred: ψ compares ints), and the output batch is gathered
// column by column, in typed loops, at exact size, through the join's
// output projection. No tuple is made. The build side is drained at the
// first pull, not at Open, so a parent can narrow the join before it
// reads anything: a range on an output column goes to the input the
// column is read from, and on a build column also drops, as L is
// drained, the build rows outside it (KeyRangeNarrower). An empty build
// side ends the stream without pulling R at all; any other hands R the
// range of its int keys first (narrowProbeInput).
type HashJoinIter struct {
	L, R     Iterator
	Pairs    []EquiPair
	Residual Expr

	outCols []string // output projection of the concatenated row (nil = all)

	shape *joinShape
	table *joinTable // nil until the first pull drains L (build)
	keep  []keyRange // ranges handed down on build columns
	pred  *pairPred  // nil = no residual
	cb    *ColBatch  // current probe batch; nil = pull the next
	hits  probeHits  // cb narrowed to its matches
	cur   joinCursor // how far cb's matches are walked
	cols  []ColVec   // reused output batch header
	out   ColBatch

	probeRows, cellsGathered int64 // OperatorStats
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
	var err error
	if j.shape, err = newJoinShape("hash join", j.L.Schema(), j.R.Schema(), j.Pairs, j.Residual, j.outCols, true); err != nil {
		return err
	}
	j.pred = j.shape.pred()
	j.table, j.keep = nil, nil
	j.cb = nil
	j.cols = make([]ColVec, len(j.shape.out))
	j.probeRows, j.cellsGathered = 0, 0
	return nil
}

// Next walks the matches of the current probe batch from where
// the previous call stopped, up to DefaultBatchSize output rows, and
// gathers them; a probe batch without a match is skipped whole. The
// first call drains the build side.
func (j *HashJoinIter) Next() (*ColBatch, bool, error) {
	if j.table == nil {
		if err := j.build(); err != nil {
			return nil, false, err
		}
	}
	t := j.table
	if t.len() == 0 {
		return nil, false, nil // nothing to join with: R is not read
	}
	for {
		if j.cb == nil {
			cb, ok, err := j.R.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.probeRows += int64(cb.Rows())
			narrowProbe(t, cb, j.shape.ridx, &j.hits)
			j.cb = cb
			j.cur.reset()
		}
		more := j.cur.fill(t, j.pred, j.cb, &j.hits, DefaultBatchSize)
		n := len(j.cur.bsel)
		if n > 0 {
			j.cur.gather(t, j.cb, j.shape.out, j.cols)
		}
		if !more {
			j.cb = nil // the next call pulls R, which may reuse this batch
		}
		if n > 0 {
			j.cellsGathered += int64(n * len(j.cols))
			j.out = ColBatch{Sch: j.shape.sch, Cols: j.cols, N: n}
			return &j.out, true, nil
		}
	}
}

// build drains L into the join table, leaving out the rows a range on a
// build column drops, and hands R the range of the keys it kept.
func (j *HashJoinIter) build() error {
	t, err := buildJoinTable(j.L, j.shape.lidx, j.keep...)
	if err != nil {
		return err
	}
	j.table = t
	narrowProbeInput(j.R, j.shape.ridx, t)
	return nil
}

// NarrowKeyRange (KeyRangeNarrower) forwards a range on output column
// col to the input the column is read from, and on a build column keeps
// it to drop the build rows outside it. A range handed once the build
// side is drained is ignored.
func (j *HashJoinIter) NarrowKeyRange(col int, lo, hi int64) {
	if j.shape == nil || j.table != nil {
		return
	}
	s := j.shape.out[col]
	if !s.build {
		narrowInput(j.R, s.col, lo, hi)
		return
	}
	j.keep = append(j.keep, keyRange{col: s.col, lo: lo, hi: hi})
	narrowInput(j.L, s.col, lo, hi)
}

// OperatorStats reports how many probe rows the join was handed and how
// many cells it gathered into its output.
func (j *HashJoinIter) OperatorStats(emit func(key string, v int64)) {
	emit("probe_rows", j.probeRows)
	emit("cells_gathered", j.cellsGathered)
}

func (j *HashJoinIter) Close() error {
	j.table, j.cb = nil, nil
	j.hits, j.cur, j.cols, j.out = probeHits{}, joinCursor{}, nil, ColBatch{}
	return closePair(j.L, j.R)
}

func (j *HashJoinIter) Schema() Schema {
	if j.shape != nil {
		return j.shape.sch
	}
	return joinSchema(j.L.Schema(), j.R.Schema(), j.outCols)
}

// cellSrc names where a column of a join's concatenated row is read: a
// column of the build side, or of the probe side.
type cellSrc struct {
	build bool
	col   int
}

// joinShape is what a hash join resolves from its inputs' schemas at
// Open: the schema it emits and where each of its columns is read, the
// key columns of either input, and the residual bound to the
// concatenated row.
type joinShape struct {
	sch        Schema
	out        []cellSrc // per output column
	lidx, ridx []int     // key columns of L and of R
	full       Schema    // the concatenated row L ++ R
	lw         int       // columns of L in full
	buildLeft  bool      // L is the build side
	bound      Expr      // nil = no residual
}

// newJoinShape resolves a join of inputs of schemas lsch and rsch, the
// left one the build side when buildLeft; what names the operator in
// errors.
func newJoinShape(what string, lsch, rsch Schema, pairs []EquiPair, residual Expr, out []string, buildLeft bool) (*joinShape, error) {
	s := &joinShape{full: lsch.Concat(rsch), lw: lsch.Len(), buildLeft: buildLeft,
		lidx: make([]int, len(pairs)), ridx: make([]int, len(pairs))}
	for i, p := range pairs {
		s.lidx[i], s.ridx[i] = lsch.IndexOf(p.L), rsch.IndexOf(p.R)
		if s.lidx[i] < 0 || s.ridx[i] < 0 {
			return nil, fmt.Errorf("engine: %s: pair %v not resolvable (%v ⋈ %v)", what, p, lsch.Names(), rsch.Names())
		}
	}
	sch, pick, err := bindOut(s.full, out)
	if err != nil {
		return nil, err
	}
	s.sch = sch
	s.out = make([]cellSrc, sch.Len())
	for o := range s.out {
		if pick != nil {
			s.out[o] = s.src(pick[o])
		} else {
			s.out[o] = s.src(o)
		}
	}
	if residual != nil {
		if s.bound, err = residual.Bind(s.full); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// src is where column c of the concatenated row is read.
func (s *joinShape) src(c int) cellSrc {
	if c < s.lw {
		return cellSrc{build: s.buildLeft, col: c}
	}
	return cellSrc{build: !s.buildLeft, col: c - s.lw}
}

// pred returns an evaluator of the residual with a scratch row of its
// own (one per goroutine), or nil when there is no residual.
func (s *joinShape) pred() *pairPred {
	if s.bound == nil {
		return nil
	}
	p := &pairPred{shape: s, scratch: make(Tuple, s.full.Len())}
	for _, c := range SplitConjuncts(s.bound) {
		if ps, ok := c.(*psiExpr); ok {
			for i, pos := range ps.cells {
				pc := pairConj{e: ps.conjs[i], psi: true, pos: pos}
				for k, col := range pos {
					pc.cells[k] = s.src(col)
				}
				p.conjs = append(p.conjs, pc)
			}
			continue
		}
		p.conjs = append(p.conjs, pairConj{e: c, cols: boundCols(c, s.full)})
	}
	return p
}

// boundCols lists the positions in sch of the columns the bound
// expression e reads.
func boundCols(e Expr, sch Schema) []int {
	names := ExprColumns(e)
	cols := make([]int, len(names))
	for i, name := range names {
		cols[i] = sch.IndexOf(name)
	}
	return cols
}

// pairPred is a join's residual evaluated on one candidate pair — a
// stored build row and a probe row — reading each cell in place from
// its vector. A ψ condition (psiExpr, one per pair of descriptor
// columns of a merge) compares the int cells directly; any other
// conjunct, and a ψ condition meeting a cell that is not an int, is
// evaluated on the scratch row with only the columns it reads filled.
type pairPred struct {
	conjs   []pairConj
	shape   *joinShape
	scratch Tuple // the concatenated row, filled where a conjunct reads it
}

// pairConj is one conjunct of a pairPred.
type pairConj struct {
	e     Expr       // the bound conjunct
	cols  []int      // the columns of the concatenated row it reads, unless psi
	psi   bool       // e is (a.var <> b.var OR a.rng = b.rng) over …
	pos   [4]int     // … these columns of the concatenated row, in that order,
	cells [4]cellSrc // … which are read from here
}

// holds reports whether the residual holds on build row m of t and
// probe row i of pcb.
func (p *pairPred) holds(t *joinTable, m int32, pcb *ColBatch, i int32) bool {
	bcols, br := t.cols(m)
	pcols, pr := pcb.Cols, int(i)
	for k := range p.conjs {
		c := &p.conjs[k]
		if c.psi {
			av, aok := intAt(c.cells[0], bcols, br, pcols, pr)
			bv, bok := intAt(c.cells[1], bcols, br, pcols, pr)
			if aok && bok {
				if av != bv {
					continue
				}
				ar, arok := intAt(c.cells[2], bcols, br, pcols, pr)
				brg, brok := intAt(c.cells[3], bcols, br, pcols, pr)
				if arok && brok {
					if ar != brg {
						return false
					}
					continue
				}
			}
		}
		cols := c.cols
		if c.psi {
			cols = c.pos[:]
		}
		for _, col := range cols {
			if s := p.shape.src(col); s.build {
				p.scratch[col] = bcols[s.col].Value(br)
			} else {
				p.scratch[col] = pcols[s.col].Value(pr)
			}
		}
		if !c.e.Eval(p.scratch).Truth() {
			return false
		}
	}
	return true
}

// intAt is intCell of the cell s names, of build row br or probe row pr.
func intAt(s cellSrc, bcols []ColVec, br int, pcols []ColVec, pr int) (int64, bool) {
	if s.build {
		return intCell(&bcols[s.col], br)
	}
	return intCell(&pcols[s.col], pr)
}

// joinCursor walks the match chains of one probe batch's hits in one
// build table and resumes where it stopped: it collects the candidate
// pairs that satisfy the residual, in probe order and chain order —
// the order of the row-at-a-time join.
type joinCursor struct {
	hit   int   // index in hits of the probe row whose chain is walked
	match int32 // next build row of that chain; -1 = take the next hit
	bsel  []rowRef
	psel  []int32 // the collected pairs: build row, physical probe row
	lays  []vecLayout
}

func (c *joinCursor) reset() { c.hit, c.match = -1, -1 }

// fill collects up to max pairs into bsel/psel; it reports false once
// every chain of h is walked.
func (c *joinCursor) fill(t *joinTable, pred *pairPred, pcb *ColBatch, h *probeHits, max int) bool {
	c.bsel, c.psel = c.bsel[:0], c.psel[:0]
	for len(c.bsel) < max {
		if c.match < 0 {
			if c.hit+1 >= len(h.sel) {
				return false
			}
			c.hit++
			c.match = h.heads[c.hit]
		}
		m, i := c.match, h.sel[c.hit]
		c.match = t.next[m]
		if pred == nil || pred.holds(t, m, pcb, i) {
			c.bsel = append(c.bsel, t.refs[m])
			c.psel = append(c.psel, i)
		}
	}
	return true
}

// gather lays the collected pairs out as the columns of an output
// batch: output column o of pair k is the cell out[o] names, of build
// row bsel[k] of t or of probe row psel[k] of pcb (layOut). cols
// receives the len(out) vectors.
func (c *joinCursor) gather(t *joinTable, pcb *ColBatch, out []cellSrc, cols []ColVec) {
	c.lays = c.lays[:0]
	for _, s := range out {
		c.lays = append(c.lays, outLayout(t, pcb, s))
	}
	layOut(cols, c.lays, len(c.bsel))
	for o, s := range out {
		if s.build {
			gatherRefs(t.batches, s.col, c.bsel, &cols[o])
		} else {
			gatherCol(&pcb.Cols[s.col], c.psel, &cols[o])
		}
	}
}

// layOut sets cols[o] up as a vector of layout lays[o] holding n cells,
// its payloads cut at exact size from one allocation per payload type,
// which nothing else holds — so a consumer may keep them.
func layOut(cols []ColVec, lays []vecLayout, n int) {
	var need [5]int // cells of ints, floats, strings, values, null markers
	for _, l := range lays {
		if p := l.payload(); p < 4 {
			need[p] += n
		}
		if l.nulls {
			need[4] += n
		}
	}
	ints, floats, strs := make([]int64, need[0]), make([]float64, need[1]), make([]string, need[2])
	vals, nulls := make([]Value, need[3]), make([]bool, need[4])
	for o, l := range lays {
		v := &cols[o]
		*v = ColVec{Kind: l.kind}
		if l.nulls {
			v.Nulls, nulls = nulls[:n:n], nulls[n:]
		}
		switch l.payload() {
		case 0:
			v.Ints, ints = ints[:n:n], ints[n:]
		case 1:
			v.Floats, floats = floats[:n:n], floats[n:]
		case 2:
			v.Strs, strs = strs[:n:n], strs[n:]
		case 3:
			v.Vals, vals = vals[:n:n], vals[n:]
		}
	}
}

// outLayout is the layout of an output column read from s.
func outLayout(t *joinTable, pcb *ColBatch, s cellSrc) vecLayout {
	if s.build {
		return t.lays[s.col]
	}
	return layoutOf(&pcb.Cols[s.col])
}

// gatherCol fills dst, laid out like src, with src's cells at sel.
func gatherCol(src *ColVec, sel []int32, dst *ColVec) {
	if dst.Nulls != nil {
		for k, i := range sel {
			dst.Nulls[k] = src.Nulls[i]
		}
	}
	switch {
	case dst.Vals != nil:
		for k, i := range sel {
			dst.Vals[k] = src.Vals[i]
		}
	case dst.Ints != nil:
		for k, i := range sel {
			dst.Ints[k] = src.Ints[i]
		}
	case dst.Floats != nil:
		for k, i := range sel {
			dst.Floats[k] = src.Floats[i]
		}
	case dst.Strs != nil:
		for k, i := range sel {
			dst.Strs[k] = src.Strs[i]
		}
	}
}

// gatherRefs fills dst, laid out as column c of batches merges to
// (batchLayout), with that column's cells of the rows refs.
func gatherRefs(batches []ColBatch, c int, refs []rowRef, dst *ColVec) {
	if dst.Ints != nil {
		for k, ref := range refs {
			if src := &batches[ref.batch].Cols[c]; src.Nulls != nil && src.Nulls[ref.row] {
				dst.Nulls[k] = true
			} else {
				dst.Ints[k] = src.Ints[ref.row]
			}
		}
		return
	}
	for k, ref := range refs {
		src, i := &batches[ref.batch].Cols[c], int(ref.row)
		switch {
		case src.IsNull(i):
			if dst.Nulls != nil {
				dst.Nulls[k] = true
			}
		case dst.Vals != nil:
			dst.Vals[k] = src.Value(i)
		case dst.Floats != nil:
			dst.Floats[k] = src.Floats[i]
		case dst.Strs != nil:
			dst.Strs[k] = src.Strs[i]
		}
	}
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

// bindOut resolves a join's output projection out against full, the
// schema of its concatenated row: the schema the join reports and the
// position in full of each of its columns. A nil out is the whole row.
func bindOut(full Schema, out []string) (Schema, []int, error) {
	if out == nil {
		return full, nil, nil
	}
	sch, err := full.Project(out)
	if err != nil {
		return Schema{}, nil, err
	}
	pick := make([]int, len(out))
	for i, name := range out {
		pick[i] = full.IndexOf(name)
	}
	return sch, pick, nil
}

// NestedLoopJoinIter evaluates an arbitrary (possibly empty = cross
// product) predicate over the concatenated row, row by row: the join for
// a condition without an equi pair, and the property tests' reference
// for the hash join. It holds its right input as tuples and makes each
// left batch into tuples, and reports those as rows_materialized; its
// output rows are served as column batches (HeldRows).
type NestedLoopJoinIter struct {
	L, R Iterator
	Cond Expr

	outCols []string // output projection of the concatenated row (nil = all)
	pick    []int

	right   []Tuple
	left    []Tuple // the current left batch's rows
	lpos    int
	cur     Tuple // left row being joined against right[rpos:]
	rpos    int
	bound   Expr
	sch     Schema
	scratch Tuple // predicate evaluation buffer
	out     HeldRows
	made    int64
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
		if j.bound, err = j.Cond.Bind(full); err != nil {
			return err
		}
	}
	if j.right, err = drainRows(j.R); err != nil {
		return err
	}
	j.made = int64(len(j.right))
	j.scratch = make(Tuple, full.Len())
	j.left, j.lpos = nil, 0
	j.rpos = len(j.right) // no current left row yet
	return nil
}

// Next joins up to DefaultBatchSize rows, resuming from the (left row,
// right position) cursor the previous call stopped at.
func (j *NestedLoopJoinIter) Next() (*ColBatch, bool, error) {
	var out []Tuple
	for len(out) < DefaultBatchSize {
		if j.rpos < len(j.right) {
			r := j.right[j.rpos]
			j.rpos++
			if residualHolds(j.bound, j.scratch, j.cur, r) {
				out = append(out, joinedRow(j.cur, r, j.pick))
			}
			continue
		}
		if j.lpos >= len(j.left) {
			cb, ok, err := j.L.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			j.left, j.lpos = cb.Materialize(j.left[:0]), 0
			j.made += int64(len(j.left))
		}
		j.cur = j.left[j.lpos]
		j.lpos++
		j.rpos = 0
	}
	j.out = HeldRows{Rows: out, Sch: j.sch}
	return j.out.Next()
}

// joinedRow is the join row l ++ r narrowed to the columns pick selects
// from it, in pick's order; a nil pick keeps the whole row.
func joinedRow(l, r Tuple, pick []int) Tuple {
	if pick == nil {
		return append(append(make(Tuple, 0, len(l)+len(r)), l...), r...)
	}
	t := make(Tuple, len(pick))
	for i, c := range pick {
		if c < len(l) {
			t[i] = l[c]
		} else {
			t[i] = r[c-len(l)]
		}
	}
	return t
}

// OperatorStats reports the rows the join made into tuples.
func (j *NestedLoopJoinIter) OperatorStats(emit func(key string, v int64)) {
	emit("rows_materialized", j.made)
}

func (j *NestedLoopJoinIter) Close() error {
	j.right, j.left, j.out = nil, nil, HeldRows{}
	return closePair(j.L, j.R)
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
// the joinTable and the probe of HashJoinIter: the right side is built
// into the table (with no key columns, every right row lands on one
// chain, covering the keyless cross-check case), left batches are
// narrowed against it from their vectors and each hit's chain is walked
// until the residual holds. A semi join hands its left input the range
// of the build keys, as the hash join does; an anti join keeps the rows
// outside that range, so it never does. Both forward a range handed to
// them to L. It hands over each left batch narrowed to a selection of
// its surviving rows.
type SemiJoinIter struct {
	L, R     Iterator
	Pairs    []EquiPair
	Residual Expr
	Anti     bool

	shape *joinShape
	table *joinTable
	pred  *pairPred
	hits  probeHits
	keep  []int32  // physical ids of the current batch's surviving rows
	cb    ColBatch // reused output batch header
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
	var err error
	if j.shape, err = newJoinShape("semi join", j.L.Schema(), j.R.Schema(), j.Pairs, j.Residual, nil, false); err != nil {
		return err
	}
	j.pred = j.shape.pred()
	// Build phase on the right input. With no equi pairs the key is
	// empty, so all right rows share one chain and every left row
	// probes the full right side, as the keyless semantics require.
	if j.table, err = buildJoinTable(j.R, j.shape.ridx); err != nil {
		return err
	}
	if !j.Anti { // the anti join keeps exactly the rows a range would skip
		narrowProbeInput(j.L, j.shape.lidx, j.table)
	}
	return nil
}

// matched reports whether probe row i of cb, whose chain starts at
// head, has a build row the residual holds on.
func (j *SemiJoinIter) matched(head int32, cb *ColBatch, i int32) bool {
	t := j.table
	for m := head; m >= 0; m = t.next[m] {
		if j.pred == nil || j.pred.holds(t, m, cb, i) {
			return true
		}
	}
	return false
}

// Next narrows whole left batches.
func (j *SemiJoinIter) Next() (*ColBatch, bool, error) {
	for {
		cb, ok, err := j.L.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		narrowProbe(j.table, cb, j.shape.lidx, &j.hits)
		h := &j.hits
		keep, hit := j.keep[:0], 0
		for k, n := 0, cb.Rows(); k < n; k++ {
			i := int32(cb.RowID(k))
			found := false
			if hit < len(h.sel) && h.sel[hit] == i {
				found = j.matched(h.heads[hit], cb, i)
				hit++
			}
			if found != j.Anti {
				keep = append(keep, i)
			}
		}
		j.keep = keep
		if len(keep) == 0 {
			continue
		}
		j.cb = ColBatch{Sch: cb.Sch, Cols: cb.Cols, N: cb.N, Sel: keep}
		return &j.cb, true, nil
	}
}

func (j *SemiJoinIter) Close() error {
	j.table, j.hits, j.keep = nil, probeHits{}, nil
	return closePair(j.L, j.R)
}

func (j *SemiJoinIter) Schema() Schema { return j.L.Schema() }

// NarrowKeyRange (KeyRangeNarrower) forwards a range to L, whose rows
// the (anti) semi join passes through.
func (j *SemiJoinIter) NarrowKeyRange(col int, lo, hi int64) { narrowInput(j.L, col, lo, hi) }
