package engine

import (
	"fmt"
	"slices"
)

// KeyNarrower is an optional Iterator method: NarrowKeys tells an
// opened input that its consumer keeps no row whose column col is NULL
// or an int keys does not hold, so the input may leave such rows unread
// (a cell of another kind, such as a float equal to a key, must still
// come). It is a hint — the input may still emit them — handed over
// after Open and before the first pull; an input may ignore keys that
// come later, and one handed several keeps them all.
//
// Only an operator that drops such rows anyway originates keys: the
// hash join and the semi join hand their probe input the sorted
// distinct list of their build keys, once the build side is drained,
// when the key is one int column. An operator whose output column is an
// input's column forwards keys on it to that input: a filter to its
// input, a projection to the column it picks, a rename and a semi join
// to the input whose rows they pass through, and a stitch to the input
// that owns the column (keys on a tuple-id column to its planned
// driver). A hash join forwards nothing (keys are a hint), so a join on
// another join's probe side reads its inputs whole. A scan narrows to
// the window of rows a range spans on a column it is sorted on, a store
// scan skips the file segments whose bounds hold no key, and both drop
// the rows whose key a list leaves out — unless the in-memory scan has
// a value-order run of the list's column, in which it finds the list's
// rows instead of reading the others.
type KeyNarrower interface {
	NarrowKeys(col int, keys Keys)
}

// Keys is a set of int keys handed down a plan: every int in [Lo, Hi]
// (a range), or, when List is not nil, only those of List — sorted,
// distinct, and within [Lo, Hi].
type Keys struct {
	Lo, Hi int64
	List   []int64
}

// Meets reports whether some key lies in [lo, hi]. A list that holds
// every int of its range is searched as the range.
func (k Keys) Meets(lo, hi int64) bool {
	if hi < k.Lo || lo > k.Hi {
		return false
	}
	if k.List == nil || int64(len(k.List)) == k.Hi-k.Lo+1 {
		return true
	}
	i, _ := slices.BinarySearch(k.List, lo)
	return i < len(k.List) && k.List[i] <= hi
}

// drops reports whether the keys let their consumer drop row i of v:
// its cell is NULL or an int they do not hold.
func (k Keys) drops(v *ColVec, i int) bool {
	if v.IsNull(i) {
		return true
	}
	x, ok := intCell(v, i)
	if v.Vals != nil && v.Vals[i].K == KindInt {
		x, ok = v.Vals[i].I, true
	}
	return ok && !k.Meets(x, x)
}

// ColKeys is keys handed down on column Col. An operator handed keys
// on one column twice keeps both: a row either drops is dropped.
type ColKeys struct {
	Col int
	Keys
}

// SelectKeyed narrows the live rows of n rows of cols — those of sel,
// or all when sel is nil — to the rows no list in hs drops, and reports
// how many it dropped. The narrowed selection is made in *buf, which it
// keeps; when it drops none it returns sel itself. Only a list makes it
// look at rows: a range alone narrows windows and skips segments.
func SelectKeyed(hs []ColKeys, cols []ColVec, n int, sel []int32, buf *[]int32) ([]int32, int) {
	if !slices.ContainsFunc(hs, func(h ColKeys) bool { return h.List != nil }) {
		return sel, 0
	}
	live := n
	if sel != nil {
		live = len(sel)
	}
	out := slices.Grow((*buf)[:0], live)
rows:
	for k := 0; k < live; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		for _, h := range hs {
			if h.List != nil && h.drops(&cols[h.Col], i) {
				continue rows
			}
		}
		out = append(out, int32(i))
	}
	if *buf = out; len(out) == live {
		return sel, 0
	}
	return out, live - len(out)
}

// narrowInput hands in keys on its column col, when in can narrow.
func narrowInput(in Iterator, col int, keys Keys) {
	if n, ok := in.(KeyNarrower); ok {
		n.NarrowKeys(col, keys)
	}
}

// narrowProbeInput hands in, a join's probe input, the sorted distinct
// build keys held in t when the key is the one int column probeIdx
// names (t keeps intKeys), and returns how many it handed. Each slot of
// t's directory holds the chain of one key.
func narrowProbeInput(in Iterator, probeIdx []int, t *joinTable) int {
	if len(probeIdx) != 1 || t.intKeys == nil || t.len() == 0 {
		return 0
	}
	list := make([]int64, 0, t.len())
	for _, sl := range t.slots {
		if sl.head > 0 {
			list = append(list, t.intKeys[sl.head-1])
		}
	}
	slices.Sort(list)
	narrowInput(in, probeIdx[0], Keys{Lo: list[0], Hi: list[len(list)-1], List: list})
	return len(list)
}

// HashJoinIter is the inner join: an equi-join on extracted key pairs
// with an optional residual predicate over the concatenated row — the
// join of two relations, ψ (descriptor consistency) in its residual, the
// join filter of the paper's Figure 13. A join without an equi pair is
// the same operator with an empty key: every build row hashes alike and
// lands on one chain, which each probe row walks with the whole
// condition as its residual. The merge of one relation's partitions on
// the tuple id is the stitch's (StitchIter).
//
// The build side L is drained into a joinTable that keeps its batches
// and refers to its rows; the probe side R is pulled batch by batch,
// each probe batch is looked up key by key from its vectors
// (narrowProbe), the match chains of the rows that found a partner are
// walked with the residual evaluated on the cells of the two sides in
// place (joinCond: ψ compares ints), and the output batch is gathered
// column by column, in typed loops, at exact size, through the join's
// output projection. No tuple is made. The build side is drained at the
// first pull, not at Open. An empty build side ends the stream without
// pulling R at all; any other hands R the list of its int keys first
// (narrowProbeInput).
type HashJoinIter struct {
	L, R     Iterator
	Pairs    []EquiPair
	Residual Expr

	outCols []string // output projection of the concatenated row (nil = all)

	shape *joinShape
	table *joinTable // nil until the first pull drains L (build)
	cb    *ColBatch  // current probe batch; nil = pull the next
	hits  probeHits  // cb narrowed to its matches
	cur   joinCursor // how far cb's matches are walked
	cols  []ColVec   // reused output batch header
	out   ColBatch

	probeRows, cellsGathered, keysHanded int64 // OperatorStats
}

// NewHashJoin builds a hash join; pairs may be empty (every pair of rows
// is a candidate). out names the columns of the concatenated row to
// emit, in order (nil = all of them); the residual still sees the whole
// row.
func NewHashJoin(l, r Iterator, pairs []EquiPair, residual Expr, out []string) *HashJoinIter {
	return &HashJoinIter{L: l, R: r, Pairs: pairs, Residual: residual, outCols: out}
}

func (j *HashJoinIter) Open() error {
	if err := j.L.Open(); err != nil {
		return err
	}
	if err := j.R.Open(); err != nil {
		return err
	}
	var err error
	if j.shape, err = newJoinShape("hash join", []Schema{j.L.Schema(), j.R.Schema()}, j.Pairs, j.Residual, j.outCols); err != nil {
		return err
	}
	j.table, j.cb = nil, nil
	j.cols = make([]ColVec, len(j.shape.out))
	j.probeRows, j.cellsGathered, j.keysHanded = 0, 0, 0
	return nil
}

// Next walks the matches of the current probe batch from where
// the previous call stopped, up to DefaultBatchSize output rows, and
// gathers them; a probe batch without a match is skipped whole. The
// first call drains the build side and hands R the list of its keys.
func (j *HashJoinIter) Next() (*ColBatch, bool, error) {
	if j.table == nil {
		t, err := buildJoinTable(j.L, j.shape.lidx)
		if err != nil {
			return nil, false, err
		}
		j.table = t
		j.keysHanded = int64(narrowProbeInput(j.R, j.shape.ridx, t))
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
		more := j.cur.fill(t, j.shape.cond, j.cb, &j.hits, DefaultBatchSize)
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

// OperatorStats reports how many probe rows the join was handed, how
// many cells it gathered into its output and how many keys it handed
// its probe input (0: none).
func (j *HashJoinIter) OperatorStats(emit func(key string, v int64)) {
	emit("probe_rows", j.probeRows)
	emit("cells_gathered", j.cellsGathered)
	emit("keys_handed", j.keysHanded)
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

// cellAt is column col of input in: where a column of a join's
// concatenated row is read.
type cellAt struct{ in, col int }

// joinShape is what a join resolves from its inputs' schemas at Open:
// the schema it emits and where each of its columns is read, the
// conjuncts of its condition resolved to the inputs' cells and filed
// under the last input each reads, and — for a join of two inputs on
// equi pairs — the key columns of either input.
type joinShape struct {
	sch        Schema
	out        []cellAt  // per output column
	cond       *joinCond // nil = no condition
	lidx, ridx []int     // key columns of the first and second input
}

// newJoinShape resolves a join of inputs of schemas ins on pairs (of the
// first two) under cond; what names the operator in errors.
func newJoinShape(what string, ins []Schema, pairs []EquiPair, cond Expr, out []string) (*joinShape, error) {
	s := &joinShape{lidx: make([]int, len(pairs)), ridx: make([]int, len(pairs))}
	for i, p := range pairs {
		s.lidx[i], s.ridx[i] = ins[0].IndexOf(p.L), ins[1].IndexOf(p.R)
		if s.lidx[i] < 0 || s.ridx[i] < 0 {
			return nil, fmt.Errorf("engine: %s: pair %v not resolvable (%v ⋈ %v)", what, p, ins[0].Names(), ins[1].Names())
		}
	}
	n := 0
	for _, sch := range ins {
		n += sch.Len()
	}
	full := Schema{Cols: make([]Column, 0, n)}
	for _, sch := range ins {
		full.Cols = append(full.Cols, sch.Cols...)
	}
	pos := func(p int) cellAt { // where column p of full is read
		i := 0
		for ; p >= ins[i].Len(); i++ {
			p -= ins[i].Len()
		}
		return cellAt{in: i, col: p}
	}
	sch, pick, err := bindOut(full, out)
	if err != nil {
		return nil, err
	}
	s.sch, s.out = sch, make([]cellAt, sch.Len())
	for o := range s.out {
		if s.out[o] = pos(o); pick != nil {
			s.out[o] = pos(pick[o])
		}
	}
	if cond == nil {
		return s, nil
	}
	conjs := SplitConjuncts(cond)
	filed := make([]condConj, 0, len(conjs)) // each conjunct with the input it is filed under
	file := func(cc condConj, at []cellAt) {
		for _, a := range at {
			cc.in = max(cc.in, a.in)
		}
		filed = append(filed, cc)
	}
	c := &joinCond{conjs: make([][]condConj, len(ins)), rows: make([]condRow, len(ins))}
	for _, e := range conjs {
		// A ψ condition is resolved to its four cells, not bound.
		if refs, ok := psiRefs(e); ok {
			var cc condConj
			for k, r := range refs {
				i := full.IndexOf(r.Name)
				if i < 0 {
					return nil, fmt.Errorf("engine: unknown column %q in %v", r.Name, full.Names())
				}
				cc.psi[k] = pos(i)
			}
			file(cc, cc.psi[:])
			continue
		}
		bound, err := e.Bind(full)
		if err != nil {
			return nil, err
		}
		cc := condConj{e: bound, cols: boundCols(bound, full)}
		cc.src = make([]cellAt, len(cc.cols))
		for j, p := range cc.cols {
			cc.src[j] = pos(p)
		}
		if file(cc, cc.src); c.scratch == nil {
			c.scratch = make(Tuple, full.Len())
		}
	}
	slices.SortStableFunc(filed, func(a, b condConj) int { return a.in - b.in })
	for d := range c.conjs {
		n := 0
		for n < len(filed) && filed[n].in == d {
			n++
		}
		c.conjs[d], filed = filed[:n:n], filed[n:]
	}
	s.cond = c
	return s, nil
}

// joinCond is a join's condition evaluated on one combination of its
// inputs' rows, each cell read in place from its vector. Each conjunct
// is filed under the last input whose column it reads, so a join that
// picks its inputs' rows in turn (the stitch) checks it as soon as that
// row is picked. A ψ condition compares its four cells directly; any
// other conjunct is evaluated on the scratch row with only the columns
// it reads filled.
type joinCond struct {
	conjs   [][]condConj // per input, the conjuncts filed under it
	rows    []condRow    // per input, its row of the combination
	scratch Tuple        // the concatenated row, filled where a conjunct reads it
}

// condConj is one conjunct of a join's condition: a ψ condition (e nil)
// by its cells, or any other bound to the concatenated row.
type condConj struct {
	in   int       // the input it is filed under
	psi  [4]cellAt // ψ: where a.var, b.var, a.rng and b.rng are read
	e    Expr      // any other: the bound conjunct,
	cols []int     // the columns of the concatenated row it reads
	src  []cellAt  // and where each is read
}

// condRow is physical row row of the vectors cols.
type condRow struct {
	cols []ColVec
	row  int
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

// set makes physical row r of cols input i's row of the combination.
func (c *joinCond) set(i int, cols []ColVec, r int) { c.rows[i] = condRow{cols: cols, row: r} }

// holds reports whether the conjuncts filed under input d hold on the
// rows set.
func (c *joinCond) holds(d int) bool {
	for k := range c.conjs[d] {
		cc := &c.conjs[d][k]
		if cc.e == nil {
			if !c.psiHolds(&cc.psi) {
				return false
			}
			continue
		}
		for j, p := range cc.cols {
			r := &c.rows[cc.src[j].in]
			c.scratch[p] = r.cols[cc.src[j].col].Value(r.row)
		}
		if !cc.e.Eval(c.scratch).Truth() {
			return false
		}
	}
	return true
}

// psiHolds evaluates (a.var <> b.var OR a.rng = b.rng) on the cells at:
// on ints directly, and on cells of any other kind as the comparisons
// evaluate (a NULL compares false).
func (c *joinCond) psiHolds(at *[4]cellAt) bool {
	av, aok := c.intAt(at[0])
	bv, bok := c.intAt(at[1])
	if aok && bok {
		if av != bv {
			return true
		}
		ar, arok := c.intAt(at[2])
		br, brok := c.intAt(at[3])
		if arok && brok {
			return ar == br
		}
	}
	a, b, ar, br := c.valueAt(at[0]), c.valueAt(at[1]), c.valueAt(at[2]), c.valueAt(at[3])
	return !a.IsNull() && !b.IsNull() && Compare(a, b) != 0 || !ar.IsNull() && !br.IsNull() && Compare(ar, br) == 0
}

// intAt is intCell of the cell s names in the combination.
func (c *joinCond) intAt(s cellAt) (int64, bool) {
	r := &c.rows[s.in]
	return intCell(&r.cols[s.col], r.row)
}

// valueAt is the cell s names in the combination.
func (c *joinCond) valueAt(s cellAt) Value {
	r := &c.rows[s.in]
	return r.cols[s.col].Value(r.row)
}

// pair reports whether the condition of a join of two inputs holds on
// stored row m of t, the row of input build, and probe row i of pcb, the
// row of the other.
func (c *joinCond) pair(build int, t *joinTable, m int32, pcb *ColBatch, i int32) bool {
	bcols, br := t.cols(m)
	c.set(build, bcols, br)
	c.set(1-build, pcb.Cols, int(i))
	return c.holds(0) && c.holds(1)
}

// joinCursor walks the match chains of one probe batch's hits in one
// build table and resumes where it stopped: it collects the candidate
// pairs that satisfy the residual, in probe order and chain order —
// the order of the row-at-a-time join.
type joinCursor struct {
	hit   int   // index in hits of the probe row whose chain is walked
	match int32 // next build row of that chain; -1 = take the next hit
	bsel  []RowRef
	psel  []int32 // the collected pairs: build row, physical probe row
	lays  []vecLayout
}

func (c *joinCursor) reset() { c.hit, c.match = -1, -1 }

// fill collects up to max pairs into bsel/psel; it reports false once
// every chain of h is walked.
func (c *joinCursor) fill(t *joinTable, cond *joinCond, pcb *ColBatch, h *probeHits, max int) bool {
	n := 0 // room for the build rows the chains left hold, up to max: not grown by doubling
	for k := c.hit + 1; k < len(h.heads) && n < max; k++ {
		for m := h.heads[k]; m >= 0 && n < max; m, n = t.next[m], n+1 {
		}
	}
	c.bsel, c.psel = slices.Grow(c.bsel[:0], n), slices.Grow(c.psel[:0], n)
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
		if cond == nil || cond.pair(0, t, m, pcb, i) {
			c.bsel = append(c.bsel, t.refs[m])
			c.psel = append(c.psel, i)
		}
	}
	return true
}

// gather lays the collected pairs out as the columns of an output
// batch: output column o of pair k is the cell out[o] names, of build
// row bsel[k] of t (input 0) or of probe row psel[k] of pcb (input 1)
// (layOut). cols receives the len(out) vectors.
func (c *joinCursor) gather(t *joinTable, pcb *ColBatch, out []cellAt, cols []ColVec) {
	c.lays = c.lays[:0]
	for _, s := range out {
		c.lays = append(c.lays, outLayout(t, pcb, s))
	}
	layOut(cols, c.lays, len(c.bsel))
	for o, s := range out {
		if s.in == 0 {
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
func outLayout(t *joinTable, pcb *ColBatch, s cellAt) vecLayout {
	if s.in == 0 {
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
func gatherRefs(batches []ColBatch, c int, refs []RowRef, dst *ColVec) {
	if dst.Ints != nil {
		for k, ref := range refs {
			if src := &batches[ref.Batch].Cols[c]; src.Nulls != nil && src.Nulls[ref.Row] {
				dst.Nulls[k] = true
			} else {
				dst.Ints[k] = src.Ints[ref.Row]
			}
		}
		return
	}
	for k, ref := range refs {
		src, i := &batches[ref.Batch].Cols[c], int(ref.Row)
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

// GatherRows lays the rows refs name out in cols, a vector per column of
// batches in the layout their vectors agree on (batchLayout), and
// returns them. Unlike layOut it reuses the payloads cols holds: the
// vectors are the caller's until it gathers into them again.
func GatherRows(cols []ColVec, batches []ColBatch, refs []RowRef) []ColVec {
	n, w := len(refs), len(batches[0].Cols)
	cols = slices.Grow(cols[:0], w)[:w]
	for c := range cols {
		l, v := batchLayout(batches, c), &cols[c]
		old := *v
		*v = ColVec{Kind: l.kind}
		if l.nulls {
			v.Nulls = slices.Grow(old.Nulls[:0], n)[:n]
			clear(v.Nulls)
		}
		switch l.payload() {
		case 0:
			v.Ints = slices.Grow(old.Ints[:0], n)[:n]
		case 1:
			v.Floats = slices.Grow(old.Floats[:0], n)[:n]
		case 2:
			v.Strs = slices.Grow(old.Strs[:0], n)[:n]
		case 3:
			v.Vals = slices.Grow(old.Vals[:0], n)[:n]
			clear(v.Vals)
		}
		gatherRefs(batches, c, refs, v)
	}
	return cols
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

// SemiJoinIter emits left rows that have at least one match on the
// right under pairs + residual. Used by U-relation reduction
// (Proposition 3.3). It shares the joinTable, the probe and the
// condition evaluator of HashJoinIter: the right side is built into the
// table (with no key columns, every right row lands on one chain,
// covering the keyless cross-check case), left batches are narrowed
// against it from their vectors and each hit's chain is walked until the
// residual holds. It hands its left input the list of the build keys,
// as the hash join does, and forwards keys handed to it to L. It
// hands over each left batch narrowed to a selection of its surviving
// rows.
type SemiJoinIter struct {
	L, R     Iterator
	Pairs    []EquiPair
	Residual Expr

	shape *joinShape
	table *joinTable
	hits  probeHits
	keep  []int32  // physical ids of the current batch's surviving rows
	cb    ColBatch // reused output batch header

	keysHanded int64 // OperatorStats
}

// NewSemiJoin builds a semi join.
func NewSemiJoin(l, r Iterator, pairs []EquiPair, residual Expr) *SemiJoinIter {
	return &SemiJoinIter{L: l, R: r, Pairs: pairs, Residual: residual}
}

func (j *SemiJoinIter) Open() error {
	if err := j.L.Open(); err != nil {
		return err
	}
	if err := j.R.Open(); err != nil {
		return err
	}
	var err error
	if j.shape, err = newJoinShape("semi join", []Schema{j.L.Schema(), j.R.Schema()}, j.Pairs, j.Residual, nil); err != nil {
		return err
	}
	// Build phase on the right input. With no equi pairs the key is
	// empty, so all right rows share one chain and every left row
	// probes the full right side, as the keyless semantics require.
	if j.table, err = buildJoinTable(j.R, j.shape.ridx); err != nil {
		return err
	}
	j.keysHanded = int64(narrowProbeInput(j.L, j.shape.lidx, j.table))
	return nil
}

// matched reports whether probe row i of cb, whose chain starts at
// head, has a build row the residual holds on.
func (j *SemiJoinIter) matched(head int32, cb *ColBatch, i int32) bool {
	t, cond := j.table, j.shape.cond
	for m := head; m >= 0; m = t.next[m] {
		if cond == nil || cond.pair(1, t, m, cb, i) {
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
		keep := j.keep[:0]
		for k := range h.sel {
			if j.matched(h.heads[k], cb, h.sel[k]) {
				keep = append(keep, h.sel[k])
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

// NarrowKeys (KeyNarrower) forwards keys to L, whose rows the semi join
// passes through.
func (j *SemiJoinIter) NarrowKeys(col int, keys Keys) { narrowInput(j.L, col, keys) }

// OperatorStats reports how many keys the semi join handed L (0: none).
func (j *SemiJoinIter) OperatorStats(emit func(key string, v int64)) {
	emit("keys_handed", j.keysHanded)
}
