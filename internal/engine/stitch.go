package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// StitchPlan puts the vertical partitions of one relation back
// together: the merge of the paper's Figure 4, which its Figure 13
// plans as a merge join on the tuple id with ψ as the join filter. Its
// inputs deliver their rows in tuple-id order — an in-memory image is
// encoded in it, a store scan merges its runs by it (an index probe
// only narrows them). TIDs names each input's tuple-id column; Cond, ψ over the
// inputs' descriptor columns, is evaluated on each combination of rows
// sharing a tuple id. Driver is the input the stitch reads first, whose
// tuple ids it looks up in the other inputs or whose tuple-id range it
// hands them (StitchIter): Optimize makes it the input it estimates
// smallest. Out is JoinPlan's. Its estimate is that of the
// tree of binary joins on α ∧ ψ it replaces, as the join orderer
// (joinOrderer) would lay it out.
type StitchPlan struct {
	Inputs []Plan
	TIDs   []string
	Cond   Expr
	Driver int
	Out    []string

	d joinDerived
}

// Stitch builds the merge of inputs on their tuple-id columns tids,
// under cond.
func Stitch(inputs []Plan, tids []string, cond Expr) *StitchPlan {
	return &StitchPlan{Inputs: inputs, TIDs: tids, Cond: cond}
}

// derive works out the concatenated row of the inputs and the schema
// the stitch emits through Out, on the first call.
func (p *StitchPlan) derive(cat *Catalog) *joinDerived {
	d := &p.d
	d.once.Do(func() {
		n := 0
		for _, in := range p.Inputs {
			sch, err := in.Schema(cat)
			if err != nil {
				d.inErr, d.err = err, err
				return
			}
			n += sch.Len()
		}
		d.full.Cols = make([]Column, 0, n)
		for _, in := range p.Inputs {
			sch, _ := in.Schema(cat)
			d.full.Cols = append(d.full.Cols, sch.Cols...)
		}
		d.sch, d.pick, d.err = bindOut(d.full, p.Out)
	})
	return d
}

func (p *StitchPlan) Schema(cat *Catalog) (Schema, error) {
	d := p.derive(cat)
	return d.sch, d.err
}

func (p *StitchPlan) Children() []Plan { return p.Inputs }
func (p *StitchPlan) WithChildren(ch []Plan) Plan {
	return &StitchPlan{Inputs: ch, TIDs: p.TIDs, Cond: p.Cond, Driver: p.Driver, Out: p.Out}
}
func (p *StitchPlan) Label() string { return "Merge Join on tid (driver " + p.TIDs[p.Driver] + ")" }

// StitchIter is the physical stitch. It finds a tuple id's rows in the
// inputs one of two ways, picked at Open.
//
// By position, when every input but the driver answers lookups on its
// tuple-id column (RowLookup: an in-memory image with Positions, under
// filters and projections). It streams the driver a batch at a time,
// leaving out the rows a key list handed down on its columns drops, and
// asks the other inputs in turn (one handed a key list first) for the
// rows of the tuple ids it kept, each for the ids the one before found;
// they come back as selections
// over the inputs' own vectors, and no input is scanned or handed a
// range. A combination is kept as one row per input, and each output
// column is gathered once per driver batch (or DefaultBatchSize rows).
//
// By galloping merge otherwise (a stored input). It drains the driver
// first and hands every other input the tuple-id range of the rows it
// kept (a store scan then skips the segments and rows outside it). Then
// it walks the inputs side by side as Leapfrog Triejoin does
// (Veldhuizen, arXiv 1210.0481): each is advanced by galloping search
// to the greatest tuple id any of them stands on, until all stand on
// one. Payloads are immutable (Iterator), so an input's batches are held
// by their headers until the rows pointing into them are gathered; an
// output batch ends with the tuple id that fills it to DefaultBatchSize
// rows.
//
// Either way the rows of a tuple id — its alternatives — are combined
// across the inputs, ψ compared on the int cells in place by the
// condition evaluator the hash join uses (joinCond), and each output
// column is gathered from the input that owns it. An input whose tuple
// ids are not ascending ints is an error.
type StitchIter struct {
	Ins    []Iterator
	TIDs   []string
	Cond   Expr
	Driver int

	outCols []string
	shape   *joinShape
	ins     []stitchIn // per input, its cursor
	pick    []int      // per input, the row of its group in the combination
	keep    []ColKeys  // keys handed down on the driver's columns
	kept    []int32    // reused selection of the driver rows keep lets through
	pending int        // combinations not yet gathered
	started bool
	done    bool
	byPos   bool     // every input but the driver answers lookups
	order   []int    // by position, the other inputs in the order asked
	cols    []ColVec // reused output batch header
	lays    []vecLayout
	cb      ColBatch

	driverRows, galloped, lookedUp, cellsGathered int64 // OperatorStats
}

// stitchIn is the cursor over one input: the batches rows still point
// into (held, their headers copied), the current one held[b] — its
// tuple ids, selection and live rows — and the live position in it.
type stitchIn struct {
	it     Iterator
	tid    int
	held   []ColBatch
	b, pos int
	tids   []int64
	sel    []int32
	n      int
	fixed  bool     // held is the whole (drained) input
	eof    bool     // no row is left
	last   int64    // the greatest tuple id handed over
	refs   []rowRef // per pending combination, its row of this input
	grp    []rowRef // the rows of the tuple id being combined

	// By position: the input's lookup, its current batch (what the
	// lookup found, the driver's pulled batch) whose selection sel is,
	// the rows of the tuple id being combined and, per pending
	// combination, its row of the batch.
	find      func([]int64, []int32) *ColBatch
	cur       *ColBatch
	run, rows []int32
}

// NewStitch builds the stitch of ins on their tuple-id columns tids;
// out is NewHashJoin's.
func NewStitch(ins []Iterator, tids []string, cond Expr, driver int, out []string) *StitchIter {
	return &StitchIter{Ins: ins, TIDs: tids, Cond: cond, Driver: driver, outCols: out}
}

func (s *StitchIter) Open() error {
	s.ins = make([]stitchIn, len(s.Ins))
	schs := make([]Schema, len(s.Ins))
	for i, it := range s.Ins {
		if err := it.Open(); err != nil {
			return err
		}
		schs[i] = it.Schema()
		if s.ins[i] = (stitchIn{it: it, tid: schs[i].IndexOf(s.TIDs[i]), last: math.MinInt64}); s.ins[i].tid < 0 {
			return fmt.Errorf("engine: stitch: no tuple-id column %q in %v", s.TIDs[i], schs[i].Names())
		}
	}
	var err error
	if s.shape, err = newJoinShape("stitch", schs, nil, s.Cond, s.outCols); err != nil {
		return err
	}
	n := len(s.shape.out)
	s.pick, s.cols, s.lays = make([]int, len(s.Ins)), make([]ColVec, n), make([]vecLayout, n)
	s.keep, s.pending, s.started, s.done, s.byPos = nil, 0, false, false, true
	s.driverRows, s.galloped, s.lookedUp, s.cellsGathered = 0, 0, 0, 0
	s.order = s.order[:0]
	for i := range s.ins {
		if in := &s.ins[i]; i != s.Driver {
			in.find = lookupOf(in.it, in.tid, nil)
			s.byPos, s.order = s.byPos && in.find != nil, append(s.order, i)
		}
	}
	return nil
}

// Next combines tuple ids until DefaultBatchSize rows are pending, and
// gathers them. The first call of the galloping merge drains the
// driver.
func (s *StitchIter) Next() (*ColBatch, bool, error) {
	if s.byPos {
		return s.nextByPos()
	}
	if !s.started {
		if err := s.start(); err != nil {
			return nil, false, err
		}
	}
	for !s.done && s.pending < DefaultBatchSize {
		t, ok, err := s.leap()
		if err != nil {
			return nil, false, err
		}
		if s.done = !ok; s.done {
			break
		}
		for i := range s.ins {
			if err := s.group(i, t); err != nil {
				return nil, false, err
			}
		}
		s.combine(0)
		for i := range s.ins {
			s.ins[i].grp = s.ins[i].grp[:0]
		}
	}
	if s.pending == 0 {
		return nil, false, nil
	}
	s.gather()
	return &s.cb, true, nil
}

// nextByPos is Next by position: it combines the driver's kept rows, a
// tuple id at a time, with the rows the other inputs found of it, until
// DefaultBatchSize rows are pending or the driver batch is used up.
func (s *StitchIter) nextByPos() (*ColBatch, bool, error) {
	s.started = true
	d := &s.ins[s.Driver]
	for !s.done && s.pending < DefaultBatchSize && (d.pos < d.n || s.pending == 0) {
		if d.pos == d.n {
			ok, err := s.lookUp()
			if s.done = !ok; err != nil {
				return nil, false, err
			}
			continue
		}
		t := d.tidAt(d.pos)
		for i := range s.ins {
			in := &s.ins[i]
			for in.pos < in.n && in.tidAt(in.pos) < t {
				in.pos++
			}
			lo := in.pos
			for in.pos < in.n && in.tidAt(in.pos) == t {
				in.pos++
			}
			in.run = in.sel[lo:in.pos]
		}
		s.combineRows(0)
	}
	if s.pending == 0 {
		return nil, false, nil
	}
	out := s.shape.out
	for o, c := range out {
		s.lays[o] = layoutOf(&s.ins[c.in].cur.Cols[c.col])
	}
	layOut(s.cols, s.lays, s.pending)
	for o, c := range out {
		in := &s.ins[c.in]
		gatherCol(&in.cur.Cols[c.col], in.rows, &s.cols[o])
	}
	for i := range s.ins {
		s.ins[i].rows = s.ins[i].rows[:0]
	}
	return s.emit(), true, nil
}

// rowIDs are the rows 0 … DefaultBatchSize−1: the selection of every
// row of a batch no longer.
var rowIDs = func() []int32 {
	ids := make([]int32, DefaultBatchSize)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}()

// lookUp makes the driver's next batch with a row keep lets through its
// current one, and asks the other inputs in turn (order) for the rows of
// its tuple ids, each for the ids the one before found, which become
// their current batches; a batch some input finds none of is passed
// over. It reports false at the end of the driver.
func (s *StitchIter) lookUp() (bool, error) {
	d := &s.ins[s.Driver]
batches:
	for {
		cb, ok, err := d.it.Next()
		if err != nil || !ok {
			return false, err
		}
		s.driverRows += int64(cb.Rows())
		if err := s.ascending(s.Driver, cb); err != nil {
			return false, err
		}
		sel, _ := SelectKeyed(s.keep, cb.Cols, cb.N, cb.Sel, &s.kept)
		if sel == nil && cb.N <= DefaultBatchSize {
			sel = rowIDs[:cb.N]
		} else if sel == nil {
			for sel = s.kept[:0]; len(sel) < cb.N; {
				sel = append(sel, int32(len(sel)))
			}
			s.kept = sel
		}
		prev := d
		prev.found(cb, sel)
		for _, i := range s.order {
			in := &s.ins[i]
			f := in.find(prev.tids, prev.sel)
			if f == nil {
				continue batches
			}
			in.found(f, f.Sel)
			s.lookedUp += int64(in.n)
			prev = in
		}
		for i := range s.ins { // room for about the combinations the batch makes
			if in := &s.ins[i]; cap(in.rows) < prev.n {
				in.rows = make([]int32, 0, prev.n)
			}
		}
		return true, nil
	}
}

// found makes cb, whose live rows are sel, input in's current batch by
// position.
func (in *stitchIn) found(cb *ColBatch, sel []int32) {
	in.cur, in.tids, in.sel, in.n, in.pos = cb, cb.Cols[in.tid].Ints, sel, len(sel), 0
}

// combineRows is combine by position: it extends the combination
// picked for inputs [0, d) by each row of input d's run on which the
// conjuncts filed under d hold.
func (s *StitchIter) combineRows(d int) {
	if d == len(s.ins) {
		for i := range s.ins {
			in := &s.ins[i]
			in.rows = append(in.rows, in.run[s.pick[i]])
		}
		s.pending++
		return
	}
	in, cond := &s.ins[d], s.shape.cond
	for j, r := range in.run {
		s.pick[d] = j
		if cond != nil {
			if cond.set(d, in.cur.Cols, int(r)); !cond.holds(d) {
				continue
			}
		}
		s.combineRows(d + 1)
	}
}

// emit makes the gathered columns the output batch.
func (s *StitchIter) emit() *ColBatch {
	s.cellsGathered += int64(s.pending * len(s.shape.out))
	s.cb, s.pending = ColBatch{Sch: s.shape.sch, Cols: s.cols, N: s.pending}, 0
	return &s.cb
}

// start drains the driver and hands the other inputs its tuple-id range;
// an empty driver ends the stream without reading them.
func (s *StitchIter) start() error {
	s.started = true
	d := &s.ins[s.Driver]
	for {
		ok, err := s.pull(s.Driver)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if d.fixed, s.done = true, len(d.held) == 0; s.done {
		return nil
	}
	d.current(0)
	lo := d.tidAt(0)
	for i := range s.ins {
		if in := &s.ins[i]; i != s.Driver {
			narrowInput(in.it, in.tid, Keys{Lo: lo, Hi: d.last})
			if _, err := s.advance(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// pull holds the header of input i's next batch — the driver's narrowed
// to the rows the keys in keep let through, and not held when none is —
// after checking that its tuple ids are ints ascending from the
// last one handed over. It reports false at the end of the input.
func (s *StitchIter) pull(i int) (bool, error) {
	in := &s.ins[i]
	cb, ok, err := in.it.Next()
	if err != nil || !ok {
		return false, err
	}
	if i == s.Driver {
		s.driverRows += int64(cb.Rows())
		if sel, dropped := SelectKeyed(s.keep, cb.Cols, cb.N, cb.Sel, &s.kept); dropped > 0 {
			if len(sel) == 0 {
				return true, nil
			}
			cb = &ColBatch{Sch: cb.Sch, Cols: cb.Cols, N: cb.N, Sel: sel}
		}
	}
	if err := s.ascending(i, cb); err != nil {
		return false, err
	}
	n := len(in.held)
	in.held = slices.Grow(in.held, 1)[:n+1] // a slot let go of keeps its buffers
	h := &in.held[n]
	sel := append(h.Sel[:0], cb.Sel...)
	if cb.Sel == nil {
		sel = nil
	}
	*h = ColBatch{Sch: cb.Sch, Cols: append(h.Cols[:0], cb.Cols...), N: cb.N, Sel: sel}
	return true, nil
}

// ascending checks that input i's live rows of cb hold int tuple ids
// that ascend from the last one handed over.
func (s *StitchIter) ascending(i int, cb *ColBatch) error {
	in := &s.ins[i]
	v := &cb.Cols[in.tid]
	if v.Vals != nil || v.Kind != KindInt {
		return fmt.Errorf("engine: stitch: input %d: tuple ids of kind %v", i, v.Kind)
	}
	for k, n := 0, cb.Rows(); k < n; k++ {
		r := cb.RowID(k)
		if v.Nulls != nil && v.Nulls[r] || v.Ints[r] < in.last {
			return fmt.Errorf("engine: stitch: input %d is not in tuple-id order (%v after %d)", i, v.Value(r), in.last)
		}
		in.last = v.Ints[r]
	}
	return nil
}

// advance makes input i's next batch current, pulling it unless the
// input is held whole — and, when no pending or grouped row points into
// the held batches, letting go of them first. It reports false at the
// end of the input.
func (s *StitchIter) advance(i int) (bool, error) {
	in := &s.ins[i]
	if in.b+1 < len(in.held) {
		in.current(in.b + 1)
		return true, nil
	}
	if !in.fixed {
		if s.pending == 0 && len(in.grp) == 0 {
			in.held = in.held[:0]
		}
		ok, err := s.pull(i)
		if ok {
			in.current(len(in.held) - 1)
		}
		if err != nil || ok {
			return ok, err
		}
	}
	in.eof = true
	return false, nil
}

// current makes held[b] the current batch, from its first row.
func (in *stitchIn) current(b int) {
	cb := &in.held[b]
	in.b, in.pos, in.tids, in.sel, in.n = b, 0, cb.Cols[in.tid].Ints, cb.Sel, cb.Rows()
}

// tidAt is the tuple id of live row k of the current batch.
func (in *stitchIn) tidAt(k int) int64 {
	if in.sel != nil {
		return in.tids[in.sel[k]]
	}
	return in.tids[k]
}

// leap advances the inputs in turn to the greatest tuple id one of them
// stands on until all stand on one, and returns it; ok=false once an
// input is exhausted.
func (s *StitchIter) leap() (int64, bool, error) {
	t := int64(math.MinInt64)
	for i, agree := 0, 0; agree < len(s.ins); i = (i + 1) % len(s.ins) {
		ti, ok, err := s.seek(i, t)
		if err != nil || !ok {
			return 0, false, err
		}
		if ti == t && agree > 0 {
			agree++
		} else {
			t, agree = ti, 1
		}
	}
	return t, true, nil
}

// seek moves input i to its first row with a tuple id ≥ t — by
// galloping search, a batch whose last tuple id is below t skipped
// whole — and returns that tuple id. Rows passed over count as galloped.
func (s *StitchIter) seek(i int, t int64) (int64, bool, error) {
	in := &s.ins[i]
	for !in.eof {
		if in.pos < in.n && in.tidAt(in.pos) >= t {
			return in.tidAt(in.pos), true, nil
		}
		if in.pos < in.n && in.tidAt(in.n-1) >= t {
			lo, step := in.pos, 1
			for lo+step < in.n && in.tidAt(lo+step) < t {
				lo, step = lo+step, 2*step
			}
			k := lo + 1 + sort.Search(min(lo+step, in.n-1)-lo, func(j int) bool { return in.tidAt(lo+1+j) >= t })
			s.galloped, in.pos = s.galloped+int64(k-in.pos), k
			return in.tidAt(k), true, nil
		}
		s.galloped, in.pos = s.galloped+int64(in.n-in.pos), in.n
		if _, err := s.advance(i); err != nil {
			return 0, false, err
		}
	}
	return 0, false, nil
}

// group collects input i's rows of tuple id t, on which it stands,
// pulling the batches they straddle.
func (s *StitchIter) group(i int, t int64) error {
	in := &s.ins[i]
	for {
		for ; in.pos < in.n && in.tidAt(in.pos) == t; in.pos++ {
			r := int32(in.pos)
			if in.sel != nil {
				r = in.sel[r]
			}
			in.grp = append(in.grp, rowRef{batch: int32(in.b), row: r})
		}
		if in.pos < in.n {
			return nil
		}
		if ok, err := s.advance(i); !ok || err != nil {
			return err
		}
	}
}

// combine extends the combination picked for inputs [0, d) by each row
// of input d's group on which the conjuncts of the condition filed under
// d hold (joinCond); a combination of every input is pending output.
func (s *StitchIter) combine(d int) {
	if d == len(s.ins) {
		if s.pending == cap(s.ins[0].refs) {
			s.growRefs()
		}
		for i := range s.ins {
			in := &s.ins[i]
			in.refs = append(in.refs, in.grp[s.pick[i]])
		}
		s.pending++
		return
	}
	in, cond := &s.ins[d], s.shape.cond
	for j, r := range in.grp {
		s.pick[d] = j
		if cond != nil {
			if cond.set(d, in.held[r.batch].Cols, int(r.row)); !cond.holds(d) {
				continue
			}
		}
		s.combine(d + 1)
	}
}

// growRefs moves the pending combinations' refs to an arena with room
// for four times as many — at least 16, and no more than a batch until
// a tuple id's combinations spill past one — cut into one slice per
// input. The arena is kept across batches, so it grows with the most
// combinations one batch holds, not with the driver's rows.
func (s *StitchIter) growRefs() {
	n := max(16, 4*s.pending)
	if s.pending < DefaultBatchSize {
		n = min(n, DefaultBatchSize)
	}
	arena := make([]rowRef, len(s.ins)*n)
	for i := range s.ins {
		in := &s.ins[i]
		in.refs = append(arena[i*n:i*n:(i+1)*n], in.refs...)
	}
}

// gather lays the pending combinations out as the output batch, each
// column read from the held batches of the input that owns it, and lets
// go of the batches before the current ones.
func (s *StitchIter) gather() {
	out := s.shape.out
	for o, c := range out {
		in := &s.ins[c.in]
		s.lays[o] = batchLayout(in.held[:in.b+1], c.col)
	}
	layOut(s.cols, s.lays, s.pending)
	for o, c := range out {
		gatherRefs(s.ins[c.in].held, c.col, s.ins[c.in].refs, &s.cols[o])
	}
	s.emit()
	for i := range s.ins {
		in := &s.ins[i]
		if in.refs = in.refs[:0]; in.b == 0 {
			continue
		}
		if in.fixed {
			in.held = in.held[in.b:]
		} else { // the current batch is the last
			in.held[0], in.held[in.b] = in.held[in.b], in.held[0]
			in.held = in.held[:1]
		}
		pos := in.pos
		in.current(0)
		in.pos = pos
	}
}

// NarrowKeys (KeyNarrower) forwards keys on a tuple-id column to every
// input — by position to the driver alone, whose tuple ids are all the
// others are asked for — and on any other column to the input it is
// read from; a list on the driver's columns also drops, as the driver is
// read, its rows whose key the list leaves out; by position, an input
// handed a list is asked first. Keys handed later are ignored.
func (s *StitchIter) NarrowKeys(col int, keys Keys) {
	if s.started || s.shape == nil {
		return
	}
	c := s.shape.out[col]
	if c.col != s.ins[c.in].tid {
		narrowInput(s.ins[c.in].it, c.col, keys)
		if k := slices.Index(s.order, c.in); c.in == s.Driver {
			s.keep = append(s.keep, ColKeys{Col: c.col, Keys: keys})
		} else if keys.List != nil { // its lookups find fewer: ask it first
			copy(s.order[1:k+1], s.order[:k])
			s.order[0] = c.in
		}
		return
	}
	for i := range s.ins {
		if i == s.Driver || !s.byPos {
			narrowInput(s.ins[i].it, s.ins[i].tid, keys)
		}
	}
	s.keep = append(s.keep, ColKeys{Col: s.ins[s.Driver].tid, Keys: keys})
}

// OperatorStats reports the rows read from the driver, the rows the
// galloping search passed over (their tuple id is missing from some
// input), the rows the other inputs found by position and the cells
// gathered into the output.
func (s *StitchIter) OperatorStats(emit func(key string, v int64)) {
	emit("driver_rows", s.driverRows)
	emit("rows_galloped", s.galloped)
	emit("rows_looked_up", s.lookedUp)
	emit("cells_gathered", s.cellsGathered)
}

func (s *StitchIter) Close() error {
	var first error
	for _, it := range s.Ins {
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.ins, s.cb = nil, ColBatch{}
	return first
}

func (s *StitchIter) Schema() Schema {
	if s.shape != nil {
		return s.shape.sch
	}
	var full Schema
	for _, it := range s.Ins {
		full.Cols = append(full.Cols, it.Schema().Cols...)
	}
	return joinSchema(full, Schema{}, s.outCols)
}
