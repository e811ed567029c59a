package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// StitchPlan puts the vertical partitions of one relation back
// together: the merge of the paper's Figure 4, which its Figure 13
// plans as a merge join on the tuple id with ψ as the join filter. Its
// inputs hold their rows in tuple-id order — an in-memory image is
// encoded in it, a store scan merges its runs by it (an index probe
// only narrows them). TIDs names each input's tuple-id column; Cond, ψ
// over the inputs' descriptor columns, is evaluated on each combination
// of rows sharing a tuple id. Driver is the input the stitch reads,
// whose tuple ids it looks up in the other inputs (StitchIter):
// Optimize makes it the input it estimates smallest, and keeps each
// input's estimated rows in Est, which the stitch orders its inputs by
// at run time. Out is JoinPlan's. Its estimate is that of the tree of
// binary joins on α ∧ ψ it replaces, as the join orderer (joinOrderer)
// would lay it out.
type StitchPlan struct {
	Inputs []Plan
	TIDs   []string
	Cond   Expr
	Driver int
	Out    []string
	Est    []float64 // nil in a plan Optimize did not order

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
	return &StitchPlan{Inputs: ch, TIDs: p.TIDs, Cond: p.Cond, Driver: p.Driver, Out: p.Out, Est: p.Est}
}
func (p *StitchPlan) Label() string { return "Merge Join on tid (driver " + p.TIDs[p.Driver] + ")" }

// StitchIter is the physical stitch. It streams its driver a batch at
// a time and asks the other inputs in turn — keyed, then filtered by
// their estimated rows (Est), then the rest — for the rows of the tuple
// ids it read, each for the ids the one before found (RowLookup), as
// selections over their own vectors. The driver is the plan's unless,
// at the first pull, an in-memory scan's key list finds fewer rows in
// a value-order run than the plan's driver is estimated to serve: the
// one that finds fewest drives, and the plan's is looked up. The rows
// of a tuple id — its alternatives — are combined across the inputs, ψ
// compared on the int cells in place by the hash join's condition
// evaluator (joinCond), a combination kept as one row per input, and
// each output column is gathered once per driver batch (or
// DefaultBatchSize rows), from the input that owns it. An input other
// than the driver that cannot look rows up, and a driver whose tuple
// ids are not ascending ints, are errors.
type StitchIter struct {
	Ins    []Iterator
	TIDs   []string
	Cond   Expr
	Driver int
	Est    []float64 // per input, its estimated rows; nil when unplanned

	outCols []string
	shape   *joinShape
	ins     []stitchIn // per input, its cursor
	pick    []int      // per input, the row of its run in the combination
	drv     int        // the input driving
	kept    []int32    // reused selection of a whole driver batch
	last    int64      // the greatest tuple id the driver handed over
	pending int        // combinations not yet gathered
	started bool
	done    bool
	byKeys  bool     // the driver serves the rows its key list finds
	order   []int    // the other inputs in the order asked
	cols    []ColVec // reused output batch header
	lays    []vecLayout
	cb      ColBatch

	driverRows, lookedUp, cellsGathered int64 // OperatorStats
}

// stitchIn is the cursor over one input: its lookup (unused while it
// drives), its current batch — what the lookup found, the driver's
// pulled batch — whose live rows sel are, the live position in it, the
// rows of the tuple id being combined and, per pending combination, its
// row of the batch.
type stitchIn struct {
	it        Iterator
	tid       int
	find      func([]int64, []int32) (*ColBatch, error)
	rank      float64 // where it is asked: -1 keyed, its Est when filtered, else +Inf
	cur       *ColBatch
	tids      []int64
	sel       []int32
	n, pos    int
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
		_, filtered := scanOf(it)
		if s.ins[i] = (stitchIn{it: it, tid: schs[i].IndexOf(s.TIDs[i]), rank: math.Inf(1)}); s.ins[i].tid < 0 {
			return fmt.Errorf("engine: stitch: no tuple-id column %q in %v", s.TIDs[i], schs[i].Names())
		}
		if filtered && s.Est != nil {
			s.ins[i].rank = s.Est[i]
		}
	}
	var err error
	if s.shape, err = newJoinShape("stitch", schs, nil, s.Cond, s.outCols); err != nil {
		return err
	}
	n := len(s.shape.out)
	s.pick, s.cols, s.lays = make([]int, len(s.Ins)), make([]ColVec, n), make([]vecLayout, n)
	s.drv, s.byKeys, s.last, s.pending, s.started, s.done = s.Driver, false, math.MinInt64, 0, false, false
	s.driverRows, s.lookedUp, s.cellsGathered = 0, 0, 0
	for i := range s.ins {
		if in := &s.ins[i]; i != s.Driver {
			if in.find = lookupOf(in.it, in.tid, nil); in.find == nil {
				return fmt.Errorf("engine: stitch: input %d cannot look rows up by its tuple ids %q", i, s.TIDs[i])
			}
		}
	}
	return nil
}

// settle, at the first pull, picks the driver — the input whose key
// list finds fewest rows, when they are fewer than the plan's driver is
// estimated to serve (or finds) and that one can be looked up — and the
// order the others are asked in.
func (s *StitchIter) settle() {
	found, best := s.pick, -1 // pick is free until the first combination
	for i := range s.ins {
		found[i] = -1
		if sc, _ := scanOf(s.ins[i].it); sc != nil {
			found[i] = sc.settle()
		}
		if found[i] >= 0 && (best < 0 || found[i] < found[best]) {
			best = i
		}
	}
	if d := &s.ins[s.drv]; best >= 0 && best != s.drv && (found[s.drv] >= 0 || s.Est != nil && float64(found[best]) < s.Est[s.drv]) {
		if d.find = lookupOf(d.it, d.tid, nil); d.find != nil {
			s.drv = best
		}
	}
	s.byKeys, s.order = found[s.drv] >= 0, s.order[:0]
	for i := range s.ins {
		if i != s.drv {
			s.order = append(s.order, i)
		}
	}
	slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(s.ins[a].rank, s.ins[b].rank) })
}

// scanOf is the in-memory scan under it's filters, projections and
// traces, nil when there is none, and whether a filter narrows it.
func scanOf(it Iterator) (scan *colScanIter, filtered bool) {
	for {
		switch n := it.(type) {
		case *colScanIter:
			return n, filtered
		case *FilterIter:
			it, filtered = n.In, true
		case *traceIter:
			it = n.in
		case *ProjectIter:
			it = n.In
		default:
			return nil, filtered
		}
	}
}

// Next combines the driver's kept rows, a tuple id at a time, with the
// rows the other inputs found of it, until DefaultBatchSize rows are
// pending or the driver batch is used up, and gathers them.
func (s *StitchIter) Next() (*ColBatch, bool, error) {
	if !s.started {
		s.started = true
		s.settle()
	}
	d := &s.ins[s.drv]
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
		s.combine(0)
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
	s.cellsGathered += int64(s.pending * len(out))
	s.cb, s.pending = ColBatch{Sch: s.shape.sch, Cols: s.cols, N: s.pending}, 0
	return &s.cb, true, nil
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

// lookUp makes the driver's next batch its current one, and asks the
// other inputs in turn (order) for the rows of its tuple ids, each for
// the ids the one before found, which become their current batches; a
// batch some input finds none of is passed over. It reports false at
// the end of the driver.
func (s *StitchIter) lookUp() (bool, error) {
	d := &s.ins[s.drv]
batches:
	for {
		cb, ok, err := d.it.Next()
		if err != nil || !ok {
			return false, err
		}
		s.driverRows += int64(cb.Rows())
		if err := s.ascending(cb); err != nil {
			return false, err
		}
		sel := cb.Sel
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
			f, err := in.find(prev.tids, prev.sel)
			if err != nil {
				return false, err
			}
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

// ascending checks that the driver's live rows of cb hold int tuple ids
// that ascend from the last one it handed over.
func (s *StitchIter) ascending(cb *ColBatch) error {
	v := &cb.Cols[s.ins[s.drv].tid]
	if v.Vals != nil || v.Kind != KindInt {
		return fmt.Errorf("engine: stitch: input %d: tuple ids of kind %v", s.drv, v.Kind)
	}
	for k, n := 0, cb.Rows(); k < n; k++ {
		r := cb.RowID(k)
		if v.Nulls != nil && v.Nulls[r] || v.Ints[r] < s.last {
			return fmt.Errorf("engine: stitch: input %d is not in tuple-id order (%v after %d)", s.drv, v.Value(r), s.last)
		}
		s.last = v.Ints[r]
	}
	return nil
}

// found makes cb, whose live rows are sel, input in's current batch.
func (in *stitchIn) found(cb *ColBatch, sel []int32) {
	in.cur, in.tids, in.sel, in.n, in.pos = cb, cb.Cols[in.tid].Ints, sel, len(sel), 0
}

// tidAt is the tuple id of live row k of the current batch.
func (in *stitchIn) tidAt(k int) int64 { return in.tids[in.sel[k]] }

// combine extends the combination picked for inputs [0, d) by each row
// of input d's run on which the conjuncts of the condition filed under d
// hold (joinCond); a combination of every input is pending output.
func (s *StitchIter) combine(d int) {
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
		s.combine(d + 1)
	}
}

// NarrowKeys (KeyNarrower) forwards keys on a tuple-id column to the
// plan's driver alone, whose tuple ids are all the others are asked for,
// and keys on any other column to the input it is read from, which a
// list marks keyed. Keys handed later are ignored.
func (s *StitchIter) NarrowKeys(col int, keys Keys) {
	if s.started || s.shape == nil {
		return
	}
	c := s.shape.out[col]
	if c.col == s.ins[c.in].tid {
		c.in, c.col = s.Driver, s.ins[s.Driver].tid
	} else if keys.List != nil {
		s.ins[c.in].rank = -1
	}
	narrowInput(s.ins[c.in].it, c.col, keys)
}

// OperatorStats reports the rows read from the driver, the rows the
// other inputs found and the cells gathered into the output, and
// driven_by_keys when the driver served the rows its key list found.
func (s *StitchIter) OperatorStats(emit func(key string, v int64)) {
	emit("driver_rows", s.driverRows)
	emit("rows_looked_up", s.lookedUp)
	emit("cells_gathered", s.cellsGathered)
	if s.byKeys {
		emit("driven_by_keys", 1)
	}
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
