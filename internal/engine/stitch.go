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
// sharing a tuple id. Driver is the input drained first, whose tuple-id
// range every other input is handed: Optimize makes it the input it
// estimates smallest. Out is JoinPlan's. Its estimate is that of the
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

// StitchIter is the physical stitch. It drains the driver first, leaving
// out the rows a key list handed down on its columns drops, and hands every
// other input the tuple-id range of the rows it kept (a store scan then
// skips the segments and rows outside it). Then it walks the inputs side
// by side as Leapfrog Triejoin does (Veldhuizen, arXiv 1210.0481): each
// is advanced by galloping search to the greatest tuple id any of them
// stands on, until all stand on one. The rows of that tuple id — its
// alternatives, however many batches they straddle — are combined
// across the inputs, ψ compared on the int cells in place by the
// condition evaluator the hash join uses (joinCond), and each output
// column is gathered once, from the input that owns it. Payloads are immutable (Iterator), so an input's batches are
// held by their headers until the rows pointing into them are gathered;
// an output batch ends with the tuple id that fills it to
// DefaultBatchSize rows. An input whose tuple ids are not ascending ints
// is an error.
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
	cols    []ColVec // reused output batch header
	lays    []vecLayout
	cb      ColBatch

	driverRows, galloped, cellsGathered int64 // OperatorStats
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
	s.keep, s.pending, s.started, s.done = nil, 0, false, false
	s.driverRows, s.galloped, s.cellsGathered = 0, 0, 0
	return nil
}

// Next combines tuple ids until DefaultBatchSize rows are pending, and
// gathers them. The first call drains the driver.
func (s *StitchIter) Next() (*ColBatch, bool, error) {
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
	v := &cb.Cols[in.tid]
	if v.Vals != nil || v.Kind != KindInt {
		return false, fmt.Errorf("engine: stitch: input %d: tuple ids of kind %v", i, v.Kind)
	}
	for k, n := 0, cb.Rows(); k < n; k++ {
		r := cb.RowID(k)
		if v.Nulls != nil && v.Nulls[r] || v.Ints[r] < in.last {
			return false, fmt.Errorf("engine: stitch: input %d is not in tuple-id order (%v after %d)", i, v.Value(r), in.last)
		}
		in.last = v.Ints[r]
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
	s.cellsGathered += int64(s.pending * len(out))
	s.cb, s.pending = ColBatch{Sch: s.shape.sch, Cols: s.cols, N: s.pending}, 0
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
// input, and on any other column to the input it is read from; a list
// on the driver's columns also drops, as the driver is drained, its rows
// whose key the list leaves out. Keys handed later are ignored.
func (s *StitchIter) NarrowKeys(col int, keys Keys) {
	if s.started || s.shape == nil {
		return
	}
	c := s.shape.out[col]
	if c.col != s.ins[c.in].tid {
		narrowInput(s.ins[c.in].it, c.col, keys)
		if c.in == s.Driver {
			s.keep = append(s.keep, ColKeys{Col: c.col, Keys: keys})
		}
		return
	}
	for i := range s.ins {
		narrowInput(s.ins[i].it, s.ins[i].tid, keys)
	}
	s.keep = append(s.keep, ColKeys{Col: s.ins[s.Driver].tid, Keys: keys})
}

// OperatorStats reports the rows drained from the driver, the rows the
// galloping search passed over (their tuple id is missing from some
// input) and the cells gathered into the output.
func (s *StitchIter) OperatorStats(emit func(key string, v int64)) {
	emit("driver_rows", s.driverRows)
	emit("rows_galloped", s.galloped)
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
