package engine

// Vectorized predicate evaluation: a bound filter predicate is
// compiled once into a list of conjunct kernels, each of which narrows
// a selection vector over a ColBatch. Column-versus-constant and
// column-versus-column comparisons run as tight typed loops when the
// vectors are typed, and a disjunction runs each arm's kernels over
// the rows no earlier arm kept; every other shape falls back to
// evaluating the bound expression on a scratch tuple per selected row —
// still selection-vector driven, so no batch is ever materialized just
// to be filtered.

import "slices"

// filterChunk is the least room filter grows its selection by.
const filterChunk = 256

// vecPred is a compiled predicate over column batches.
type vecPred struct {
	conjuncts []vecConjunct
	scratch   Tuple
}

// vecConjunct narrows sel (physical row indices into cb) and returns
// the surviving prefix, writing survivors into sel's backing array.
type vecConjunct func(p *vecPred, cb *ColBatch, sel []int32) []int32

// compileVecPred compiles a bound predicate. It always succeeds: shapes
// without a specialized kernel use the generic row-eval fallback.
func compileVecPred(bound Expr, sch Schema) *vecPred {
	p := &vecPred{scratch: make(Tuple, sch.Len())}
	for _, c := range SplitConjuncts(bound) {
		p.conjuncts = append(p.conjuncts, compileConjunct(c, sch))
	}
	if len(p.conjuncts) == 0 {
		// Constant-true predicate (And() of nothing).
		p.conjuncts = append(p.conjuncts, func(_ *vecPred, _ *ColBatch, sel []int32) []int32 {
			return sel
		})
	}
	return p
}

// filter narrows the batch's live rows through every conjunct, as many
// as fit past the rows kept so far at a time, and returns the survivors
// in selBuf's array, grown by a chunk or by the rows kept at the rate so
// far: a selective filter never holds the whole batch.
func (p *vecPred) filter(cb *ColBatch, selBuf []int32) []int32 {
	n, sel := cb.Rows(), selBuf[:0]
	for lo := 0; lo < n; {
		if cap(sel)-len(sel) < min(n-lo, filterChunk/2) {
			sel = slices.Grow(sel, max(min(n-lo, filterChunk), len(sel)*(n-lo)/max(lo, 1)))
		}
		chunk := sel[len(sel) : len(sel)+min(n-lo, cap(sel)-len(sel))]
		for k := range chunk {
			chunk[k] = int32(cb.RowID(lo + k))
		}
		lo += len(chunk)
		sel = append(sel, p.narrow(cb, chunk)...)
	}
	return sel
}

// narrow narrows sel, physical rows of cb, through every conjunct in
// place, and returns the surviving prefix.
func (p *vecPred) narrow(cb *ColBatch, sel []int32) []int32 {
	for _, c := range p.conjuncts {
		if len(sel) == 0 {
			return sel
		}
		sel = c(p, cb, sel)
	}
	return sel
}

// compileConjunct picks a kernel for one conjunct bound to sch.
func compileConjunct(e Expr, sch Schema) vecConjunct {
	switch x := e.(type) {
	case *CmpExpr:
		if l, ok := x.L.(*ColRef); ok {
			if r, ok := x.R.(*ConstExpr); ok {
				return colConstCmp(l.Idx, x.Op, r.Val)
			}
			if r, ok := x.R.(*ColRef); ok {
				return colColCmp(l.Idx, x.Op, r.Idx)
			}
		}
		if l, ok := x.L.(*ConstExpr); ok {
			if r, ok := x.R.(*ColRef); ok {
				return colConstCmp(r.Idx, swapCmp(x.Op), l.Val)
			}
		}
	case *LogicExpr:
		if x.Op == OrOp {
			return orConjunct(x.Args, sch)
		}
	}
	return rowEvalConjunct(e, boundCols(e, sch))
}

// swapCmp mirrors an operator across an operand swap (c OP col becomes
// col OP' c).
func swapCmp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op // EQ, NE are symmetric
}

// orConjunct is the union kernel of a disjunction. Each arm runs its
// own conjunct kernels over the rows no earlier arm kept; the rows some
// arm kept — those for which an arm is TRUE, as the row evaluator's OR
// decides — are read back in selection order.
func orConjunct(arms []Expr, sch Schema) vecConjunct {
	kernels := make([][]vecConjunct, len(arms))
	for i, a := range arms {
		for _, c := range SplitConjuncts(a) {
			kernels[i] = append(kernels[i], compileConjunct(c, sch))
		}
	}
	var rest, arm []int32
	var kept []bool // by physical row; false again on return
	return func(p *vecPred, cb *ColBatch, sel []int32) []int32 {
		if len(kept) < cb.N {
			kept = make([]bool, cb.N)
		}
		rest = append(rest[:0], sel...)
		for _, ks := range kernels {
			arm = append(arm[:0], rest...)
			for _, k := range ks {
				if len(arm) == 0 {
					break
				}
				arm = k(p, cb, arm)
			}
			if len(arm) == 0 {
				continue
			}
			for _, i := range arm {
				kept[i] = true
			}
			left := rest[:0]
			for _, i := range rest {
				if !kept[i] {
					left = append(left, i)
				}
			}
			if rest = left; len(rest) == 0 {
				break
			}
		}
		out := sel[:0]
		for _, i := range sel {
			if kept[i] {
				out = append(out, i)
			}
		}
		for _, i := range out {
			kept[i] = false
		}
		return out
	}
}

// rowEvalConjunct is the generic fallback: evaluate the bound conjunct
// on a scratch tuple per selected row, in which only cols — the columns
// the conjunct reads — are filled: a batch can be a join's output, as
// wide as the merge that made it.
func rowEvalConjunct(e Expr, cols []int) vecConjunct {
	return func(p *vecPred, cb *ColBatch, sel []int32) []int32 {
		out := sel[:0]
		for _, i := range sel {
			for _, c := range cols {
				p.scratch[c] = cb.Cols[c].Value(int(i))
			}
			if e.Eval(p.scratch).Truth() {
				out = append(out, i)
			}
		}
		return out
	}
}

// cmpKeep reports whether a three-way comparison outcome satisfies op.
func cmpKeep(op CmpOp, c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// colConstCmp builds the column-versus-constant kernel. The typed
// int/int, float/float, mixed numeric, and string/string cases run as
// tight loops over the payload vectors; anything else goes through
// Value+Compare, which is exactly the row evaluator's semantics.
func colConstCmp(idx int, op CmpOp, cst Value) vecConjunct {
	if cst.IsNull() {
		// Comparisons with NULL are false for every row.
		return func(_ *vecPred, _ *ColBatch, sel []int32) []int32 { return sel[:0] }
	}
	return func(_ *vecPred, cb *ColBatch, sel []int32) []int32 {
		v := &cb.Cols[idx]
		out := sel[:0]
		switch {
		case v.Vals == nil && v.Kind == KindInt && cst.K == KindInt:
			c := cst.I
			xs := v.Ints
			nulls := v.Nulls
			for _, i := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				if cmpKeep(op, cmpInt(xs[i], c)) {
					out = append(out, i)
				}
			}
		case v.Vals == nil && v.Kind == KindFloat && (cst.K == KindFloat || cst.K == KindInt):
			c := cst.AsFloat()
			xs := v.Floats
			nulls := v.Nulls
			for _, i := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				if cmpKeep(op, compareFloat(xs[i], c)) {
					out = append(out, i)
				}
			}
		case v.Vals == nil && v.Kind == KindInt && cst.K == KindFloat:
			c := cst.F
			xs := v.Ints
			nulls := v.Nulls
			for _, i := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				if cmpKeep(op, compareFloat(float64(xs[i]), c)) {
					out = append(out, i)
				}
			}
		case v.Vals == nil && v.Kind == KindString && cst.K == KindString:
			c := cst.S
			xs := v.Strs
			nulls := v.Nulls
			for _, i := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				if cmpKeep(op, cmpString(xs[i], c)) {
					out = append(out, i)
				}
			}
		default:
			for _, i := range sel {
				cell := v.Value(int(i))
				if cell.IsNull() {
					continue
				}
				if cmpKeep(op, Compare(cell, cst)) {
					out = append(out, i)
				}
			}
		}
		return out
	}
}

// colColCmp builds the column-versus-column kernel with a typed
// int/int fast loop.
func colColCmp(li int, op CmpOp, ri int) vecConjunct {
	return func(_ *vecPred, cb *ColBatch, sel []int32) []int32 {
		l, r := &cb.Cols[li], &cb.Cols[ri]
		out := sel[:0]
		if l.Vals == nil && r.Vals == nil && l.Kind == KindInt && r.Kind == KindInt {
			ln, rn := l.Nulls, r.Nulls
			lx, rx := l.Ints, r.Ints
			for _, i := range sel {
				if (ln != nil && ln[i]) || (rn != nil && rn[i]) {
					continue
				}
				if cmpKeep(op, cmpInt(lx[i], rx[i])) {
					out = append(out, i)
				}
			}
			return out
		}
		for _, i := range sel {
			lv, rv := l.Value(int(i)), r.Value(int(i))
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			if cmpKeep(op, Compare(lv, rv)) {
				out = append(out, i)
			}
		}
		return out
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
