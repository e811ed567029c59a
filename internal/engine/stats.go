package engine

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// ColStats holds per-column statistics used by the cost model.
type ColStats struct {
	NDV      float64 // approximate number of distinct values
	Min, Max Value   // extrema (numeric interpolation only)
	HasRange bool    // Min/Max are meaningful numerics
	// Hist is an equi-depth histogram over the (sampled) numeric
	// values: len(Hist) = histBuckets+1 sorted bucket boundaries, each
	// bucket holding an equal fraction of rows. Nil for non-numeric
	// columns or tiny samples.
	Hist []float64
}

// histBuckets is the equi-depth histogram resolution.
const histBuckets = 16

// TableStats holds statistics for one relation: per column, by its
// position in the relation's (or leaf's) schema. A column nothing is
// known about has the zero ColStats, whose NDV of 0 no scan reports, or
// lies past the end of Cols.
type TableStats struct {
	Rows float64
	Cols []ColStats
}

// statsSampleCap bounds the number of rows scanned to estimate NDV; a
// real system samples, and so do we.
const statsSampleCap = 50000

// statsScans counts ComputeStats calls. Who scans what, and how often,
// is a contract of its callers (once per partition, once per ad-hoc
// leaf and planning pass); their tests pin it on this counter.
var statsScans atomic.Int64

// StatsScans returns the number of ComputeStats scans the process has
// run so far.
func StatsScans() int64 { return statsScans.Load() }

// ComputeStats scans (a sample of) the relation and derives statistics.
func ComputeStats(r *Relation) *TableStats {
	return computeStats(r.Sch, len(r.Rows), func(c, i int) Value { return r.Rows[i][c] })
}

// ComputeBatchStats is ComputeStats of a column batch's live rows.
func ComputeBatchStats(cb *ColBatch) *TableStats {
	return computeStats(cb.Sch, cb.Rows(), func(c, k int) Value { return cb.Cols[c].Value(cb.RowID(k)) })
}

// computeStats derives the statistics of n rows under sch whose cells
// cell(column, row) gives.
func computeStats(sch Schema, n int, cell func(c, i int) Value) *TableStats {
	statsScans.Add(1)
	ts := &TableStats{Rows: float64(n), Cols: make([]ColStats, sch.Len())}
	step := 1
	if n > statsSampleCap {
		step = n / statsSampleCap
	}
	var kbuf []byte
	scratch := make(Tuple, 1)
	for ci := range sch.Cols {
		distinct := make(map[string]struct{})
		var mn, mx Value
		seen := false
		numeric := true
		sampled := 0
		var nums []float64
		for i := 0; i < n; i += step {
			v := cell(ci, i)
			sampled++
			// Reused key buffer; the map[string(bytes)] lookup does not
			// allocate, so only fresh distinct values pay a conversion.
			scratch[0] = v
			kbuf = AppendKey(kbuf[:0], scratch)
			if _, ok := distinct[string(kbuf)]; !ok {
				distinct[string(kbuf)] = struct{}{}
			}
			if v.K != KindInt && v.K != KindFloat {
				numeric = false
				continue
			}
			nums = append(nums, v.AsFloat())
			if !seen {
				mn, mx = v, v
				seen = true
			} else {
				if Compare(v, mn) < 0 {
					mn = v
				}
				if Compare(v, mx) > 0 {
					mx = v
				}
			}
		}
		ndv := float64(len(distinct))
		if step > 1 && sampled > 0 {
			// First-order scale-up of the sampled distinct count.
			frac := float64(len(distinct)) / float64(sampled)
			ndv = math.Min(ts.Rows, frac*ts.Rows)
		}
		if ndv < 1 {
			ndv = 1
		}
		cs := ColStats{NDV: ndv, Min: mn, Max: mx, HasRange: numeric && seen}
		if numeric && len(nums) >= histBuckets*2 {
			cs.Hist = equiDepthHist(nums)
		}
		ts.Cols[ci] = cs
	}
	return ts
}

// equiDepthHist builds sorted bucket boundaries holding equal row
// fractions.
func equiDepthHist(nums []float64) []float64 {
	sort.Float64s(nums)
	bounds := make([]float64, histBuckets+1)
	for b := 0; b <= histBuckets; b++ {
		idx := b * (len(nums) - 1) / histBuckets
		bounds[b] = nums[idx]
	}
	return bounds
}

// histFracBelow estimates the fraction of rows with value < x (equality
// boundary treated by linear interpolation inside the bucket).
func histFracBelow(hist []float64, x float64) float64 {
	nb := len(hist) - 1
	if x <= hist[0] {
		return 0
	}
	if x >= hist[nb] {
		return 1
	}
	for b := 0; b < nb; b++ {
		lo, hi := hist[b], hist[b+1]
		if x < hi || (x == hi && b == nb-1) {
			within := 0.0
			if hi > lo {
				within = (x - lo) / (hi - lo)
			}
			return (float64(b) + within) / float64(nb)
		}
	}
	return 1
}

// PlanStats is the derived estimate for a plan node: its row count and,
// per output column by its position in the node's schema, its NDV —
// unknownNDV, or past the end of NDV, where nothing is known.
type PlanStats struct {
	Rows float64
	NDV  []float64

	table *TableStats // a leaf's: the statistics it was estimated from
}

// unknownNDV marks a column whose NDV is not known: the estimate falls
// back to a default where it asks.
const unknownNDV = -1

// ndvAt is the NDV of column i, unknownNDV when it is not known.
func (st PlanStats) ndvAt(i int) float64 {
	if i < 0 || i >= len(st.NDV) {
		return unknownNDV
	}
	return st.NDV[i]
}

// ndvOr is the NDV of the column name resolves to in sch, the schema of
// the rows st estimates, or def where it is not known.
func (st PlanStats) ndvOr(sch Schema, name string, def float64) float64 {
	if v := st.ndvAt(sch.IndexOf(name)); v >= 0 {
		return v
	}
	return def
}

const (
	defaultEqSel    = 0.01
	defaultRangeSel = 1.0 / 3.0
	defaultSel      = 0.25
	defaultNDV      = 100.0
)

// StatsSource is the optional statistics hook of a SourcePlan: a
// storage leaf that knows something about its columns for free (row
// counts, key columns) reports it here, by its output columns'
// positions (never nil), with Rows the same post-pruning count
// EstimateRowCount gives. Sources without it are estimated by row count
// alone.
type StatsSource interface {
	SourceStats() *TableStats
}

// estimator answers the cost model's questions for one pass over a plan
// (one Optimize, Explain or traced Build call — there is no other
// source of row counts in this package): every plan node is estimated
// once and every leaf's table statistics are fetched once, however
// often the join orderer revisits a subtree. Plan nodes are immutable while a
// pass runs, so node identity is a sound memo key.
type estimator struct {
	cat   *Catalog
	plans map[Plan]PlanStats
}

func newEstimator(cat *Catalog) *estimator {
	return &estimator{cat: cat, plans: map[Plan]PlanStats{}}
}

// EstimateStats computes cardinality and NDV estimates bottom-up. It is
// intentionally simple — the same selectivity heuristics classic
// System-R-style optimizers use — because the paper's observation is
// that standard selectivity-based cost measures work well on translated
// U-relation queries. Callers estimating many nodes of one plan share
// an estimator instead (Optimize, Explain, a traced Build); this is the
// one-shot form.
func EstimateStats(p Plan, cat *Catalog) PlanStats {
	return newEstimator(cat).stats(p)
}

// tableStats returns the statistics a leaf carries or can look up: the
// catalog's for a named scan, the handle's for a Values leaf that
// travels with its statistics (ad-hoc ones are scanned), a storage
// source's own. Nil for a scan of no catalog relation and for any other
// node. The leaf's estimate keeps them (PlanStats.table), so a pass
// fetches them once.
func (est *estimator) tableStats(p Plan) *TableStats {
	var ts *TableStats
	switch n := p.(type) {
	case *ScanPlan:
		ts = est.cat.Stats(n.Name)
	case *ValuesPlan:
		if n.Stats != nil {
			ts = n.Stats()
		} else {
			ts = ComputeBatchStats(n.Batch)
		}
	case StatsSource:
		ts = n.SourceStats()
	}
	return ts
}

// stats is the memoized estimate of one plan node. The returned NDV
// slice is shared between callers and must not be modified.
func (est *estimator) stats(p Plan) PlanStats {
	if st, ok := est.plans[p]; ok {
		return st
	}
	st := est.estimate(p)
	est.plans[p] = st
	return st
}

// schema is p's schema, empty when it does not resolve.
func (est *estimator) schema(p Plan) Schema {
	sch, _ := p.Schema(est.cat)
	return sch
}

// leafPlanStats is the estimate of a leaf whose table statistics are ts.
func leafPlanStats(ts *TableStats) PlanStats {
	ndv := make([]float64, len(ts.Cols))
	for i, cs := range ts.Cols {
		if ndv[i] = cs.NDV; cs.NDV <= 0 {
			ndv[i] = unknownNDV
		}
	}
	return PlanStats{Rows: ts.Rows, NDV: ndv, table: ts}
}

func (est *estimator) estimate(p Plan) PlanStats {
	cat := est.cat
	switch n := p.(type) {
	case *ScanPlan:
		if ts := est.tableStats(n); ts != nil {
			return leafPlanStats(ts)
		}
		return PlanStats{Rows: 1000}
	case *ValuesPlan:
		return leafPlanStats(est.tableStats(n))
	case *FilterPlan:
		in := est.stats(n.Child)
		sel := est.selectivity(n.Cond, n.Child, in)
		return scaleStats(in, sel)
	case *ProjectPlan:
		return projectStats(est.stats(n.Child), est.schema(n.Child), n.Names)
	case *RenamePlan:
		in := est.stats(n.Child)
		width := est.schema(n.Child).Len()
		ndv := make([]float64, len(n.Names))
		for i := range n.Names {
			if ndv[i] = in.ndvAt(i); i >= width || ndv[i] < 0 {
				ndv[i] = math.Min(in.Rows, defaultNDV)
			}
		}
		return PlanStats{Rows: in.Rows, NDV: ndv}
	case *JoinPlan:
		l := est.stats(n.L)
		r := est.stats(n.R)
		ls, rs := est.schema(n.L), est.schema(n.R)
		pairs, residual := ExtractEquiJoin(n.Cond, ls, rs)
		rows := l.Rows * r.Rows
		for _, pr := range pairs {
			rows /= math.Max(1, math.Max(l.ndvOr(ls, pr.L, defaultNDV), r.ndvOr(rs, pr.R, defaultNDV)))
		}
		rows = afterResiduals(rows, len(SplitConjuncts(residual)))
		if n.Kind == SemiJoin {
			out := math.Min(l.Rows, rows)
			return PlanStats{Rows: out, NDV: capNDV(l.NDV, out)}
		}
		// Each column's NDV, capped by the rows; a join that emits through
		// Out is estimated as the projection folded into it was.
		return pickStats(rows, ls.Len()+rs.Len(), n.derive(cat).pick, func(pos int) float64 {
			if pos < ls.Len() {
				return math.Min(l.ndvAt(pos), rows)
			}
			return math.Min(r.ndvAt(pos-ls.Len()), rows)
		})
	case *StitchPlan:
		// The tree of binary joins on α ∧ ψ the stitch replaces, as the
		// join orderer would lay it out.
		o := newJoinOrderer(est, n.Inputs, SplitConjuncts(n.Cond), false)
		for _, t := range n.TIDs[1:] {
			o.addPair(n.TIDs[0], t)
		}
		o.order()
		return o.result(n.derive(cat).pick)
	case *UnionPlan:
		l := est.stats(n.L)
		r := est.stats(n.R)
		rows := l.Rows + r.Rows
		ndv := make([]float64, len(l.NDV))
		for i, v := range l.NDV {
			if ndv[i] = v; v >= 0 {
				ndv[i] = math.Min(rows, v+math.Max(0, r.ndvAt(i)))
			}
		}
		return PlanStats{Rows: rows, NDV: ndv}
	case *DiffPlan:
		l := est.stats(n.L)
		out := math.Max(1, l.Rows*0.5)
		return PlanStats{Rows: out, NDV: capNDV(l.NDV, out)}
	case *DistinctPlan:
		in := est.stats(n.Child)
		prod := 1.0
		for _, v := range in.NDV {
			if v < 0 {
				continue
			}
			prod *= math.Max(1, v)
			if prod > in.Rows {
				prod = in.Rows
				break
			}
		}
		out := math.Max(1, math.Min(in.Rows, prod))
		return PlanStats{Rows: out, NDV: capNDV(in.NDV, out)}
	case *ExtendPlan:
		in := est.stats(n.Child)
		width := est.schema(n.Child).Len()
		ndv := make([]float64, width+len(n.Exprs))
		for i := range ndv {
			if ndv[i] = in.ndvAt(i); i >= width {
				ndv[i] = math.Min(in.Rows, defaultNDV)
			}
		}
		return PlanStats{Rows: in.Rows, NDV: ndv}
	default:
		if _, ok := p.(StatsSource); ok {
			return leafPlanStats(est.tableStats(p))
		}
		if sp, ok := p.(SourcePlan); ok {
			return PlanStats{Rows: sp.EstimateRowCount()}
		}
		// Unknown unary wrappers pass their child's estimate through
		// rather than degrading to a constant.
		if ch := p.Children(); len(ch) == 1 {
			st := est.stats(ch[0])
			st.table = nil
			return st
		}
		return PlanStats{Rows: 1000}
	}
}

// projectStats narrows an estimate of rows under sch to the named
// columns.
func projectStats(in PlanStats, sch Schema, names []string) PlanStats {
	ndv := make([]float64, len(names))
	for i, c := range names {
		ndv[i] = in.ndvOr(sch, c, math.Min(in.Rows, defaultNDV))
	}
	return PlanStats{Rows: in.Rows, NDV: ndv}
}

// pickStats is the estimate of rows of a row width columns wide, whose
// column pos has NDV at(pos), narrowed to the columns pick selects (nil:
// all of them); there a column nothing is known about gets the NDV a
// projection gives it.
func pickStats(rows float64, width int, pick []int, at func(pos int) float64) PlanStats {
	if pick == nil {
		ndv := make([]float64, width)
		for pos := range ndv {
			ndv[pos] = at(pos)
		}
		return PlanStats{Rows: rows, NDV: ndv}
	}
	ndv := make([]float64, len(pick))
	for k, pos := range pick {
		if ndv[k] = at(pos); ndv[k] < 0 {
			ndv[k] = math.Min(rows, defaultNDV)
		}
	}
	return PlanStats{Rows: rows, NDV: ndv}
}

// afterResiduals applies n residual conjuncts to a join's row estimate,
// at least one row: the ψ conditions (var≠var' OR rng=rng') are weakly
// selective, so each keeps 0.9.
func afterResiduals(rows float64, n int) float64 {
	return math.Max(1, rows*math.Pow(0.9, float64(n)))
}

// capNDV is ndv with every NDV above rows lowered to it: ndv itself when
// none is.
func capNDV(ndv []float64, rows float64) []float64 {
	for i, v := range ndv {
		if v > rows {
			out := slices.Clone(ndv)
			for j := i; j < len(out); j++ {
				out[j] = math.Min(out[j], rows)
			}
			return out
		}
	}
	return ndv
}

func scaleStats(in PlanStats, sel float64) PlanStats {
	rows := math.Max(1, in.Rows*sel)
	return PlanStats{Rows: rows, NDV: capNDV(in.NDV, rows)}
}

// selectivity estimates the fraction of rows satisfying cond.
func (est *estimator) selectivity(cond Expr, child Plan, in PlanStats) float64 {
	sch, _ := child.Schema(est.cat)
	sel := 1.0
	for _, c := range SplitConjuncts(cond) {
		sel *= est.conjunctSelectivity(c, child, sch, in)
	}
	return min(sel, 1)
}

func (est *estimator) conjunctSelectivity(c Expr, child Plan, sch Schema, in PlanStats) float64 {
	switch e := c.(type) {
	case *CmpExpr:
		col, cst, op, ok := NormalizeColCmp(e)
		if !ok {
			return defaultSel
		}
		switch op {
		case EQ:
			return 1 / math.Max(1, in.ndvOr(sch, col, 1/defaultEqSel))
		case NE:
			return 1 - 1/math.Max(1, in.ndvOr(sch, col, 1/defaultEqSel))
		default:
			if cs, ok2 := est.baseColStats(child, col); ok2 && cs.HasRange {
				return rangeSelectivity(op, cst, cs)
			}
			return defaultRangeSel
		}
	case *LogicExpr:
		switch e.Op {
		case AndOp:
			s := 1.0
			for _, a := range e.Args {
				s *= est.conjunctSelectivity(a, child, sch, in)
			}
			return s
		case OrOp:
			s := 0.0
			for _, a := range e.Args {
				s += est.conjunctSelectivity(a, child, sch, in)
			}
			return min(s, 1)
		default:
			return 1 - est.conjunctSelectivity(e.Args[0], child, sch, in)
		}
	default:
		return defaultSel
	}
}

// NormalizeColCmp rewrites a column-vs-constant comparison into (col,
// const, op) with the column on the left, flipping the operator when
// the constant was on the left. ok is false for any other shape.
// Shared by the selectivity estimator and storage-level segment
// pruning.
func NormalizeColCmp(e *CmpExpr) (col string, cst Value, op CmpOp, ok bool) {
	if c, okc := e.L.(*ColRef); okc {
		if k, okk := e.R.(*ConstExpr); okk {
			return c.Name, k.Val, e.Op, true
		}
	}
	if c, okc := e.R.(*ColRef); okc {
		if k, okk := e.L.(*ConstExpr); okk {
			flipped := [...]CmpOp{EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}
			return c.Name, k.Val, flipped[e.Op], true
		}
	}
	return "", Null(), EQ, false
}

func rangeSelectivity(op CmpOp, cst Value, cs ColStats) float64 {
	x := cst.AsFloat()
	var frac float64
	if len(cs.Hist) > 1 {
		// Equi-depth histogram: robust on skewed distributions.
		frac = histFracBelow(cs.Hist, x)
	} else {
		lo, hi := cs.Min.AsFloat(), cs.Max.AsFloat()
		if hi <= lo {
			return defaultRangeSel
		}
		frac = min(max((x-lo)/(hi-lo), 0), 1)
	}
	switch op {
	case LT, LE:
		return clampSel(frac)
	case GT, GE:
		return clampSel(1 - frac)
	default:
		return defaultRangeSel
	}
}

func clampSel(s float64) float64 { return min(max(s, 0.0005), 1) }

// baseColStats traces a column through simple plan shapes down to a
// leaf's table statistics to find range stats.
func (est *estimator) baseColStats(p Plan, col string) (ColStats, bool) {
	switch n := p.(type) {
	case *FilterPlan:
		return est.baseColStats(n.Child, col)
	case *ProjectPlan:
		return est.baseColStats(n.Child, col)
	case *JoinPlan:
		if cs, ok := est.baseColStats(n.L, col); ok {
			return cs, ok
		}
		return est.baseColStats(n.R, col)
	case *StitchPlan:
		for _, in := range n.Inputs {
			if cs, ok := est.baseColStats(in, col); ok {
				return cs, ok
			}
		}
		return ColStats{}, false
	}
	ts := est.stats(p).table
	if ts == nil {
		return ColStats{}, false
	}
	if i := est.schema(p).IndexOf(col); i >= 0 && i < len(ts.Cols) {
		return ts.Cols[i], true
	}
	return ColStats{}, false
}
