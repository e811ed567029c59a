package engine

import (
	"math"
	"slices"
)

// Optimize rewrites a logical plan using the classical rule set:
//
//  1. split conjunctive filters and absorb filters into join conditions,
//  2. push selections as far down as schemas allow (through projects,
//     renames, unions, and into join inputs),
//  3. reorder trees of inner joins by greedy operator ordering on
//     estimated cardinality (joinOrderer: the smallest connected join
//     first, cross products last, each hash join built on its smaller
//     side) — a stitch is one input of such a tree, driven by its own
//     input estimated smallest,
//  4. prune unused columns by inserting projections above leaves,
//  5. fold each projection into the projection, inner join or stitch
//     beneath it, so a row is written once, at its final width,
//  6. hand each selection that sits directly on a storage leaf to that
//     leaf (FilterAdvisor), which prunes what its statistics refute.
//
// These are exactly the "standard techniques employed in off-the-shelf
// relational database management systems" the paper relies on for
// evaluating translated U-relation queries. Step 6 is the last write to
// the plan: Build only reads an optimized plan, so one plan may be
// lowered again and again, by several goroutines at once (the server's
// plan cache runs a repeated statement that way).
func Optimize(p Plan, cat *Catalog) (Plan, error) {
	p = pushFilters(p, cat)
	p, err := orderJoins(p, newEstimator(cat))
	if err != nil {
		return nil, err
	}
	p = pushFilters(p, cat) // join reordering may re-expose pushdowns
	p = applyIndexScans(p, cat)
	p, err = pruneColumns(p, cat)
	if err != nil {
		return nil, err
	}
	p = foldProjections(p, cat)
	adviseFilters(p)
	return p, nil
}

// foldProjections removes the projections that only re-copy what the
// node beneath has just written: Project∘Project becomes one Project,
// and Project over an inner join becomes the join's Out, which every
// join strategy emits through. The translation puts a projection on
// every relation's merge chain and every π of the query, orderJoins one
// on every tree it reorders and pruneColumns another on every join
// input, so without this each join row is copied once per level above
// it. It is a rewrite of the plan, not of the iterators, so
// EXPLAIN, EXPLAIN ANALYZE and the untraced run see the same tree.
func foldProjections(p Plan, cat *Catalog) Plan {
	ch := p.Children()
	if len(ch) == 0 {
		return p
	}
	out := make([]Plan, len(ch))
	changed := false
	for i, c := range ch {
		out[i] = foldProjections(c, cat)
		changed = changed || out[i] != c
	}
	if changed {
		p = p.WithChildren(out)
	}
	top, ok := p.(*ProjectPlan)
	if !ok || len(top.Names) == 0 {
		return p
	}
	switch c := top.Child.(type) {
	case *ProjectPlan:
		if throughProjection(top.Names, c.Names, c.Child, cat) {
			return &ProjectPlan{Child: c.Child, Names: top.Names}
		}
	case *JoinPlan:
		if c.Kind != InnerJoin {
			break
		}
		full := &JoinPlan{Kind: InnerJoin, L: c.L, R: c.R, Cond: c.Cond}
		if c.Out == nil || throughProjection(top.Names, c.Out, full, cat) {
			full.Out = top.Names
			return full
		}
	case *StitchPlan:
		full := *c
		full.Out = nil
		if c.Out == nil || throughProjection(top.Names, c.Out, &full, cat) {
			full.Out = top.Names
			return &full
		}
	}
	return p
}

// throughProjection reports whether projecting base to outer directly
// picks the columns that projecting it to mid and then to outer picks.
// A projection keeps names as written and references resolve by suffix,
// so a name can be unique among mid's columns and ambiguous — or someone
// else's — among base's; then the two projections stay apart.
func throughProjection(outer, mid []string, base Plan, cat *Catalog) bool {
	bsch, err := base.Schema(cat)
	if err != nil {
		return false
	}
	msch, err := bsch.Project(mid)
	if err != nil {
		return false
	}
	for _, name := range outer {
		mi, bi := msch.IndexOf(name), bsch.IndexOf(name)
		if mi < 0 || bi < 0 || bi != bsch.IndexOf(mid[mi]) {
			return false
		}
	}
	return true
}

// applyIndexScans rewrites an equality filter sitting directly on an
// indexed storage leaf into one probe of the leaf's sorted-run index:
// Filter(col = k, leaf) becomes Filter(rest, IndexScan(leaf, col, k)).
// It runs after filter pushdown (so the filters are on the leaves) and
// before column pruning (so leaves are still bare).
func applyIndexScans(p Plan, cat *Catalog) Plan {
	if f, ok := p.(*FilterPlan); ok {
		if src, oks := f.Child.(IndexedSource); oks {
			sch, err := src.Schema(cat)
			if err == nil {
				idxCols := src.IndexedCols()
				conjs := SplitConjuncts(f.Cond)
				for i, c := range conjs {
					cmp, okc := c.(*CmpExpr)
					if !okc || cmp.Op != EQ {
						continue
					}
					col, cst, op, okn := NormalizeColCmp(cmp)
					if !okn || op != EQ || cst.IsNull() {
						continue
					}
					ci := sch.IndexOf(col)
					if ci < 0 {
						continue
					}
					canon := sch.Cols[ci].Name
					if !containsStr(idxCols, canon) {
						continue
					}
					leaf := &IndexScanPlan{Src: src, Col: canon, Key: cst}
					rest := make([]Expr, 0, len(conjs)-1)
					rest = append(rest, conjs[:i]...)
					rest = append(rest, conjs[i+1:]...)
					if len(rest) == 0 {
						return leaf
					}
					return Filter(leaf, And(rest...))
				}
			}
		}
	}
	ch := p.Children()
	if len(ch) == 0 {
		return p
	}
	out := make([]Plan, len(ch))
	changed := false
	for i, c := range ch {
		out[i] = applyIndexScans(c, cat)
		if out[i] != c {
			changed = true
		}
	}
	if !changed {
		return p
	}
	return p.WithChildren(out)
}

// pushFilters recursively pushes selection predicates downwards.
func pushFilters(p Plan, cat *Catalog) Plan {
	switch n := p.(type) {
	case *FilterPlan:
		child := pushFilters(n.Child, cat)
		conjs := SplitConjuncts(n.Cond)
		return pushConjuncts(child, conjs, cat)
	default:
		ch := p.Children()
		if len(ch) == 0 {
			return p
		}
		newCh := make([]Plan, len(ch))
		changed := false
		for i, c := range ch {
			newCh[i] = pushFilters(c, cat)
			if newCh[i] != c {
				changed = true
			}
		}
		if changed {
			return p.WithChildren(newCh)
		}
		return p
	}
}

// pushConjuncts pushes each conjunct as deep as possible into child,
// re-attaching what cannot be pushed as a filter on top.
func pushConjuncts(child Plan, conjs []Expr, cat *Catalog) Plan {
	if len(conjs) == 0 {
		return child
	}
	switch n := child.(type) {
	case *FilterPlan:
		// Merge adjacent filters, then push the combined set.
		return pushConjuncts(n.Child, append(SplitConjuncts(n.Cond), conjs...), cat)
	case *ProjectPlan:
		// A filter on projected columns can move below the projection.
		insch, err := n.Child.Schema(cat)
		if err != nil {
			break
		}
		var below, above []Expr
		for _, c := range conjs {
			if CoveredBy(c, insch) {
				below = append(below, c)
			} else {
				above = append(above, c)
			}
		}
		if len(below) > 0 {
			inner := pushConjuncts(n.Child, below, cat)
			out := Plan(&ProjectPlan{Child: inner, Names: n.Names})
			if len(above) > 0 {
				out = Filter(out, And(above...))
			}
			return out
		}
	case *JoinPlan:
		// A join that already emits through Out (a plan optimized before)
		// keeps the filter above it: its conjuncts name Out's columns.
		if n.Kind == InnerJoin && n.Out == nil {
			ls, errL := n.L.Schema(cat)
			rs, errR := n.R.Schema(cat)
			if errL == nil && errR == nil {
				var toL, toR, onJoin []Expr
				for _, c := range conjs {
					switch {
					case CoveredBy(c, ls):
						toL = append(toL, c)
					case CoveredBy(c, rs):
						toR = append(toR, c)
					default:
						onJoin = append(onJoin, c)
					}
				}
				l := n.L
				if len(toL) > 0 {
					l = pushConjuncts(pushFilters(n.L, cat), toL, cat)
				}
				r := n.R
				if len(toR) > 0 {
					r = pushConjuncts(pushFilters(n.R, cat), toR, cat)
				}
				cond := n.Cond
				if len(onJoin) > 0 {
					cond = And(append([]Expr{cond}, onJoin...)...)
				}
				return &JoinPlan{Kind: InnerJoin, L: l, R: r, Cond: cond}
			}
		}
	case *StitchPlan:
		// A conjunct over one input's columns moves into that input; one
		// spanning two partitions stays above the stitch.
		if n.Out != nil {
			break
		}
		ins := append([]Plan(nil), n.Inputs...)
		var above []Expr
	conjs:
		for _, c := range conjs {
			for i, in := range ins {
				if sch, err := in.Schema(cat); err == nil && CoveredBy(c, sch) {
					ins[i] = pushConjuncts(in, []Expr{c}, cat)
					continue conjs
				}
			}
			above = append(above, c)
		}
		out := n.WithChildren(ins)
		if len(above) > 0 {
			out = Filter(out, And(above...))
		}
		return out
	case *UnionPlan:
		// Filters distribute over union (schemas are positionally
		// compatible; names come from the left, so only push when both
		// sides resolve the columns).
		ls, errL := n.L.Schema(cat)
		rs, errR := n.R.Schema(cat)
		if errL == nil && errR == nil {
			all := And(conjs...)
			if CoveredBy(all, ls) && CoveredBy(all, rs) {
				return &UnionPlan{
					L: pushConjuncts(n.L, conjs, cat),
					R: pushConjuncts(n.R, conjs, cat),
				}
			}
		}
	case *DistinctPlan:
		return &DistinctPlan{Child: pushConjuncts(n.Child, conjs, cat)}
	}
	return Filter(child, And(conjs...))
}

// orderJoins flattens each maximal tree of inner joins — two inputs or
// twenty — and reassembles it by greedy operator ordering on estimated
// output cardinality (joinOrderer): the smaller side of each join is
// the side a hash join builds on. A relation is one input, whatever
// number of partitions its stitch merges; the stitch is driven by the
// partition estimated smallest — a filtered or index-scanned one, where
// there is one. One estimator serves the whole pass, so each input is
// estimated once.
//
// Reordering permutes output columns, and a projection above the tree
// restores the written order so Optimize is schema-preserving. A
// projection picks columns by name, so a join whose output names are
// ambiguous (a raw self-join; translated U-relation plans never are)
// stays as written around its ordered inputs.
func orderJoins(p Plan, est *estimator) (Plan, error) {
	if n, ok := p.(*JoinPlan); ok && n.Kind == InnerJoin && n.Out == nil {
		sch, err := p.Schema(est.cat)
		if err != nil {
			return nil, err
		}
		if names := sch.Names(); uniqueStrings(names) {
			return orderJoinTree(n, names, est)
		}
	}
	ch := p.Children()
	if len(ch) == 0 {
		return p, nil
	}
	newCh := make([]Plan, len(ch))
	for i, c := range ch {
		nc, err := orderJoins(c, est)
		if err != nil {
			return nil, err
		}
		newCh[i] = nc
	}
	p = p.WithChildren(newCh)
	if s, ok := p.(*StitchPlan); ok {
		s.Driver = 0
		for i, in := range s.Inputs {
			if est.stats(in).Rows < est.stats(s.Inputs[s.Driver]).Rows {
				s.Driver = i
			}
		}
	}
	return p, nil
}

// orderJoinTree reorders the maximal inner-join tree rooted at n, whose
// output columns are names. The tree's inputs are ordered first, each
// on its own, and only the root is rebuilt: ordering a sub-chain would
// put its restoring projection in the middle of the tree it belongs to.
func orderJoinTree(n *JoinPlan, names []string, est *estimator) (Plan, error) {
	var inputs []Plan
	var preds []Expr
	var collect func(q Plan) error
	collect = func(q Plan) error {
		if j, okj := q.(*JoinPlan); okj && j.Kind == InnerJoin && j.Out == nil {
			if err := collect(j.L); err != nil {
				return err
			}
			if err := collect(j.R); err != nil {
				return err
			}
			preds = append(preds, SplitConjuncts(j.Cond)...)
			return nil
		}
		q, err := orderJoins(q, est)
		if err != nil {
			return err
		}
		inputs = append(inputs, q)
		return nil
	}
	if err := collect(n); err != nil {
		return nil, err
	}
	out := newJoinOrderer(est, inputs, preds).order()
	newSch, err := out.Schema(est.cat)
	if err != nil {
		return nil, err
	}
	if !sameStrings(names, newSch.Names()) {
		out = &ProjectPlan{Child: out, Names: names}
	}
	return out, nil
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func uniqueStrings(a []string) bool {
	seen := make(map[string]bool, len(a))
	for _, s := range a {
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// joinOrderer is greedy operator ordering (GOO; Fegaras, DEXA 1998)
// over the inputs of one tree of inner joins: it merges the connected
// pair of subtrees whose join it estimates smallest until one tree, maybe
// bushy, is left, and makes the side estimated smaller each join's L,
// the side a hash join builds on. It estimates once per input and
// resolves each conjunct once, with estimate's arithmetic for the
// JoinPlan a merge builds. Only an equi pair connects: a ψ disjunct
// filters almost nothing, so it rides on the first merge covering it.
type joinOrderer struct {
	schs   []Schema    // per input
	stats  []PlanStats // per input
	conjs  []joinConj
	owner  []int         // per input, the subtree that holds it
	ndvCap []float64     // per input, the fewest rows of a merge above it
	subs   []joinSubtree // by the input each started as; all end in subs[0]
}

// joinConj is one conjunct of a join tree: the inputs it reads (every
// input when a column resolves in none or in several, so the last merge
// places it) and, for an equi pair of two inputs' columns, its ends.
type joinConj struct {
	e       Expr
	ins     []int
	pair    bool
	ends    [2]joinEnd
	applied bool
}

// joinEnd is a column of one input (in -1: of none), by its name there.
type joinEnd struct {
	in  int
	col string
}

// joinSubtree is a tree the orderer built; plan is nil once merged away.
type joinSubtree struct {
	plan Plan
	rows float64
}

func newJoinOrderer(est *estimator, inputs []Plan, conjs []Expr) *joinOrderer {
	n := len(inputs)
	o := &joinOrderer{schs: make([]Schema, n), stats: make([]PlanStats, n), conjs: make([]joinConj, len(conjs)),
		owner: make([]int, n), ndvCap: make([]float64, n), subs: make([]joinSubtree, n)}
	every := make([]int, n)
	for i, p := range inputs {
		o.schs[i], _ = p.Schema(est.cat) // an error resolves no column; the tree's Schema reports it
		o.stats[i] = est.stats(p)
		o.owner[i], o.ndvCap[i], every[i] = i, math.Inf(1), i
		o.subs[i] = joinSubtree{plan: p, rows: o.stats[i].Rows}
	}
	for k, e := range conjs {
		c := &o.conjs[k]
		c.e = e
		var ends []joinEnd
		for _, col := range ExprColumns(e) {
			end := o.resolve(col)
			if end.in < 0 {
				c.ins = every
				break
			}
			if ends = append(ends, end); !slices.Contains(c.ins, end.in) {
				c.ins = append(c.ins, end.in)
			}
		}
		if cmp, ok := e.(*CmpExpr); ok && cmp.Op == EQ && len(ends) == 2 && len(c.ins) == 2 {
			_, lok := cmp.L.(*ColRef)
			_, rok := cmp.R.(*ColRef)
			c.pair, c.ends = lok && rok, [2]joinEnd{ends[0], ends[1]}
		}
	}
	return o
}

// resolve finds the one input a column name resolves in.
func (o *joinOrderer) resolve(name string) joinEnd {
	end := joinEnd{in: -1}
	for i, sch := range o.schs {
		if j := sch.IndexOf(name); j >= 0 {
			if end.in >= 0 {
				return joinEnd{in: -1}
			}
			end = joinEnd{in: i, col: sch.Cols[j].Name}
		}
	}
	return end
}

// order merges the inputs into one tree and returns it.
func (o *joinOrderer) order() Plan {
	for left := len(o.subs); left > 1; left-- {
		bx, by, best, bestConn := -1, -1, 0.0, false
		for x := range o.subs {
			for y := x + 1; y < len(o.subs); y++ {
				if o.subs[x].plan == nil || o.subs[y].plan == nil {
					continue
				}
				rows, conn := o.joinRows(x, y)
				if bx < 0 || conn && !bestConn || conn == bestConn && rows < best {
					bx, by, best, bestConn = x, y, rows, conn
				}
			}
		}
		o.merge(bx, by, best)
	}
	return o.subs[0].plan
}

// places reports whether merging subtrees x and y places c: c is not
// placed yet and reads no input outside them.
func (o *joinOrderer) places(c *joinConj, x, y int) bool {
	for _, in := range c.ins {
		if s := o.owner[in]; s != x && s != y {
			return false
		}
	}
	return !c.applied
}

// joinRows is estimate's figure for the join of subtrees x and y under
// the conjuncts the merge places: |X|·|Y| over the larger NDV of each
// equi pair, 0.9 for each other conjunct. connected reports an equi
// pair.
func (o *joinOrderer) joinRows(x, y int) (rows float64, connected bool) {
	rows = o.subs[x].rows * o.subs[y].rows
	residuals := 0
	for k := range o.conjs {
		switch c := &o.conjs[k]; {
		case !o.places(c, x, y):
		case c.pair:
			rows /= math.Max(1, math.Max(o.endNDV(c.ends[0]), o.endNDV(c.ends[1])))
			connected = true
		default:
			residuals++
		}
	}
	return afterResiduals(rows, residuals), connected
}

// endNDV is the NDV of a column in the subtree holding its input: the
// input's, capped by the rows of every merge above it.
func (o *joinOrderer) endNDV(e joinEnd) float64 {
	if v, ok := o.stats[e.in].NDV[e.col]; ok {
		return math.Min(v, o.ndvCap[e.in])
	}
	return defaultNDV
}

// merge joins subtree y into subtree x, estimated at rows.
func (o *joinOrderer) merge(x, y int, rows float64) {
	var conds []Expr
	for k := range o.conjs {
		if c := &o.conjs[k]; o.places(c, x, y) {
			c.applied = true
			conds = append(conds, c.e)
		}
	}
	for in, s := range o.owner {
		if s == y {
			o.owner[in] = x
		}
		if o.owner[in] == x {
			o.ndvCap[in] = math.Min(o.ndvCap[in], rows)
		}
	}
	l, r := o.subs[x].plan, o.subs[y].plan
	if o.subs[y].rows < o.subs[x].rows {
		l, r = r, l
	}
	o.subs[x] = joinSubtree{plan: &JoinPlan{Kind: InnerJoin, L: l, R: r, Cond: And(conds...)}, rows: rows}
	o.subs[y].plan = nil
}

// result is estimate's figure for the tree order built: its rows and
// every input's NDVs under their caps.
func (o *joinOrderer) result() PlanStats {
	st := PlanStats{Rows: o.subs[0].rows, NDV: map[string]float64{}}
	for i, in := range o.stats {
		for c, v := range in.NDV {
			st.NDV[c] = math.Min(v, o.ndvCap[i])
		}
	}
	return st
}

// pruneColumns inserts projections so leaves only produce columns the
// rest of the plan needs.
func pruneColumns(p Plan, cat *Catalog) (Plan, error) {
	sch, err := p.Schema(cat)
	if err != nil {
		return nil, err
	}
	return pruneNeeding(p, cat, sch.Names())
}

// pruneNeeding rewrites p so it produces (at least) the needed columns,
// dropping unused ones below joins.
func pruneNeeding(p Plan, cat *Catalog, needed []string) (Plan, error) {
	switch n := p.(type) {
	case *ProjectPlan:
		childSch, err := n.Child.Schema(cat)
		if err != nil {
			return nil, err
		}
		// The projection keeps the names its parent reads (all of them
		// when it reads none), and they define what's needed below.
		names := slices.DeleteFunc(slices.Clone(n.Names), func(c string) bool { return !slices.Contains(needed, c) })
		if len(names) == 0 {
			names = n.Names
		}
		child, err := pruneNeeding(n.Child, cat, resolveAll(childSch, names))
		if err != nil {
			return nil, err
		}
		return &ProjectPlan{Child: child, Names: names}, nil
	case *FilterPlan:
		childSch, err := n.Child.Schema(cat)
		if err != nil {
			return nil, err
		}
		req := union(needed, resolveAll(childSch, ExprColumns(n.Cond)))
		child, err := pruneNeeding(n.Child, cat, req)
		if err != nil {
			return nil, err
		}
		return &FilterPlan{Child: child, Cond: n.Cond}, nil
	case *JoinPlan:
		ls, err := n.L.Schema(cat)
		if err != nil {
			return nil, err
		}
		rs, err := n.R.Schema(cat)
		if err != nil {
			return nil, err
		}
		if n.Out != nil {
			needed = resolveAll(ls.Concat(rs), n.Out)
		}
		req := union(needed, resolveAll(ls.Concat(rs), ExprColumns(n.Cond)))
		lNeed := intersectSchema(req, ls)
		rNeed := intersectSchema(req, rs)
		l, err := pruneNeeding(n.L, cat, lNeed)
		if err != nil {
			return nil, err
		}
		r, err := pruneNeeding(n.R, cat, rNeed)
		if err != nil {
			return nil, err
		}
		// Insert projections if we can actually drop columns. A semi
		// join's right side only prunes below, to what its predicates need.
		l = maybeProject(l, ls, lNeed)
		if n.Kind == InnerJoin {
			r = maybeProject(r, rs, rNeed)
		}
		return &JoinPlan{Kind: n.Kind, L: l, R: r, Cond: n.Cond, Out: n.Out}, nil
	case *StitchPlan:
		full, err := n.full(cat)
		if err != nil {
			return nil, err
		}
		if n.Out != nil {
			needed = resolveAll(full, n.Out)
		}
		req := union(union(needed, resolveAll(full, ExprColumns(n.Cond))), n.TIDs)
		// Unread input columns cost nothing: the stitch gathers its Out.
		ins := make([]Plan, len(n.Inputs))
		for i, in := range n.Inputs {
			sch, err := in.Schema(cat)
			if err != nil {
				return nil, err
			}
			if ins[i], err = pruneNeeding(in, cat, intersectSchema(req, sch)); err != nil {
				return nil, err
			}
		}
		return n.WithChildren(ins), nil
	case *ScanPlan, *ValuesPlan:
		return p, nil
	default:
		// Generic recursion: require everything from children (unions,
		// differences, distinct, renames and extends have positional or
		// full needs).
		ch := p.Children()
		if len(ch) == 0 {
			return p, nil
		}
		newCh := make([]Plan, len(ch))
		for i, c := range ch {
			csch, err := c.Schema(cat)
			if err != nil {
				return nil, err
			}
			nc, err := pruneNeeding(c, cat, csch.Names())
			if err != nil {
				return nil, err
			}
			newCh[i] = nc
		}
		return p.WithChildren(newCh), nil
	}
}

// maybeProject wraps p in a projection to need if that strictly drops
// columns and p writes its rows — an inner join or a stitch, which then
// emits through it (foldProjections). Any other node hands its columns
// over as they are, so a projection above it would drop nothing.
func maybeProject(p Plan, sch Schema, need []string) Plan {
	j, join := p.(*JoinPlan)
	_, stitch := p.(*StitchPlan)
	if !(join && j.Kind == InnerJoin || stitch) || len(need) == 0 || len(need) >= sch.Len() {
		return p
	}
	// Preserve schema order for determinism.
	var ordered []string
	for _, c := range sch.Cols {
		if slices.Contains(need, c.Name) {
			ordered = append(ordered, c.Name)
		}
	}
	if len(ordered) == sch.Len() || len(ordered) == 0 {
		return p
	}
	return &ProjectPlan{Child: p, Names: ordered}
}

// resolveAll maps possibly-unqualified names to the schema's canonical
// column names (dropping unresolvable ones).
func resolveAll(sch Schema, names []string) []string {
	var out []string
	for _, n := range names {
		if i := sch.IndexOf(n); i >= 0 {
			out = append(out, sch.Cols[i].Name)
		}
	}
	return out
}

func union(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func intersectSchema(names []string, sch Schema) []string {
	var out []string
	for _, n := range names {
		if sch.IndexOf(n) >= 0 {
			out = append(out, n)
		}
	}
	return out
}
