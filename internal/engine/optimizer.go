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
//     leaf (FilterAdvisor), which prunes what its statistics refute and
//     may read an equality through its index; the selection stays.
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
	p, _ = rewriteInputs(p, func(c Plan) (Plan, error) { return foldProjections(c, cat), nil })
	top, ok := p.(*ProjectPlan)
	if !ok || len(top.Names) == 0 {
		return p
	}
	switch c := top.Child.(type) {
	case *ProjectPlan:
		if sch, err := c.Child.Schema(cat); err == nil && throughProjection(top.Names, c.Names, sch) {
			return &ProjectPlan{Child: c.Child, Names: top.Names}
		}
	case *JoinPlan:
		if c.Kind == InnerJoin && (c.Out == nil || throughProjection(top.Names, c.Out, c.derive(cat).full)) {
			return &JoinPlan{Kind: InnerJoin, L: c.L, R: c.R, Cond: c.Cond, Out: top.Names}
		}
	case *StitchPlan:
		if c.Out == nil || throughProjection(top.Names, c.Out, c.derive(cat).full) {
			return &StitchPlan{Inputs: c.Inputs, TIDs: c.TIDs, Cond: c.Cond, Driver: c.Driver, Out: top.Names, Est: c.Est}
		}
	}
	return p
}

// throughProjection reports whether projecting rows of schema bsch to
// outer directly picks the columns that projecting them to mid and then
// to outer picks. A projection keeps names as written and references
// resolve by suffix, so a name can be unique among mid's columns and
// ambiguous — or someone else's — among bsch's; then the two
// projections stay apart.
func throughProjection(outer, mid []string, bsch Schema) bool {
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

// rewriteInputs is p with each input c replaced by f(c): p itself when
// f hands every input back unchanged, else a new node. It stops at f's
// first error, which a caller whose f cannot fail drops.
func rewriteInputs(p Plan, f func(Plan) (Plan, error)) (Plan, error) {
	ch := p.Children()
	var out []Plan
	for i, c := range ch {
		nc, err := f(c)
		if err != nil {
			return nil, err
		}
		if nc != c && out == nil {
			out = append(make([]Plan, 0, len(ch)), ch...)
		}
		if out != nil {
			out[i] = nc
		}
	}
	if out == nil {
		return p, nil
	}
	return p.WithChildren(out), nil
}

// pushFilters recursively pushes selection predicates downwards.
func pushFilters(p Plan, cat *Catalog) Plan {
	switch n := p.(type) {
	case *FilterPlan:
		child := pushFilters(n.Child, cat)
		if child == n.Child && len(child.Children()) == 0 && splitAlready(n.Cond) {
			return p // on a leaf, with nothing to merge or drop: it stays
		}
		return pushConjuncts(child, SplitConjuncts(n.Cond), cat)
	default:
		p, _ = rewriteInputs(p, func(c Plan) (Plan, error) { return pushFilters(c, cat), nil })
		return p
	}
}

// splitAlready reports whether e is what And makes of its conjuncts
// (SplitConjuncts): one conjunct, neither nil nor the constant true, or
// a conjunction of two or more such.
func splitAlready(e Expr) bool {
	if l, ok := e.(*LogicExpr); ok && l.Op == AndOp {
		for _, a := range l.Args {
			if al, ok := a.(*LogicExpr); ok && al.Op == AndOp || !splitAlready(a) {
				return false
			}
		}
		return len(l.Args) > 1
	}
	c, isConst := e.(*ConstExpr)
	return e != nil && !(isConst && c.Val.Truth())
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
	p, err := rewriteInputs(p, func(c Plan) (Plan, error) { return orderJoins(c, est) })
	if err != nil {
		return nil, err
	}
	if s, ok := p.(*StitchPlan); ok {
		rows, driver := make([]float64, len(s.Inputs)), 0
		for i, in := range s.Inputs {
			if rows[i] = est.stats(in).Rows; rows[i] < rows[driver] {
				driver = i
			}
		}
		p = &StitchPlan{Inputs: s.Inputs, TIDs: s.TIDs, Cond: s.Cond, Driver: driver, Out: s.Out, Est: rows}
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
	out := newJoinOrderer(est, inputs, preds, true).order()
	newSch, err := out.Schema(est.cat)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(names, newSch.Names()) {
		out = &ProjectPlan{Child: out, Names: names}
	}
	return out, nil
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
// The stitch's estimate runs it without build: it counts rows and
// builds no join.
type joinOrderer struct {
	schs   []Schema    // per input
	stats  []PlanStats // per input
	conjs  []joinConj
	owner  []int         // per input, the subtree that holds it
	ndvCap []float64     // per input, the fewest rows of a merge above it
	subs   []joinSubtree // by the input each started as; all end in subs[0]
	build  bool          // merge builds the join of its two subtrees
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

// joinEnd is a column of one input (in -1: of none), by its position
// there.
type joinEnd struct {
	in, col int
}

// joinSubtree is a tree the orderer built; plan is nil once merged away.
type joinSubtree struct {
	plan Plan
	rows float64
}

func newJoinOrderer(est *estimator, inputs []Plan, conjs []Expr, build bool) *joinOrderer {
	n := len(inputs)
	o := &joinOrderer{schs: make([]Schema, n), stats: make([]PlanStats, n), conjs: make([]joinConj, 0, len(conjs)+n),
		owner: make([]int, n), ndvCap: make([]float64, n), subs: make([]joinSubtree, n), build: build}
	for i, p := range inputs {
		o.schs[i], _ = p.Schema(est.cat) // an error resolves no column; the tree's Schema reports it
		o.stats[i] = est.stats(p)
		o.owner[i], o.ndvCap[i] = i, math.Inf(1)
		o.subs[i] = joinSubtree{plan: p, rows: o.stats[i].Rows}
	}
	ins := make([]int, 0, 2*len(conjs)) // the inputs of each conjunct in turn; most read two
	for _, e := range conjs {
		c := joinConj{e: e}
		start := len(ins)
		resolved := eachColumn(e, func(name string) bool {
			end := o.resolve(name)
			if end.in >= 0 && !slices.Contains(ins[start:], end.in) {
				ins = append(ins, end.in)
			}
			return end.in >= 0
		})
		if c.ins = ins[start:len(ins):len(ins)]; !resolved {
			c.ins, ins = o.every(), ins[:start]
		}
		if cmp, ok := e.(*CmpExpr); ok && cmp.Op == EQ && resolved && len(c.ins) == 2 {
			l, lok := cmp.L.(*ColRef)
			r, rok := cmp.R.(*ColRef)
			if lok && rok {
				c.pair, c.ends = true, [2]joinEnd{o.resolve(l.Name), o.resolve(r.Name)}
			}
		}
		o.conjs = append(o.conjs, c)
	}
	return o
}

// every lists every input: what a conjunct reads that the last merge
// places.
func (o *joinOrderer) every() []int {
	all := make([]int, len(o.schs))
	for i := range all {
		all[i] = i
	}
	return all
}

// addPair adds the conjunct a = b over two column names, as
// newJoinOrderer would resolve it.
func (o *joinOrderer) addPair(a, b string) {
	c := joinConj{ends: [2]joinEnd{o.resolve(a), o.resolve(b)}}
	switch ea, eb := c.ends[0].in, c.ends[1].in; {
	case ea < 0 || eb < 0:
		c.ins = o.every()
	case ea == eb:
		c.ins = []int{ea}
	default:
		c.ins, c.pair = []int{ea, eb}, true
	}
	o.conjs = append(o.conjs, c)
}

// resolve finds the one input a column name resolves in.
func (o *joinOrderer) resolve(name string) joinEnd {
	end := joinEnd{in: -1}
	for i, sch := range o.schs {
		if j := sch.IndexOf(name); j >= 0 {
			if end.in >= 0 {
				return joinEnd{in: -1}
			}
			end = joinEnd{in: i, col: j}
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
	if v := o.stats[e.in].ndvAt(e.col); v >= 0 {
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
			if o.build {
				conds = append(conds, c.e)
			}
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
	if o.build {
		l, r := o.subs[x].plan, o.subs[y].plan
		if o.subs[y].rows < o.subs[x].rows {
			l, r = r, l
		}
		o.subs[x].plan = &JoinPlan{Kind: InnerJoin, L: l, R: r, Cond: And(conds...)}
	}
	o.subs[x].rows = rows
	o.subs[y].plan = nil
}

// result is estimate's figure for the tree order built: its rows and,
// for the columns pick selects from the inputs' concatenated row (nil:
// all of them), every input's NDVs under their caps.
func (o *joinOrderer) result(pick []int) PlanStats {
	width := 0
	for _, sch := range o.schs {
		width += sch.Len()
	}
	return pickStats(o.subs[0].rows, width, pick, func(pos int) float64 {
		i := 0
		for ; pos >= o.schs[i].Len(); i++ {
			pos -= o.schs[i].Len()
		}
		if v := o.stats[i].ndvAt(pos); v >= 0 {
			return math.Min(v, o.ndvCap[i])
		}
		return unknownNDV
	})
}

// pruneColumns inserts projections so leaves only produce columns the
// rest of the plan needs.
func pruneColumns(p Plan, cat *Catalog) (Plan, error) {
	if _, err := p.Schema(cat); err != nil {
		return nil, err
	}
	return pruneNeeding(p, cat, nil)
}

// pruneNeeding rewrites p so it produces (at least) the needed columns,
// dropping unused ones below joins. need marks, by position in p's
// schema, the columns p's parent reads; nil marks every one. It is only
// read.
func pruneNeeding(p Plan, cat *Catalog, need []bool) (Plan, error) {
	switch n := p.(type) {
	case *ProjectPlan:
		childSch, err := n.Child.Schema(cat)
		if err != nil {
			return nil, err
		}
		// The projection keeps the names its parent reads (all of them
		// when it reads none), and they define what's needed below.
		names := n.Names
		if kept := count(need); need != nil && kept > 0 && kept < len(names) {
			names = make([]string, 0, kept)
			for i, name := range n.Names {
				if need[i] {
					names = append(names, name)
				}
			}
		}
		childNeed := make([]bool, childSch.Len())
		for _, name := range names {
			if i := childSch.IndexOf(name); i >= 0 {
				childNeed[i] = true
			}
		}
		child, err := pruneNeeding(n.Child, cat, childNeed)
		if err != nil {
			return nil, err
		}
		if child == n.Child && len(names) == len(n.Names) {
			return p, nil
		}
		return &ProjectPlan{Child: child, Names: names}, nil
	case *FilterPlan:
		sch, err := n.Child.Schema(cat)
		if err != nil {
			return nil, err
		}
		child, err := pruneNeeding(n.Child, cat, markColumns(slices.Clone(need), sch, n.Cond))
		if err != nil || child == n.Child {
			return p, err
		}
		return &FilterPlan{Child: child, Cond: n.Cond}, nil
	case *JoinPlan:
		d := n.derive(cat)
		if d.inErr != nil {
			return nil, d.inErr
		}
		ls, _ := n.L.Schema(cat)
		rs, _ := n.R.Schema(cat)
		if n.Kind != InnerJoin {
			// A semi join's parent reads L's columns: R's are needed only
			// where its condition reads them.
			full := make([]bool, d.full.Len())
			for i := 0; i < ls.Len(); i++ {
				full[i] = need == nil || need[i]
			}
			need = full
		}
		var lNeed, rNeed []bool
		if need = rowNeed(need, d, n.Cond); need != nil {
			lNeed, rNeed = need[:ls.Len()], need[ls.Len():]
		}
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
		if l == n.L && r == n.R {
			return p, nil
		}
		return &JoinPlan{Kind: n.Kind, L: l, R: r, Cond: n.Cond, Out: n.Out}, nil
	case *StitchPlan:
		d := n.derive(cat)
		if d.inErr != nil {
			return nil, d.inErr
		}
		if need = rowNeed(need, d, n.Cond); need != nil {
			for _, t := range n.TIDs {
				if i := d.full.IndexOf(t); i >= 0 {
					need[i] = true
				}
			}
		}
		// Unread input columns cost nothing: the stitch gathers its Out.
		return rewriteInputs(p, func(in Plan) (Plan, error) {
			var inNeed []bool
			if need != nil {
				sch, _ := in.Schema(cat)
				inNeed, need = need[:sch.Len()], need[sch.Len():]
			}
			return pruneNeeding(in, cat, inNeed)
		})
	case *ScanPlan, *ValuesPlan:
		return p, nil
	default:
		// Generic recursion: require everything from children (unions,
		// differences, distinct, renames and extends have positional or
		// full needs).
		return rewriteInputs(p, func(c Plan) (Plan, error) {
			if _, err := c.Schema(cat); err != nil {
				return nil, err
			}
			return pruneNeeding(c, cat, nil)
		})
	}
}

// count is the number of columns need marks.
func count(need []bool) int {
	k := 0
	for _, b := range need {
		if b {
			k++
		}
	}
	return k
}

// rowNeed marks what a join or a stitch of derived facts d needs of its
// inputs' concatenated row: what its parent reads of it — Out's
// columns, when it emits through Out — and what cond reads.
func rowNeed(need []bool, d *joinDerived, cond Expr) []bool {
	if d.pick == nil {
		return markColumns(slices.Clone(need), d.full, cond)
	}
	need = make([]bool, d.full.Len())
	for _, i := range d.pick {
		need[i] = true
	}
	return markColumns(need, d.full, cond)
}

// markColumns marks in need the columns of sch that e reads too, and
// returns it; a nil need (every column) stays nil.
func markColumns(need []bool, sch Schema, e Expr) []bool {
	if need == nil || e == nil {
		return need
	}
	eachColumn(e, func(name string) bool {
		if i := sch.IndexOf(name); i >= 0 {
			need[i] = true
		}
		return true
	})
	return need
}

// maybeProject wraps p in a projection to the columns of sch need marks
// if that strictly drops columns and p writes its rows — an inner join
// or a stitch, which then emits through it (foldProjections). Any other
// node hands its columns over as they are, so a projection above it
// would drop nothing.
func maybeProject(p Plan, sch Schema, need []bool) Plan {
	j, join := p.(*JoinPlan)
	_, stitch := p.(*StitchPlan)
	kept := count(need)
	if !(join && j.Kind == InnerJoin || stitch) || need == nil || kept == 0 || kept >= sch.Len() {
		return p
	}
	// Preserve schema order for determinism.
	ordered := make([]string, 0, kept)
	for i, c := range sch.Cols {
		if need[i] {
			ordered = append(ordered, c.Name)
		}
	}
	return &ProjectPlan{Child: p, Names: ordered}
}
