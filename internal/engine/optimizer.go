package engine

import (
	"math"
)

// Optimize rewrites a logical plan using the classical rule set:
//
//  1. split conjunctive filters and absorb filters into join conditions,
//  2. push selections as far down as schemas allow (through projects,
//     renames, unions, and into join inputs),
//  3. reorder trees of inner joins greedily by estimated cardinality,
//     from the smallest input outward (System-R-style, avoiding cross
//     products when possible) — a stitch is one input of such a tree,
//     driven by its own input estimated smallest,
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

// joinLeaf is one input of a flattened join chain.
type joinLeaf struct {
	plan Plan
	sch  Schema
}

// orderJoins flattens each maximal tree of inner joins — two inputs or
// twenty — and reassembles it greedily by estimated output cardinality:
// the tree starts at its smallest input, and the smaller side of a hash
// join is the side it builds on. A relation is one input, whatever
// number of partitions its stitch merges; the stitch is driven by the
// partition estimated smallest — a filtered or index-scanned one, where
// there is one. One estimator serves the
// whole pass, so each leaf and each candidate join is estimated once.
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
	var leaves []joinLeaf
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
		sch, err := q.Schema(est.cat)
		if err != nil {
			return err
		}
		leaves = append(leaves, joinLeaf{plan: q, sch: sch})
		return nil
	}
	if err := collect(n); err != nil {
		return nil, err
	}
	out, err := greedyJoin(leaves, preds, est)
	if err != nil {
		return nil, err
	}
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

// greedyJoin picks the smallest leaf, then repeatedly joins in the leaf
// that minimizes the estimated result size, preferring connected leaves
// over cross products. Only an equi conjunct connects two inputs: the ψ
// descriptor-consistency disjuncts span every pair of uncertain inputs
// and filter almost nothing, so a join they alone "connect" is a cross
// product with a residual. They still ride on the first join that
// covers them.
func greedyJoin(leaves []joinLeaf, preds []Expr, est *estimator) (Plan, error) {
	used := make([]bool, len(leaves))
	applied := make([]bool, len(preds))
	// Every conjunct is tried against every candidate join of every
	// round, so its columns are listed once.
	predCols := make([][]string, len(preds))
	for pi, pr := range preds {
		predCols[pi] = ExprColumns(pr)
	}

	// Start from the leaf with the smallest estimated cardinality.
	best := 0
	bestRows := math.Inf(1)
	for i, lf := range leaves {
		r := est.stats(lf.plan).Rows
		if r < bestRows {
			bestRows = r
			best = i
		}
	}
	used[best] = true
	cur := leaves[best].plan
	curSch := leaves[best].sch
	remaining := len(leaves) - 1

	for remaining > 0 {
		type cand struct {
			idx       int
			plan      Plan
			rows      float64
			connected bool
		}
		var bestCand *cand
		for i, lf := range leaves {
			if used[i] {
				continue
			}
			joined := curSch.Concat(lf.sch)
			var conds []Expr
			connected := false
			for pi, pr := range preds {
				if applied[pi] {
					continue
				}
				if cols := predCols[pi]; hasAll(joined, cols) && !hasAll(curSch, cols) && !hasAll(lf.sch, cols) {
					conds = append(conds, pr)
					if pairs, _ := ExtractEquiJoin(pr, curSch, lf.sch); len(pairs) > 0 {
						connected = true
					}
				}
			}
			jp := &JoinPlan{Kind: InnerJoin, L: cur, R: lf.plan, Cond: And(conds...)}
			rows := est.stats(jp).Rows
			c := &cand{idx: i, plan: jp, rows: rows, connected: connected}
			if bestCand == nil ||
				(c.connected && !bestCand.connected) ||
				(c.connected == bestCand.connected && c.rows < bestCand.rows) {
				bestCand = c
			}
		}
		// Apply the chosen join and mark its predicates used.
		lf := leaves[bestCand.idx]
		joined := curSch.Concat(lf.sch)
		var conds []Expr
		for pi, pr := range preds {
			if applied[pi] {
				continue
			}
			if hasAll(joined, predCols[pi]) {
				conds = append(conds, pr)
				applied[pi] = true
			}
		}
		cur = &JoinPlan{Kind: InnerJoin, L: cur, R: lf.plan, Cond: And(conds...)}
		curSch = joined
		used[bestCand.idx] = true
		remaining--
	}
	// Any predicate not yet applied becomes a filter on top.
	var rest []Expr
	for pi, pr := range preds {
		if !applied[pi] {
			rest = append(rest, pr)
		}
	}
	if len(rest) > 0 {
		return Filter(cur, And(rest...)), nil
	}
	return cur, nil
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
		// The projection itself defines what's needed below.
		child, err := pruneNeeding(n.Child, cat, resolveAll(childSch, n.Names))
		if err != nil {
			return nil, err
		}
		return &ProjectPlan{Child: child, Names: n.Names}, nil
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
		ins := make([]Plan, len(n.Inputs))
		for i, in := range n.Inputs {
			sch, err := in.Schema(cat)
			if err != nil {
				return nil, err
			}
			need := intersectSchema(req, sch)
			if ins[i], err = pruneNeeding(in, cat, need); err != nil {
				return nil, err
			}
			ins[i] = maybeProject(ins[i], sch, need)
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
// columns.
func maybeProject(p Plan, sch Schema, need []string) Plan {
	if len(need) == 0 || len(need) >= sch.Len() {
		return p
	}
	// Preserve schema order for determinism.
	var ordered []string
	nd := map[string]bool{}
	for _, n := range need {
		nd[n] = true
	}
	for _, c := range sch.Cols {
		if nd[c.Name] {
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
