package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"urel/internal/engine"
	"urel/internal/ws"
)

// ULayout describes how a translated (representation-level) relation
// encodes a U-relation: which engine columns hold ws-descriptor pairs,
// tuple ids, and value attributes. Physical value-attribute columns are
// named exactly by their qualified logical names, so logical conditions
// bind directly.
type ULayout struct {
	// DPairs lists (varColumn, rngColumn) name pairs of the descriptor.
	DPairs [][2]string
	// TIDs lists tuple-id column names, one per relation instance
	// (alias) contributing to the result.
	TIDs []string
	// Attrs lists the qualified value-attribute column names in order.
	Attrs []string
	// Picks records, for a single-relation translation, which vertical
	// partitions the merge included and each one's own descriptor-pair
	// columns — the information the write path needs to recover a
	// partition row's identity (descriptor, tuple id) from a result
	// row. Selections preserve it; joins, projections, and unions drop
	// it (their results no longer correspond to one relation's rows).
	Picks []PartPick
}

// PartPick names one partition's contribution to a translated
// relation: its index in the relation's partition list and its
// descriptor-pair column names in the translated schema.
type PartPick struct {
	Part   int
	DPairs [][2]string
}

// Columns returns all column names in canonical order (D, T, A) — the
// paper's U[D; T; A] layout.
func (l *ULayout) Columns() []string {
	out := make([]string, 0, 2*len(l.DPairs)+len(l.TIDs)+len(l.Attrs))
	for _, dp := range l.DPairs {
		out = append(out, dp[0], dp[1])
	}
	out = append(out, l.TIDs...)
	out = append(out, l.Attrs...)
	return out
}

// translator carries state for one query translation.
type translator struct {
	db      *UDB
	unameCt int // counter for fresh union-pad column names
	// full forces merging all partitions of every referenced relation
	// (TranslateFull). Otherwise each relation occurrence merges only the
	// partitions its query needs where that is exact, and all of them
	// where it is not (URelSet.lazyExact).
	full bool
	// attrs holds each query node's attributes once worked out (attrsOf).
	attrs map[Query][]string
}

// attrsOf is q's attributes, worked out once per translation.
func (tr *translator) attrsOf(q Query) ([]string, error) { return attrsOf(q, tr.db, tr.attrs) }

// Translate compiles a positive relational algebra query with poss into
// a plain relational algebra plan over the U-relational representation
// (the [[·]] translation of Figure 4). For a query without a top-level
// poss the returned layout describes the result U-relation; for a
// poss-query the layout is nil and the plan computes the set of
// possible answer tuples directly.
//
// It is the translation of every answer mode. Each occurrence of an
// existence-complete relation merges only the partitions whose
// attributes the query needs ("it does not require to reconstruct the
// entire relations involved in the query", Section 3): every row's
// descriptor then implies that its tuple exists, so the result's
// descriptors say in which worlds each answer tuple exists — exact for
// possible and certain answers and for confidence. An occurrence of any
// other relation merges all of its partitions, as TranslateFull does.
func (db *UDB) Translate(q Query) (engine.Plan, *ULayout, error) {
	return db.translateMode(q, false)
}

// TranslateFull compiles q with full partition merging of every
// referenced relation, whatever its existence-complete bit says: the
// result's ws-descriptors are tuple-level, each the conjunction of the
// descriptors of every partition of its tuples. It is the reference
// Translate is held to, and what DML matches on (a tombstone needs every
// partition's descriptor). With disjoint partitions it is always exact.
// With overlapping ones the greedy cover skips a partition whose
// attributes the others supply, so exactness assumes that a tuple is
// present in every partition covering it in every world it exists in —
// which existence-completeness guarantees.
func (db *UDB) TranslateFull(q Query) (engine.Plan, *ULayout, error) {
	return db.translateMode(q, true)
}

func (db *UDB) translateMode(q Query, full bool) (engine.Plan, *ULayout, error) {
	if _, err := collectAliases(q); err != nil {
		return nil, nil, err
	}
	tr := &translator{db: db, full: full, attrs: map[Query][]string{}}
	if p, ok := q.(*PossQ); ok {
		plan, lay, err := tr.translate(p.Q, nil)
		if err != nil {
			return nil, nil, err
		}
		// poss(Q) := π_A(U), a duplicate-eliminating projection on the
		// value attributes.
		return engine.DistinctOf(engine.Project(plan, lay.Attrs...)), nil, nil
	}
	plan, lay, err := tr.translate(q, nil)
	if err != nil {
		return nil, nil, err
	}
	return plan, lay, nil
}

// translate compiles q; need lists the qualified value attributes
// required by ancestors (nil = all output attributes). Needed-attribute
// propagation is what lets the translation merge in only the necessary
// vertical partitions (Section 3, "it does not require to reconstruct
// the entire relations involved in the query").
func (tr *translator) translate(q Query, need []string) (engine.Plan, *ULayout, error) {
	switch n := q.(type) {
	case *RelQ:
		return tr.translateRel(n, need)
	case *SelectQ:
		childNeed, err := tr.extendNeed(n.Q, need, engine.ExprColumns(n.Cond))
		if err != nil {
			return nil, nil, err
		}
		plan, lay, err := tr.translate(n.Q, childNeed)
		if err != nil {
			return nil, nil, err
		}
		// Analysis: the condition must resolve unambiguously against
		// the value attributes (before the optimizer moves it around).
		if err := checkCondBinds(n.Cond, lay.Attrs, nil); err != nil {
			return nil, nil, err
		}
		// [[σ_φ(Q)]] := σ_φ(U): conditions apply to value attributes,
		// whose physical columns carry the logical names.
		return engine.Filter(plan, n.Cond), lay, nil
	case *ProjectQ:
		attrs, err := tr.attrsOf(n)
		if err != nil {
			return nil, nil, err
		}
		plan, lay, err := tr.translate(n.Q, attrs)
		if err != nil {
			return nil, nil, err
		}
		// [[π_X(Q)]] := π_{D,T,X}(U): descriptors and tuple ids are
		// preserved.
		out := &ULayout{DPairs: lay.DPairs, TIDs: lay.TIDs, Attrs: attrs}
		return engine.Project(plan, out.Columns()...), out, nil
	case *JoinQ:
		lAttrs, rAttrs, err := bothAttrs(n.L, n.R, tr.db, tr.attrs)
		if err != nil {
			return nil, nil, err
		}
		condAttrs := engine.ExprColumns(n.Cond)
		lNeed := splitNeed(need, condAttrs, lAttrs)
		rNeed := splitNeed(need, condAttrs, rAttrs)
		lp, ll, err := tr.translate(n.L, lNeed)
		if err != nil {
			return nil, nil, err
		}
		rp, rl, err := tr.translate(n.R, rNeed)
		if err != nil {
			return nil, nil, err
		}
		if err := checkCondBinds(n.Cond, ll.Attrs, rl.Attrs); err != nil {
			return nil, nil, err
		}
		// [[Q1 ⋈_φ Q2]] := π_{D1,D2,T1,T2,A,B}(U1 ⋈_{φ∧ψ} U2), where ψ
		// discards combinations with inconsistent ws-descriptors.
		cond := engine.And(n.Cond, psiCond(ll.DPairs, rl.DPairs))
		out := &ULayout{DPairs: concat(ll.DPairs, rl.DPairs), TIDs: concat(ll.TIDs, rl.TIDs), Attrs: concat(ll.Attrs, rl.Attrs)}
		return engine.Join(lp, rp, cond), out, nil
	case *UnionQ:
		return tr.translateUnion(n, need)
	case *PossQ:
		return nil, nil, fmt.Errorf("core: poss is only supported at the top level of a query")
	default:
		return nil, nil, fmt.Errorf("core: unsupported query node %T", q)
	}
}

// translateRel merges the necessary vertical partitions of a logical
// relation (the merge operator of Figure 4: U1 ⋈_{α∧ψ} U2 projected to
// a single tuple-id set) with one stitch of all of them.
func (tr *translator) translateRel(n *RelQ, need []string) (engine.Plan, *ULayout, error) {
	rs, ok := tr.db.Rels[n.Name]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown relation %q", n.Name)
	}
	alias := n.alias()
	// Determine the unqualified attributes this occurrence must produce:
	// those the query needs, or all of them where reading fewer
	// partitions is not exact. The leaves of a chain merged fully for
	// that reason say so in EXPLAIN.
	wanted := rs.Attrs
	mark := ""
	if need != nil && !tr.full {
		wanted = nil
		prefix := alias + "."
		for _, a := range need {
			if len(a) > len(prefix) && a[:len(prefix)] == prefix {
				wanted = append(wanted, a[len(prefix):])
			}
		}
		if !rs.lazyExact() {
			for _, a := range rs.Attrs {
				if !slices.Contains(wanted, a) {
					mark = fullMergeMark
				}
			}
			wanted = rs.Attrs
		}
	}
	// Greedy partition cover: take partitions (in declaration order)
	// while they contribute uncovered wanted attributes.
	var covered []string
	type chosen struct {
		part    *URelation
		pidx    int
		contrib []string
	}
	var picks []chosen
	for pi, p := range rs.Parts {
		k := len(covered)
		for _, a := range p.Attrs {
			if !slices.Contains(covered[:k], a) && slices.Contains(wanted, a) {
				covered = append(covered, a)
			}
		}
		if len(covered) > k {
			picks = append(picks, chosen{part: p, pidx: pi, contrib: covered[k:len(covered):len(covered)]})
		}
	}
	for _, a := range wanted {
		if !slices.Contains(covered, a) {
			return nil, nil, fmt.Errorf("core: attribute %s.%s not covered by any partition", n.Name, a)
		}
	}
	if len(picks) == 0 {
		// A projection to zero attributes still needs tuple existence:
		// use the first partition for tuple ids.
		if len(rs.Parts) == 0 {
			return nil, nil, fmt.Errorf("core: relation %q has no partitions", n.Name)
		}
		picks = append(picks, chosen{part: rs.Parts[0], pidx: 0})
	}
	// Encode and merge: merge(U1, …, Uk) := π_{D1..Dk,T1,A1..Ak}(U1 ⋈_{α∧ψ}
	// … ⋈_{α∧ψ} Uk), where α equates the partitions' tuple ids and ψ
	// discards inconsistent descriptor combinations — one stitch of all
	// of them, which merges their tid-ordered rows.
	if len(picks) == 1 {
		scan, lay := tr.encodePartition(picks[0].part, alias, picks[0].pidx, picks[0].contrib, mark)
		lay.Picks = []PartPick{{Part: picks[0].pidx, DPairs: lay.DPairs}}
		return scan, lay, nil
	}
	lay := &ULayout{Picks: make([]PartPick, 0, len(picks))}
	inputs, tids, psi := make([]engine.Plan, 0, len(picks)), make([]string, 0, len(picks)), make([]engine.Expr, 0, len(picks)-1)
	for _, pick := range picks {
		scan, slay := tr.encodePartition(pick.part, alias, pick.pidx, pick.contrib, mark)
		if len(lay.DPairs) > 0 && len(slay.DPairs) > 0 {
			psi = append(psi, psiCond(lay.DPairs, slay.DPairs))
		}
		inputs, tids = append(inputs, scan), append(tids, slay.TIDs[0])
		lay.DPairs = append(lay.DPairs, slay.DPairs...)
		lay.Attrs = append(lay.Attrs, slay.Attrs...)
		lay.Picks = append(lay.Picks, PartPick{Part: pick.pidx, DPairs: slay.DPairs})
	}
	lay.TIDs = tids[:1] // T1 ∪ … ∪ Tk = T1 for partitions of one relation
	var cond engine.Expr
	if len(psi) > 0 {
		cond = engine.And(psi...)
	}
	// One projection over the stitch drops the other partitions' tid
	// columns; the optimizer folds it into the stitch's output.
	return engine.Project(engine.Stitch(inputs, tids, cond), lay.Columns()...), lay, nil
}

// encodePartition plans one partition as an engine relation with unique
// column names: descriptor pairs "<alias>.p<j>.d<k>v/r", tuple id
// "tid:<alias>.p<j>", and the contributed attributes under their
// qualified logical names. An in-memory partition is a scan of its
// image — the rows every query shares — under these names, narrowed by
// a projection when the query wants only some of its attributes. mark,
// when not empty, is appended to the leaf's EXPLAIN name.
func (tr *translator) encodePartition(u *URelation, alias string, pidx int, contrib []string, mark string) (engine.Plan, *ULayout) {
	var img *image
	var width int
	var kinds []engine.Kind
	if u.Back != nil {
		width, kinds = u.Back.DescriptorWidth(), u.Back.AttrKinds()
	} else {
		img = u.image()
		width, kinds = img.width, img.kinds
	}
	part := alias + ".p" + strconv.Itoa(pidx)
	tidCol := "tid:" + part
	lay := &ULayout{DPairs: make([][2]string, width), TIDs: []string{tidCol}, Attrs: make([]string, 0, len(contrib))}
	cols := make([]engine.Column, 0, 2*width+1+len(u.Attrs))
	for k := range lay.DPairs {
		d := part + ".d" + strconv.Itoa(k)
		lay.DPairs[k] = [2]string{d + "v", d + "r"}
		cols = append(cols,
			engine.Column{Name: lay.DPairs[k][0], Kind: engine.KindInt},
			engine.Column{Name: lay.DPairs[k][1], Kind: engine.KindInt})
	}
	cols = append(cols, engine.Column{Name: tidCol, Kind: engine.KindInt})
	// The contributed attributes, which translateRel lists in the
	// partition's order, under their qualified names: a stored leaf reads
	// only them, an in-memory one scans every attribute of the image.
	attrIdx := make([]int, 0, len(contrib))
	for ai, a := range u.Attrs {
		contributed := len(attrIdx) < len(contrib) && contrib[len(attrIdx)] == a
		if !contributed && u.Back != nil {
			continue
		}
		q := alias + "." + a
		if cols = append(cols, engine.Column{Name: q, Kind: kinds[ai]}); contributed {
			lay.Attrs, attrIdx = append(lay.Attrs, q), append(attrIdx, ai)
		}
	}
	name := u.Name
	if alias != u.RelName {
		name = u.Name + "#" + alias
	}
	name += mark
	if u.Back != nil {
		// Storage-backed partition: plan a lazy segment scan instead of
		// materializing; cold data feeds the engine batch-by-batch.
		return u.Back.ScanPlan(engine.Schema{Cols: cols}, width, attrIdx, name), lay
	}
	whole := len(attrIdx) == len(u.Attrs)
	sch := engine.Schema{Cols: cols}
	leaf := &engine.ValuesPlan{Batch: &engine.ColBatch{Sch: sch, Cols: img.cols, N: img.n}, Name: name, Stats: img.tableStats, Runs: img.run, Sorted: tidCol}
	if whole {
		return leaf, lay
	}
	return engine.Project(leaf, lay.Columns()...), lay
}

// EncodeRows lays rows of nattrs attributes out as the columns of the
// positional U-layout, in tuple-id order — a stable sort, so a tuple's
// alternatives keep their order — which is the order a stitch merges
// in: width (var, rng) descriptor pairs and the tuple id as int vectors
// cut from one arena, then every attribute as engine.BuildColVec lays it
// out. It encodes an in-memory partition's image and a stored
// partition's in-memory tail alike.
func EncodeRows(rows []URow, width, nattrs int) []engine.ColVec {
	n := len(rows)
	if !slices.IsSortedFunc(rows, byTID) {
		rows = slices.Clone(rows)
		slices.SortStableFunc(rows, byTID)
	}
	cols := make([]engine.ColVec, 0, 2*width+1+nattrs)
	ints := make([]int64, (2*width+1)*n)
	for c := 0; c <= 2*width; c++ {
		cols = append(cols, engine.IntVec(ints[c*n:(c+1)*n:(c+1)*n], nil))
	}
	for i, r := range rows {
		// Short descriptors are padded by repeating their first
		// assignment (ws.Descriptor.Pad), the trivial one when empty.
		fill := ws.Assignment{Var: ws.TrivialVar}
		if len(r.D) > 0 {
			fill = r.D[0]
		}
		for k := 0; k < width; k++ {
			a := fill
			if k < len(r.D) {
				a = r.D[k]
			}
			cols[2*k].Ints[i] = int64(a.Var)
			cols[2*k+1].Ints[i] = int64(a.Val)
		}
		cols[2*width].Ints[i] = r.TID
	}
	for ai := 0; ai < nattrs; ai++ {
		cols = append(cols, engine.BuildColVec(n, func(i int) engine.Value { return rows[i].Vals[ai] }))
	}
	return cols
}

func byTID(a, b URow) int { return cmp.Compare(a.TID, b.TID) }

// translateUnion implements the union of Figure 4's discussion: both
// sides are brought to a common schema by padding the smaller
// ws-descriptors with already-contained assignments (or the trivial
// assignment) and adding empty (NULL) tuple-id columns for the other
// side's relations; then a standard union applies.
func (tr *translator) translateUnion(n *UnionQ, need []string) (engine.Plan, *ULayout, error) {
	lAttrs, rAttrs, err := bothAttrs(n.L, n.R, tr.db, tr.attrs)
	if err != nil {
		return nil, nil, err
	}
	if len(lAttrs) != len(rAttrs) {
		return nil, nil, fmt.Errorf("core: union arity mismatch: %d vs %d", len(lAttrs), len(rAttrs))
	}
	// Map the needed attributes positionally to each side.
	var lNeed, rNeed []string
	if need != nil {
		for i, a := range lAttrs {
			if slices.Contains(need, a) {
				lNeed = append(lNeed, a)
				rNeed = append(rNeed, rAttrs[i])
			}
		}
		if len(lNeed) == 0 {
			// Keep at least one attribute for tuple existence.
			lNeed, rNeed = lAttrs[:1], rAttrs[:1]
		}
	}
	lp, ll, err := tr.translate(n.L, lNeed)
	if err != nil {
		return nil, nil, err
	}
	rp, rl, err := tr.translate(n.R, rNeed)
	if err != nil {
		return nil, nil, err
	}
	if len(ll.Attrs) != len(rl.Attrs) {
		return nil, nil, fmt.Errorf("core: union attr mismatch after translation: %v vs %v", ll.Attrs, rl.Attrs)
	}
	width := len(ll.DPairs)
	if len(rl.DPairs) > width {
		width = len(rl.DPairs)
	}
	if width == 0 {
		width = 1 // always carry at least the trivial descriptor
	}
	tr.unameCt++
	// Target layout: fresh descriptor column names, the union of both
	// sides' tuple-id columns, and the left side's attribute names.
	target := &ULayout{}
	for k := 0; k < width; k++ {
		target.DPairs = append(target.DPairs, [2]string{
			fmt.Sprintf("un%d.d%dv", tr.unameCt, k),
			fmt.Sprintf("un%d.d%dr", tr.unameCt, k),
		})
	}
	target.TIDs = append(append([]string{}, ll.TIDs...), rl.TIDs...)
	target.Attrs = ll.Attrs

	lSide, err := unionSide(lp, ll, target, width, ll.TIDs, rl.TIDs, ll.Attrs)
	if err != nil {
		return nil, nil, err
	}
	rSide, err := unionSide(rp, rl, target, width, ll.TIDs, rl.TIDs, rl.Attrs)
	if err != nil {
		return nil, nil, err
	}
	return engine.Union(lSide, rSide), target, nil
}

// unionSide pads one union input to the target layout. ownTIDsL/R give
// the target's tid column order (left's then right's); the side whose
// tid columns are absent gets NULL-extended.
func unionSide(p engine.Plan, lay, target *ULayout, width int, tidsL, tidsR, attrs []string) (engine.Plan, error) {
	var ext []engine.NamedExpr
	// Pad descriptors by repeating the first assignment (or trivial).
	var padV, padR engine.Expr
	if len(lay.DPairs) > 0 {
		padV = engine.Col(lay.DPairs[0][0])
		padR = engine.Col(lay.DPairs[0][1])
	} else {
		padV = engine.ConstInt(int64(ws.TrivialVar))
		padR = engine.ConstInt(0)
	}
	padCols := make([][2]string, width)
	for k := 0; k < width; k++ {
		if k < len(lay.DPairs) {
			padCols[k] = lay.DPairs[k]
			continue
		}
		vc := target.DPairs[k][0] + "~pad"
		rc := target.DPairs[k][1] + "~pad"
		ext = append(ext,
			engine.NamedExpr{Name: vc, E: padV, Kind: engine.KindInt},
			engine.NamedExpr{Name: rc, E: padR, Kind: engine.KindInt})
		padCols[k] = [2]string{vc, rc}
	}
	// NULL tuple-id columns for the other side's relations.
	own := map[string]bool{}
	for _, t := range lay.TIDs {
		own[t] = true
	}
	tidCols := make([]string, 0, len(tidsL)+len(tidsR))
	for _, t := range append(append([]string{}, tidsL...), tidsR...) {
		if own[t] {
			tidCols = append(tidCols, t)
			continue
		}
		nc := t + "~null"
		ext = append(ext, engine.NamedExpr{Name: nc, E: engine.Const(engine.Null()), Kind: engine.KindInt})
		tidCols = append(tidCols, nc)
	}
	if len(ext) > 0 {
		p = engine.Extend(p, ext...)
	}
	// Project into target positional order, then rename to the target's
	// column names.
	var order []string
	for k := 0; k < width; k++ {
		order = append(order, padCols[k][0], padCols[k][1])
	}
	order = append(order, tidCols...)
	order = append(order, attrs...)
	p = engine.Project(p, order...)
	return engine.Rename(p, target.Columns()), nil
}

// psiCond builds the ψ condition of Figure 4: for every descriptor pair
// (D', D”) across the two sides, D'.Var = D”.Var ⇒ D'.Rng = D”.Rng,
// i.e. (D'.Var <> D”.Var OR D'.Rng = D”.Rng).
func psiCond(a, b [][2]string) engine.Expr {
	// Expressions are immutable, so the conjuncts share one reference to
	// each column.
	cols := func(ds [][2]string) [][2]engine.Expr {
		refs := make([][2]engine.Expr, len(ds))
		for i, d := range ds {
			refs[i] = [2]engine.Expr{engine.Col(d[0]), engine.Col(d[1])}
		}
		return refs
	}
	ar, br := cols(a), cols(b)
	conjs := make([]engine.Expr, 0, len(a)*len(b))
	for _, da := range ar {
		for _, db := range br {
			conjs = append(conjs, engine.Or(engine.Cmp(engine.NE, da[0], db[0]), engine.Cmp(engine.EQ, da[1], db[1])))
		}
	}
	return engine.And(conjs...)
}

// extendNeed resolves extra attribute references (e.g. from a selection
// condition) against q's output attributes and unions them into need.
// A nil need stays nil (= all attributes).
func (tr *translator) extendNeed(q Query, need []string, extra []string) ([]string, error) {
	if need == nil {
		return nil, nil
	}
	attrs, err := tr.attrsOf(q)
	if err != nil {
		return nil, err
	}
	out := append([]string{}, need...)
	for _, e := range extra {
		r, err := resolveAttr(e, attrs)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// splitNeed selects, from need plus the join condition's attributes,
// those that belong to a side with output attributes sideAttrs. A
// condition attribute may be unqualified: it is the side's when it
// resolves among sideAttrs, and the other side's when it does not.
func splitNeed(need []string, condAttrs []string, sideAttrs []string) []string {
	if need == nil {
		return nil
	}
	var out []string
	for _, a := range need {
		if slices.Contains(sideAttrs, a) {
			out = append(out, a)
		}
	}
	for _, c := range condAttrs {
		if r, n := findAttr(c, sideAttrs); n == 1 && !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// concat is a new slice of a's elements followed by b's.
func concat[T any](a, b []T) []T {
	return append(append(make([]T, 0, len(a)+len(b)), a...), b...)
}

// checkCondBinds validates that every column reference in cond resolves
// uniquely against the attribute names of l and then r (SQL-style
// analysis before optimization; the engine's suffix resolution rejects
// ambiguity).
func checkCondBinds(cond engine.Expr, l, r []string) error {
	if cond == nil {
		return nil
	}
	cols := make([]engine.Column, 0, len(l)+len(r))
	for _, attrs := range [2][]string{l, r} {
		for _, a := range attrs {
			cols = append(cols, engine.Column{Name: a})
		}
	}
	sch := engine.Schema{Cols: cols}
	if engine.CoveredBy(cond, sch) {
		return nil
	}
	_, err := cond.Bind(sch)
	return fmt.Errorf("core: condition %s: %w", cond, err)
}
