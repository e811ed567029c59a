package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"urel/internal/engine"
	"urel/internal/ws"
)

// NormalizedRow is one tuple of a tuple-level normalized U-relation:
// a singleton (or empty = trivial) descriptor, a tuple id, and values.
type NormalizedRow struct {
	D    ws.Descriptor // len ≤ 1
	TID  int64
	Vals engine.Tuple
}

// NormalizedResult is a tuple-level normalized U-relation, the input
// shape of Lemma 4.3's certain-answer computation.
type NormalizedResult struct {
	W     *ws.WorldTable
	Attrs []string
	Rows  []NormalizedRow
}

// Relation encodes the normalized result as U[var, rng, tid, A...],
// with empty descriptors stored as the trivial assignment.
func (n *NormalizedResult) Relation() *engine.Relation {
	cols := []engine.Column{
		{Name: "u.var", Kind: engine.KindInt},
		{Name: "u.rng", Kind: engine.KindInt},
		{Name: "u.tid", Kind: engine.KindInt},
	}
	for i := range n.Attrs {
		k := engine.KindNull
		for _, r := range n.Rows {
			// Infer the column kind from data.
			if !r.Vals[i].IsNull() {
				k = r.Vals[i].K
				break
			}
		}
		// Positional names avoid collisions between attributes that
		// share an unqualified name (e.g. self-join results).
		cols = append(cols, engine.Column{Name: fmt.Sprintf("u.a%d", i), Kind: k})
	}
	rel := engine.NewRelation(engine.Schema{Cols: cols})
	for _, r := range n.Rows {
		row := make(engine.Tuple, 0, len(cols))
		if len(r.D) == 0 {
			row = append(row, engine.Int(int64(ws.TrivialVar)), engine.Int(0))
		} else {
			row = append(row, engine.Int(int64(r.D[0].Var)), engine.Int(int64(r.D[0].Val)))
		}
		row = append(row, engine.Int(r.TID))
		row = append(row, r.Vals...)
		rel.Append(row)
	}
	return rel
}

// CertainTuplesRA computes the certain tuples of the normalized result
// using only relational algebra — the query of Lemma 4.3,
//
//	π_A( π_Var(W) × π_A(U)  −  π_{Var,A}( W × π_A(U) − π_{Var,Rng,A}(U) ) )
//
// ranging over the (variable, tuple) pairs that occur in U instead of
// all of π_Var(W) × π_A(U):
//
//	π_A( π_{Var,A}(U)  −  π_{Var,A}( W ⋈_Var π_{Var,A}(U) − π_{Var,Rng,A}(U) ) )
//
// A tuple is certain iff some variable x covers it in every world:
// (x -> l, s, t) ∈ U for each l ∈ dom(x). A pair (x, t) outside
// π_{Var,A}(U) has no U-row at all, so the lemma's query puts all of
// dom(x) × t into the inner difference and subtracts (x, t) from the
// outer one: dropping those pairs from both sides changes nothing, and
// every intermediate is linear in U (times a domain size) where the
// cross products were |W| × |π_A(U)|.
func (n *NormalizedResult) CertainTuplesRA() (*engine.Relation, error) {
	return n.certainRA(time.Time{})
}

// certainRA runs the Lemma 4.3 plan, probing the deadline (zero = none)
// before every pull.
func (n *NormalizedResult) certainRA(deadline time.Time) (*engine.Relation, error) {
	plan, cat := n.lemma43Plan()
	plan, err := engine.Optimize(plan, cat)
	if err != nil {
		return nil, err
	}
	it, err := engine.Build(plan, cat, engine.ExecConfig{})
	if err != nil {
		return nil, err
	}
	out, _, err := engine.DrainLimited(it, 0, deadline)
	if errors.Is(err, engine.ErrDeadline) {
		return nil, ErrCertainDeadline
	}
	return out, err
}

// lemma43Plan builds CertainTuplesRA's query over a catalog holding U
// and W.
func (n *NormalizedResult) lemma43Plan() (engine.Plan, *engine.Catalog) {
	cat := engine.NewCatalog()
	cat.Put("U", n.Relation())
	cat.Put("W", n.worldRelation())

	attrCols := make([]string, len(n.Attrs))
	for i := range n.Attrs {
		attrCols[i] = fmt.Sprintf("u.a%d", i)
	}
	// π_{Var,A}(U): the pairs (x, t) with a U-row.
	varA := engine.DistinctOf(engine.Project(engine.Scan("U"),
		append([]string{"u.var"}, attrCols...)...))
	// W ⋈_Var π_{Var,A}(U): every value of x beside each such pair.
	wVarA := engine.Join(engine.Scan("W"), varA, engine.EqCols("w.var", "u.var"))
	// π_{Var,Rng,A}(U)
	varRngA := engine.DistinctOf(engine.Project(engine.Scan("U"),
		append([]string{"u.var", "u.rng"}, attrCols...)...))
	// Variable/value combinations the tuple is missing.
	missing := engine.Diff(
		engine.Project(wVarA, append([]string{"w.var", "w.rng"}, attrCols...)...),
		varRngA)
	// π_{Var,A}(missing): variables that do not fully cover the tuple.
	notCovering := engine.Project(missing, append([]string{"w.var"}, attrCols...)...)
	// Fully covering (var, tuple) pairs, projected to tuples.
	covered := engine.Diff(varA, notCovering)
	return engine.DistinctOf(engine.Project(covered, attrCols...)), cat
}

// worldRelation encodes W[var, rng] restricted to the variables the
// normalized result references — the only ones the join of lemma43Plan
// can match — so the plan reads what the result mentions, whatever else
// the world table holds.
func (n *NormalizedResult) worldRelation() *engine.Relation {
	used := make([]ws.Var, len(n.Rows))
	for i, r := range n.Rows {
		used[i] = ws.TrivialVar
		if len(r.D) > 0 {
			used[i] = r.D[0].Var
		}
	}
	slices.Sort(used)
	sch := engine.NewSchema(
		engine.Column{Name: "w.var", Kind: engine.KindInt},
		engine.Column{Name: "w.rng", Kind: engine.KindInt},
	)
	rel := engine.NewRelation(sch)
	for _, x := range slices.Compact(used) {
		for _, v := range n.W.Domain(x) {
			rel.Append(engine.Tuple{engine.Int(int64(x)), engine.Int(int64(v))})
		}
	}
	return rel
}

// CertainTuplesDirect computes the same set with a direct algorithm
// (per value tuple, check whether some variable's domain is exhausted),
// used to cross-validate the relational query.
func (n *NormalizedResult) CertainTuplesDirect() *engine.Relation {
	type cover struct {
		vals map[ws.Var]map[ws.Val]bool
		row  engine.Tuple
	}
	byTuple := map[string]*cover{}
	order := []string{}
	for _, r := range n.Rows {
		k := engine.KeyString(r.Vals)
		c, ok := byTuple[k]
		if !ok {
			c = &cover{vals: map[ws.Var]map[ws.Val]bool{}, row: r.Vals}
			byTuple[k] = c
			order = append(order, k)
		}
		x, v := ws.TrivialVar, ws.Val(0)
		if len(r.D) > 0 {
			x, v = r.D[0].Var, r.D[0].Val
		}
		if c.vals[x] == nil {
			c.vals[x] = map[ws.Val]bool{}
		}
		c.vals[x][v] = true
	}
	cols := make([]engine.Column, len(n.Attrs))
	for i := range n.Attrs {
		cols[i] = engine.Column{Name: fmt.Sprintf("u.a%d", i), Kind: engine.KindNull}
	}
	out := engine.NewRelation(engine.Schema{Cols: cols})
	for _, k := range order {
		c := byTuple[k]
		for x, seen := range c.vals {
			if len(seen) == n.W.DomainSize(x) {
				out.Rows = append(out.Rows, c.row)
				break
			}
		}
	}
	return out
}

// CertainPathStats counts the answer tuples of one CertainTuples call by
// the path that decided them: Labelled had a representation row with an
// empty descriptor, Pipeline were found by normalization + Lemma 4.3.
type CertainPathStats struct {
	Labelled int
	Pipeline int
}

// ErrCertainDeadline reports that a certain-answer computation exceeded
// its deadline.
var ErrCertainDeadline = errors.New("core: certain-answer deadline exceeded")

// CertainTuples computes the certain answers of the result: the value
// tuples present in every world, under the result's attribute names. A
// tuple with a row whose descriptor is empty is in every world by
// inspection (the certain label of Feng & Glavic's UA-DBs; in Lemma 4.3
// it is the tuple covered by the trivial variable, whose one-value
// domain a single row exhausts) and is emitted outright. Only the rows
// of the remaining tuples are normalized and put through the lemma's
// query, so the pipeline costs what the uncertain part of the answer
// holds. The deadline (zero = none) is probed throughout; past it the
// error is ErrCertainDeadline.
func (r *UResult) CertainTuples(deadline time.Time) (*engine.Relation, CertainPathStats, error) {
	out := engine.NewRelation(r.attrSchema())
	rest := &UResult{W: r.W, Attrs: r.Attrs}
	for _, g := range r.groupDescriptors() {
		if slices.ContainsFunc(g.ds, trivialDescriptor) {
			out.Rows = append(out.Rows, g.vals)
			continue
		}
		for _, d := range g.ds {
			rest.Rows = append(rest.Rows, UResultRow{D: d, Vals: g.vals})
		}
	}
	stats := CertainPathStats{Labelled: len(out.Rows)}
	if len(rest.Rows) == 0 {
		return out, stats, nil
	}
	norm, err := rest.normalize(deadlineChecker(deadline, ErrCertainDeadline))
	if err != nil {
		return nil, CertainPathStats{}, err
	}
	covered, err := norm.certainRA(deadline)
	if err != nil {
		return nil, CertainPathStats{}, err
	}
	stats.Pipeline = len(covered.Rows)
	out.Rows = append(out.Rows, covered.Rows...)
	return out, stats, nil
}

// trivialDescriptor reports whether d holds in every world: it is empty
// but for the trivial assignments padding leaves.
func trivialDescriptor(d ws.Descriptor) bool {
	return !slices.ContainsFunc(d, func(a ws.Assignment) bool { return a.Var != ws.TrivialVar })
}

// CertainAnswers evaluates q with full partition merging and computes
// the certain answers of the result (CertainTuples) with the default
// execution configuration — the paper's recipe for certain answers on
// U-relations.
func (db *UDB) CertainAnswers(q Query) (*engine.Relation, error) {
	return db.CertainAnswersCfg(q, engine.ExecConfig{})
}

// CertainAnswersCfg is CertainAnswers under an explicit execution
// configuration (optimizer, join algorithm) for the query
// evaluation step.
func (db *UDB) CertainAnswersCfg(q Query, cfg engine.ExecConfig) (*engine.Relation, error) {
	if _, ok := q.(*PossQ); ok {
		return nil, fmt.Errorf("core: certain answers of a poss query are its possible answers")
	}
	res, err := db.Eval(q, cfg)
	if err != nil {
		return nil, err
	}
	rel, _, err := res.CertainTuples(time.Time{})
	return rel, err
}
