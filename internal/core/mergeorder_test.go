package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
	"urel/internal/ws"
)

// shuffleJoins rewrites every tree of inner joins in p — a join of
// relations — into a left-deep tree over the same inputs in a random
// order, each conjunct on the first join that covers it, and every
// stitch of a relation's partitions into one over its inputs in a random
// order with a random driver: the same query, written by someone else.
func shuffleJoins(t *testing.T, rng *rand.Rand, p engine.Plan) engine.Plan {
	t.Helper()
	if s, ok := p.(*engine.StitchPlan); ok {
		// A stitch's inputs in another order, driven by any of them.
		c := engine.StitchPlan{Inputs: append([]engine.Plan(nil), s.Inputs...), TIDs: append([]string(nil), s.TIDs...), Cond: s.Cond, Out: s.Out}
		for i := range c.Inputs {
			c.Inputs[i] = shuffleJoins(t, rng, c.Inputs[i])
		}
		rng.Shuffle(len(c.Inputs), func(a, b int) {
			c.Inputs[a], c.Inputs[b] = c.Inputs[b], c.Inputs[a]
			c.TIDs[a], c.TIDs[b] = c.TIDs[b], c.TIDs[a]
		})
		c.Driver = rng.Intn(len(c.Inputs))
		return &c
	}
	j, ok := p.(*engine.JoinPlan)
	if !ok || j.Kind != engine.InnerJoin {
		ch := p.Children()
		if len(ch) == 0 {
			return p
		}
		out := make([]engine.Plan, len(ch))
		for i, c := range ch {
			out[i] = shuffleJoins(t, rng, c)
		}
		return p.WithChildren(out)
	}
	var leaves []engine.Plan
	var preds []engine.Expr
	var collect func(q engine.Plan)
	collect = func(q engine.Plan) {
		if in, ok := q.(*engine.JoinPlan); ok && in.Kind == engine.InnerJoin {
			collect(in.L)
			collect(in.R)
			preds = append(preds, engine.SplitConjuncts(in.Cond)...)
			return
		}
		leaves = append(leaves, shuffleJoins(t, rng, q))
	}
	collect(j)
	rng.Shuffle(len(leaves), func(a, b int) { leaves[a], leaves[b] = leaves[b], leaves[a] })
	cat := engine.NewCatalog()
	cur := leaves[0]
	for _, leaf := range leaves[1:] {
		// The pair's schema is read off a condition-less probe node; the
		// join is built afresh with its condition, since a plan node is
		// never written once built.
		sch, err := engine.Join(cur, leaf, nil).Schema(cat)
		if err != nil {
			t.Fatal(err)
		}
		var conds, rest []engine.Expr
		for _, pr := range preds {
			if engine.CoveredBy(pr, sch) {
				conds = append(conds, pr)
			} else {
				rest = append(rest, pr)
			}
		}
		cur, preds = engine.Join(cur, leaf, engine.And(conds...)), rest
	}
	if len(preds) > 0 {
		t.Fatalf("shuffled join tree covers no input of %v", preds)
	}
	return cur
}

// selectiveQuery draws a query whose selection reads one attribute — so
// one partition — of a relation and whose output needs others: the
// shape whose merge chain the optimizer starts at the selected
// partition. One time in three it is joined with a second relation.
func selectiveQuery(rng *rand.Rand, db *core.UDB) core.Query {
	rels := db.RelNames()
	name := rels[rng.Intn(len(rels))]
	attrs := db.Rels[name].Attrs
	a := "t." + attrs[rng.Intn(len(attrs))]
	cond := engine.Cmp(engine.CmpOp(rng.Intn(6)), engine.Col(a), engine.ConstInt(int64(rng.Intn(3))))
	var q core.Query = core.Select(core.RelAs(name, "t"), cond)
	if rng.Intn(3) == 0 {
		other := rels[rng.Intn(len(rels))]
		oattrs := db.Rels[other].Attrs
		q = core.Join(q, core.RelAs(other, "o"), engine.Eq(engine.Col(a), engine.Col("o."+oattrs[rng.Intn(len(oattrs))])))
	}
	if rng.Intn(2) == 0 {
		attrs, _ := q.Attrs(db)
		out := append([]string(nil), attrs...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		q = core.Project(q, out[:1+rng.Intn(len(out))]...)
	}
	return q
}

// TestPropertyMergeOrderIsFree: on random U-relations, for a selection
// on a random partition, the possible answers of the lazy translation
// are the worlds' (PossibleGroundTruth) and the rows of the full
// translation are, world by world, the query's answer in that world —
// whatever order the partitions were merged in. Each translated plan is
// run as the optimizer orders it and with its join trees shuffled
// first, optimized and not, in memory and over the saved and reopened
// database (whose merges probe column batches).
func TestPropertyMergeOrderIsFree(t *testing.T) {
	const maxWorlds = 4000
	rng := rand.New(rand.NewSource(22))
	cat := engine.NewCatalog()
	checked, merged := 0, 0
	for iter := 0; iter < 80; iter++ {
		mem := core.RandUDB(rng).Reduce()
		if _, err := mem.W.CountWorlds(maxWorlds); err != nil {
			continue
		}
		dir := t.TempDir()
		if err := store.Save(mem, dir); err != nil {
			t.Fatal(err)
		}
		stored, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		q := selectiveQuery(rng, mem)
		possWant, err := mem.PossibleGroundTruth(q, maxWorlds)
		if err != nil {
			t.Fatalf("iter %d: ground truth of %s: %v", iter, q, err)
		}
		for where, db := range map[string]*core.UDB{"in memory": mem, "stored": stored} {
			for _, shuffled := range []bool{false, true} {
				for _, optimize := range []bool{true, false} {
					what := fmt.Sprintf("iter %d, %s, shuffled=%v optimized=%v: %s", iter, where, shuffled, optimize, q)
					cfg := engine.ExecConfig{DisableOptimizer: !optimize}
					lazy, _, err := db.Translate(core.Poss(q))
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					full, lay, err := db.TranslateFull(q)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if shuffled {
						lazy, full = shuffleJoins(t, rng, lazy), shuffleJoins(t, rng, full)
					}
					poss, err := engine.Run(lazy, cat, cfg)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !poss.EqualAsSet(possWant) {
						t.Fatalf("%s: %d possible answers, the worlds have %d", what, poss.Len(), possWant.Len())
					}
					rel, err := engine.Run(full, cat, cfg)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					res, err := core.Decode(db.W, rel, lay)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					mem.EnumWorlds(func(f ws.Valuation, world map[string]*engine.Relation) bool {
						plan, err := core.ClassicalPlan(q, world)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						want, err := engine.Run(plan, cat, engine.ExecConfig{})
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						got := engine.NewRelation(want.Sch)
						for _, row := range res.Rows {
							if row.D.ExtendedBy(f) {
								got.Rows = append(got.Rows, row.Vals)
							}
						}
						if !got.EqualAsSet(want) {
							t.Fatalf("%s: in world %v the full translation has %d answers, the query %d", what, f, got.Distinct().Len(), want.Distinct().Len())
						}
						return true
					})
				}
			}
		}
		stored.Close()
		checked++
		if full, _, _ := mem.TranslateFull(q); hasJoin(full) {
			merged++
		}
	}
	if checked < 40 || merged < checked/2 {
		t.Fatalf("%d instances checked, %d of them merge partitions: too few", checked, merged)
	}
}

func hasJoin(p engine.Plan) bool {
	switch p.(type) {
	case *engine.JoinPlan, *engine.StitchPlan:
		return true
	}
	for _, c := range p.Children() {
		if hasJoin(c) {
			return true
		}
	}
	return false
}
