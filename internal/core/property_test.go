package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/ws"
)

// randUDB generates a small random, valid U-relational database. Per
// (tuple id, partition) it emits either one certain row or a set of
// pairwise-inconsistent alternatives over one variable, which keeps the
// database valid by construction (Definition 2.2). The result may be
// non-reduced (some tids missing from some partitions).
func randUDB(rng *rand.Rand) *UDB { return randUDBOf(rng, false) }

// randUDBOf is randUDB, and with complete it generates every relation
// existence-complete: no tuple is missing from a partition, and
// alternatives range over their variable's whole domain with no second
// variable, so each partition's rows of a tuple cover every world.
// Without complete it draws exactly what randUDB always drew.
func randUDBOf(rng *rand.Rand, complete bool) *UDB {
	db := NewUDB()
	nVars := 2 + rng.Intn(2)
	vars := make([]ws.Var, nVars)
	for i := range vars {
		domSize := 2 + rng.Intn(2)
		dom := make([]ws.Val, domSize)
		for j := range dom {
			dom[j] = ws.Val(j + 1)
		}
		vars[i] = db.W.MustNewVar(fmt.Sprintf("v%d", i), dom...)
	}
	nRels := 1 + rng.Intn(2)
	for ri := 0; ri < nRels; ri++ {
		name := fmt.Sprintf("r%d", ri)
		nAttrs := 2 + rng.Intn(2)
		attrs := make([]string, nAttrs)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		db.MustAddRelation(name, attrs...)
		// Disjoint partition cover.
		nParts := 1 + rng.Intn(nAttrs)
		bounds := append([]int{0}, sortedCuts(rng, nAttrs, nParts)...)
		var parts []*URelation
		for pi := 0; pi+1 < len(bounds); pi++ {
			lo, hi := bounds[pi], bounds[pi+1]
			if lo == hi {
				continue
			}
			parts = append(parts, db.MustAddPartition(name, "", attrs[lo:hi]...))
		}
		nTIDs := 2 + rng.Intn(4)
		for tid := int64(1); tid <= int64(nTIDs); tid++ {
			for _, p := range parts {
				switch k := rng.Intn(5); {
				case k == 0 && !complete: // missing: leaves the database non-reduced
					continue
				case k <= 2: // certain row
					p.Add(nil, tid, randVals(rng, len(p.Attrs))...)
				default: // alternatives over one variable
					x := vars[rng.Intn(len(vars))]
					dom := db.W.Domain(x)
					for _, v := range dom {
						if !complete && rng.Intn(4) == 0 {
							continue // subset of the domain
						}
						d := ws.Descriptor{ws.A(x, v)}
						// Occasionally widen the descriptor with a second
						// variable (same value for all alternatives keeps
						// pairwise inconsistency via x).
						if !complete && rng.Intn(3) == 0 {
							y := vars[rng.Intn(len(vars))]
							if y != x {
								yv := db.W.Domain(y)[rng.Intn(db.W.DomainSize(y))]
								d, _ = d.Union(ws.Descriptor{ws.A(y, yv)})
							}
						}
						p.Add(d, tid, randVals(rng, len(p.Attrs))...)
					}
				}
			}
		}
	}
	return db
}

func sortedCuts(rng *rand.Rand, n, k int) []int {
	cuts := map[int]bool{n: true}
	for len(cuts) < k {
		cuts[1+rng.Intn(n)] = true
	}
	out := make([]int, 0, len(cuts))
	for c := range cuts {
		out = append(out, c)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func randVals(rng *rand.Rand, n int) []engine.Value {
	out := make([]engine.Value, n)
	for i := range out {
		out[i] = engine.Int(int64(rng.Intn(3)))
	}
	return out
}

// randQuery generates a random positive RA query over the database.
func randQuery(rng *rand.Rand, db *UDB, depth int) Query {
	rels := db.RelNames()
	if depth <= 0 || rng.Intn(3) == 0 {
		name := rels[rng.Intn(len(rels))]
		return RelAs(name, fmt.Sprintf("t%d", rng.Int63n(1<<40)))
	}
	switch rng.Intn(5) {
	case 0: // selection
		q := randQuery(rng, db, depth-1)
		attrs, err := q.Attrs(db)
		if err != nil || len(attrs) == 0 {
			return q
		}
		a := attrs[rng.Intn(len(attrs))]
		var cond engine.Expr
		if rng.Intn(2) == 0 {
			cond = engine.Cmp(engine.EQ, engine.Col(a), engine.ConstInt(int64(rng.Intn(3))))
		} else {
			b := attrs[rng.Intn(len(attrs))]
			cond = engine.Cmp(engine.CmpOp(rng.Intn(6)), engine.Col(a), engine.Col(b))
		}
		return Select(q, cond)
	case 1: // projection
		q := randQuery(rng, db, depth-1)
		attrs, err := q.Attrs(db)
		if err != nil || len(attrs) == 0 {
			return q
		}
		k := 1 + rng.Intn(len(attrs))
		perm := rng.Perm(len(attrs))[:k]
		sel := make([]string, k)
		for i, p := range perm {
			sel[i] = attrs[p]
		}
		return Project(q, sel...)
	case 2: // join
		l := randQuery(rng, db, depth-1)
		r := randQuery(rng, db, depth-1)
		la, err1 := l.Attrs(db)
		ra, err2 := r.Attrs(db)
		if err1 != nil || err2 != nil || len(la) == 0 || len(ra) == 0 {
			return l
		}
		var cond engine.Expr
		if rng.Intn(3) > 0 {
			cond = engine.Cmp(engine.EQ,
				engine.Col(la[rng.Intn(len(la))]),
				engine.Col(ra[rng.Intn(len(ra))]))
		}
		return Join(l, r, cond)
	case 3: // union of two same-relation projections
		name := rels[rng.Intn(len(rels))]
		attrs := db.Rels[name].Attrs
		k := 1 + rng.Intn(len(attrs))
		perm1 := rng.Perm(len(attrs))[:k]
		perm2 := rng.Perm(len(attrs))[:k]
		a1 := RelAs(name, fmt.Sprintf("ua%d", rng.Int63n(1<<40)))
		a2 := RelAs(name, fmt.Sprintf("ub%d", rng.Int63n(1<<40)))
		sel1 := make([]string, k)
		sel2 := make([]string, k)
		for i := range perm1 {
			sel1[i] = a1.alias() + "." + attrs[perm1[i]]
			sel2[i] = a2.alias() + "." + attrs[perm2[i]]
		}
		return UnionOf(Project(a1, sel1...), Project(a2, sel2...))
	default:
		return randQuery(rng, db, depth-1)
	}
}

const maxPropWorlds = 4000

// TestPropertyTranslationMatchesGroundTruth is the paper's Theorem 3.5
// as a property: for random reduced databases and random positive RA
// queries, the purely relational translation computes exactly the set
// of possible answer tuples.
func TestPropertyTranslationMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for iter := 0; iter < 120; iter++ {
		db := randUDB(rng).Reduce()
		if _, err := db.W.CountWorlds(maxPropWorlds); err != nil {
			continue
		}
		q := randQuery(rng, db, 2)
		gt, err := db.PossibleGroundTruth(q, maxPropWorlds)
		if err != nil {
			t.Fatalf("iter %d: ground truth: %v (query %s)", iter, err, q)
		}
		res, err := db.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("iter %d: eval: %v (query %s)", iter, err, q)
		}
		if !res.EqualAsSet(gt) {
			t.Fatalf("iter %d: translation mismatch for %s:\ntranslated (%d rows):\n%s\nground truth (%d rows):\n%s",
				iter, q, res.Len(), res, gt.Len(), gt)
		}
		checked++
	}
	if checked < 60 {
		t.Fatalf("too few instances checked: %d", checked)
	}
}

// TestPropertyOptimizerPreservesSemantics: optimized and unoptimized
// physical plans agree on translated queries (the Figure 2/3 algebraic
// equivalences as exercised through the engine optimizer).
func TestPropertyOptimizerPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 60; iter++ {
		db := randUDB(rng).Reduce()
		q := randQuery(rng, db, 2)
		a, err := db.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		b, err := db.EvalPoss(q, engine.ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !a.EqualAsSet(b) {
			t.Fatalf("iter %d: optimizer changed result of %s", iter, q)
		}
		// Statistics are advisory: the representation-level plan returns
		// the same bag unoptimized and optimized with the partitions'
		// statistics, with none, and with adversarial ones.
		regimes := map[string]func(*engine.ValuesPlan){
			"real": func(*engine.ValuesPlan) {},
			"none": func(v *engine.ValuesPlan) { v.Stats = nil },
			"adversarial": func(v *engine.ValuesPlan) {
				sch, _ := v.Schema(nil)
				ts := &engine.TableStats{Rows: 1e9, Cols: make([]engine.ColStats, sch.Len())}
				for i := range ts.Cols {
					ts.Cols[i] = engine.ColStats{NDV: 1}
				}
				v.Stats = func() *engine.TableStats { return ts }
			},
		}
		var want *engine.Relation
		for name, regime := range regimes {
			plan, _, err := db.Translate(StripPoss(q))
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if want == nil {
				if want, err = engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{DisableOptimizer: true}); err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
			}
			eachValuesLeaf(plan, regime)
			got, err := engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatalf("iter %d: %s statistics: %v", iter, name, err)
			}
			if !want.EqualAsBag(got) {
				t.Fatalf("iter %d: %s statistics changed the result bag of %s (%d vs %d rows)", iter, name, q, got.Len(), want.Len())
			}
		}
	}
}

// eachValuesLeaf applies f to every in-memory leaf of a translated plan.
func eachValuesLeaf(p engine.Plan, f func(*engine.ValuesPlan)) {
	if v, ok := p.(*engine.ValuesPlan); ok {
		f(v)
	}
	for _, c := range p.Children() {
		eachValuesLeaf(c, f)
	}
}

// TestPropertyTraceEstimatesAreTheOptimizers: for random translated
// queries, every span of a traced Build carries the
// estimate the optimizer's estimator gives the node it wraps — the rows=
// EXPLAIN prints for that node — and a join span is named after the
// strategy EXPLAIN prints, so EXPLAIN ANALYZE's est-drift is about the
// numbers the plan was chosen on.
func TestPropertyTraceEstimatesAreTheOptimizers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cat := engine.NewCatalog()
	spans := 0
	var check func(p engine.Plan, sp *obs.Span)
	check = func(p engine.Plan, sp *obs.Span) {
		spans++
		want := engine.EstimateStats(p, cat).Rows
		if d := math.Abs(sp.Est() - want); d > 1e-9*want {
			t.Fatalf("span %q has est=%g, the estimator gives its node %g rows", sp.Op(), sp.Est(), want)
		}
		text, err := engine.Explain(p, cat, false)
		if err != nil {
			t.Fatal(err)
		}
		head := strings.SplitN(text, "\n", 2)[0]
		if !strings.Contains(head, fmt.Sprintf("(rows=%.0f)", sp.Est())) {
			t.Fatalf("span %q has est=%.0f, EXPLAIN prints its node as %q", sp.Op(), sp.Est(), head)
		}
		if _, ok := p.(*engine.JoinPlan); ok && !strings.HasPrefix(head, sp.Op()+"  (") {
			t.Fatalf("join ran as %q, EXPLAIN prints %q", sp.Op(), head)
		}
		kids := sp.Children()
		if len(kids) != len(p.Children()) {
			t.Fatalf("span %q has %d children, its node %d", sp.Op(), len(kids), len(p.Children()))
		}
		for i, c := range p.Children() {
			check(c, kids[i])
		}
	}
	for iter := 0; iter < 40; iter++ {
		db := randUDB(rng).Reduce()
		plan, _, err := db.Translate(Poss(randQuery(rng, db, 2)))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if plan, err = engine.Optimize(plan, cat); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		root := obs.NewSpan("query")
		if _, err := engine.Build(plan, cat, engine.ExecConfig{Trace: root}); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		check(plan, root.Children()[0])
	}
	if spans < 250 {
		t.Fatalf("only %d spans checked", spans)
	}
}

// TestPropertyCertainAnswers: the normalize + Lemma 4.3 pipeline equals
// the per-world intersection.
func TestPropertyCertainAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for iter := 0; iter < 60; iter++ {
		db := randUDB(rng).Reduce()
		if _, err := db.W.CountWorlds(maxPropWorlds); err != nil {
			continue
		}
		q := randQuery(rng, db, 1)
		gt, err := db.CertainGroundTruth(q, maxPropWorlds)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, err := db.CertainAnswers(q)
		if err != nil {
			t.Fatalf("iter %d: certain answers: %v (query %s)", iter, err, q)
		}
		if !got.EqualAsSet(gt) {
			t.Fatalf("iter %d: certain mismatch for %s:\ngot (%d):\n%s\nwant (%d):\n%s",
				iter, q, got.Len(), got, gt.Len(), gt)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("too few instances checked: %d", checked)
	}
}

// TestPropertyCertainRAEqualsDirect: the Lemma 4.3 relational query and
// the direct algorithm agree on normalized results.
func TestPropertyCertainRAEqualsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 60; iter++ {
		db := randUDB(rng).Reduce()
		q := randQuery(rng, db, 1)
		res, err := db.Eval(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		norm, err := res.Normalize()
		if err != nil {
			continue // component blowup guard
		}
		ra, err := norm.CertainTuplesRA()
		if err != nil {
			t.Fatalf("iter %d: RA certain: %v", iter, err)
		}
		direct := norm.CertainTuplesDirect()
		if !ra.EqualAsSet(direct) {
			t.Fatalf("iter %d: RA and direct certain disagree for %s:\nRA:\n%s\ndirect:\n%s",
				iter, q, ra, direct)
		}
	}
}

// TestPropertyNormalizePreservesWorldSet is Theorem 4.2 as a property.
func TestPropertyNormalizePreservesWorldSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for iter := 0; iter < 60; iter++ {
		db := randUDB(rng).Reduce()
		if _, err := db.W.CountWorlds(maxPropWorlds); err != nil {
			continue
		}
		norm, err := db.Normalize()
		if err != nil {
			t.Fatalf("iter %d: normalize: %v", iter, err)
		}
		// All descriptors have size ≤ 1.
		for _, name := range norm.RelNames() {
			for _, p := range norm.Rels[name].Parts {
				if p.MaxDescriptorWidth() > 1 {
					t.Fatalf("iter %d: descriptor of width %d after normalization",
						iter, p.MaxDescriptorWidth())
				}
			}
		}
		sig1, err := db.WorldSetSignature(maxPropWorlds)
		if err != nil {
			continue
		}
		sig2, err := norm.WorldSetSignature(maxPropWorlds * 8)
		if err != nil {
			t.Fatalf("iter %d: normalized signature: %v", iter, err)
		}
		if !equalStrings(sig1, sig2) {
			t.Fatalf("iter %d: normalization changed the world-set (%d vs %d distinct worlds)",
				iter, len(sig1), len(sig2))
		}
		checked++
	}
	if checked < 25 {
		t.Fatalf("too few instances checked: %d", checked)
	}
}

// TestPropertyReducePreservesWorldSet: reduction removes rows but never
// changes the represented world-set, and its output is reduced.
func TestPropertyReducePreservesWorldSet(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	checked := 0
	for iter := 0; iter < 60; iter++ {
		db := randUDB(rng)
		if _, err := db.W.CountWorlds(maxPropWorlds); err != nil {
			continue
		}
		red := db.Reduce()
		if !red.IsReduced() {
			t.Fatalf("iter %d: Reduce output not reduced", iter)
		}
		sig1, err := db.WorldSetSignature(maxPropWorlds)
		if err != nil {
			continue
		}
		sig2, err := red.WorldSetSignature(maxPropWorlds)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !equalStrings(sig1, sig2) {
			t.Fatalf("iter %d: reduction changed the world-set", iter)
		}
		checked++
	}
	if checked < 25 {
		t.Fatalf("too few instances checked: %d", checked)
	}
}

// TestPropertySemijoinReductionFixpoint: the paper's semijoin-based
// reduction, iterated to a fixpoint, agrees with the exact reduction on
// these databases.
func TestPropertySemijoinReductionFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		db := randUDB(rng)
		exact := db.Reduce()
		fix, _, err := db.ReduceSemijoinFixpoint()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if totalRows(fix) != totalRows(exact) {
			// The semijoin fixpoint may keep rows whose pairwise matches
			// never combine globally; verify the world-sets still agree
			// (the kept rows must be harmless).
			s1, err1 := exact.WorldSetSignature(maxPropWorlds)
			s2, err2 := fix.WorldSetSignature(maxPropWorlds)
			if err1 != nil || err2 != nil {
				continue
			}
			if !equalStrings(s1, s2) {
				t.Fatalf("iter %d: semijoin fixpoint changed the world-set", iter)
			}
		}
	}
}

// TestPropertyConfidenceMatchesWorldEnumeration: exact confidence equals
// the probability mass of worlds containing the tuple.
func TestPropertyConfidenceMatchesWorldEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checked := 0
	for iter := 0; iter < 40; iter++ {
		db := randUDB(rng).Reduce()
		if _, err := db.W.CountWorlds(2000); err != nil {
			continue
		}
		q := randQuery(rng, db, 1)
		res, err := db.Eval(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		confs, err := res.Confidences()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		// Brute force: for each tuple, sum world probabilities.
		inner := stripPoss(q)
		want := map[string]float64{}
		cat := engine.NewCatalog()
		db.EnumWorlds(func(f ws.Valuation, world map[string]*engine.Relation) bool {
			p, err := classicalPlan(inner, world)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := engine.Run(p, cat, engine.ExecConfig{DisableOptimizer: true})
			if err != nil {
				t.Fatal(err)
			}
			wp := db.W.WorldProb(f)
			for _, row := range rel.Distinct().Rows {
				want[engine.KeyString(row)] += wp
			}
			return true
		})
		for _, tc := range confs {
			w := want[engine.KeyString(tc.Vals)]
			if diff := tc.P - w; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("iter %d: confidence %v for %v, world enumeration says %v (query %s)",
					iter, tc.P, tc.Vals, w, q)
			}
		}
		checked++
	}
	if checked < 15 {
		t.Fatalf("too few instances checked: %d", checked)
	}
}

func equalStrings(a, b []string) bool {
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
