package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/store"
	"urel/internal/tpch"
	"urel/internal/ws"
)

// coverInsteadOfLabel rewrites, with the given probability each, the
// rows of db that carry an empty descriptor into one row per value of
// some variable's domain: the same world-set, with the tuple certain by
// coverage (Lemma 4.3) instead of by label.
func coverInsteadOfLabel(rng *rand.Rand, db *core.UDB, share float64) {
	vars := db.W.NontrivialVars()
	for _, name := range db.RelNames() {
		for _, p := range db.Rels[name].Parts {
			var rows []core.URow
			for _, r := range p.Rows {
				if len(r.D) > 0 || rng.Float64() >= share {
					rows = append(rows, r)
					continue
				}
				x := vars[rng.Intn(len(vars))]
				for _, v := range db.W.Domain(x) {
					rows = append(rows, core.URow{D: ws.Descriptor{ws.A(x, v)}, TID: r.TID, Vals: r.Vals})
				}
			}
			p.Rows = rows
			p.RowsChanged()
		}
	}
}

// TestPropertyCertainTuples holds the certain-answer entry point against
// every oracle there is: on random databases and queries — as generated,
// with every certain row rewritten into a covering set of alternatives
// (no tuple labelled, tuples certain by coverage only), with half of
// them rewritten, and projected onto zero attributes — CertainTuples ≡
// the intersection of the worlds' answers ≡ Normalize + CertainTuplesRA
// ≡ CertainTuplesDirect, in memory and saved and reopened; every certain tuple is a possible one, and the path counts
// add up to the answer.
func TestPropertyCertainTuples(t *testing.T) {
	const maxWorlds = 4000
	rng := rand.New(rand.NewSource(24))
	var checked, empty, noneLabelled, allLabelled, someLabelled, covered, zeroAttr int
	for iter := 0; iter < 400; iter++ {
		db := core.RandUDB(rng)
		switch iter % 5 {
		case 1:
			coverInsteadOfLabel(rng, db, 1)
		case 2, 3:
			coverInsteadOfLabel(rng, db, 0.5)
		}
		db = db.Reduce()
		if err := db.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if _, err := db.W.CountWorlds(maxWorlds); err != nil {
			continue
		}
		q := core.RandQuery(rng, db, 1+iter%2)
		if iter%5 == 4 {
			q = core.Project(q)
		}
		gt, err := db.CertainGroundTruth(q, maxWorlds)
		if err != nil {
			t.Fatalf("iter %d: %s: %v", iter, q, err)
		}
		dir := t.TempDir()
		if err := store.Save(db, dir); err != nil {
			t.Fatal(err)
		}
		stored, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var stats core.CertainPathStats
		for where, on := range map[string]*core.UDB{"in memory": db, "stored": stored} {
			res, err := on.Eval(q, engine.ExecConfig{})
			if err != nil {
				t.Fatalf("iter %d: %s, %s: %v", iter, q, where, err)
			}
			var got *engine.Relation
			if got, stats, err = res.CertainTuples(time.Time{}); err != nil {
				t.Fatalf("iter %d: %s, %s: CertainTuples: %v", iter, q, where, err)
			}
			if !got.EqualAsSet(gt) {
				t.Fatalf("iter %d: %s, %s: CertainTuples gives\n%s\nthe worlds share\n%s\nresult:\n%s", iter, q, where, got, gt, res)
			}
			if stats.Labelled+stats.Pipeline != got.Len() || got.Len() != gt.Len() {
				t.Fatalf("iter %d: %s, %s: %+v for %d answer tuples, %d in the worlds", iter, q, where, stats, got.Len(), gt.Len())
			}
			if names := got.Sch.Names(); len(names) != len(res.Attrs) {
				t.Fatalf("iter %d: %s: answer columns %v, the result's attributes %v", iter, q, names, res.Attrs)
			}
			possible := res.PossibleTuples()
			both := possible.Clone()
			both.Rows = append(both.Rows, got.Rows...)
			if !both.EqualAsSet(possible) {
				t.Fatalf("iter %d: %s, %s: a certain tuple is not possible:\n%s\npossible:\n%s", iter, q, where, got, possible)
			}
			norm, err := res.Normalize()
			if err != nil {
				t.Fatalf("iter %d: %s: Normalize: %v", iter, q, err)
			}
			ra, err := norm.CertainTuplesRA()
			if err != nil {
				t.Fatalf("iter %d: %s: CertainTuplesRA: %v", iter, q, err)
			}
			if direct := norm.CertainTuplesDirect(); !ra.EqualAsSet(gt) || !direct.EqualAsSet(gt) {
				t.Fatalf("iter %d: %s, %s: the worlds share\n%s\nLemma 4.3 gives\n%s\nthe direct check\n%s", iter, q, where, gt, ra, direct)
			}
		}
		if err := stored.Close(); err != nil {
			t.Fatal(err)
		}
		checked++
		switch {
		case gt.Len() == 0:
			empty++
		case stats.Labelled == 0:
			noneLabelled++
		case stats.Pipeline == 0:
			allLabelled++
		default:
			someLabelled++
		}
		covered += stats.Pipeline
		if iter%5 == 4 && gt.Len() == 1 {
			zeroAttr++
		}
	}
	t.Logf("%d instances: %d without a certain answer, none / all / some tuples labelled in %d / %d / %d, %d tuples certain by coverage only, %d non-empty zero-attribute answers",
		checked, empty, noneLabelled, allLabelled, someLabelled, covered, zeroAttr)
	if checked < 250 || empty < 5 || noneLabelled < 5 || allLabelled < 5 || someLabelled < 5 || covered < 20 || zeroAttr < 5 {
		t.Fatal("the instances do not cover every case")
	}
}

// TestLemma43IsLinear: on the benchmark's data (s 0.25, x 0.01, z 0.25,
// seed 1) the result of `select o_orderkey, o_orderstatus from orders`
// has 4 865 rows over 3 715 tuples, and no operator of the Lemma 4.3
// plan emits more rows than there are values in the domains of the
// (variable, tuple) pairs that occur in U — where π_Var(W) × π_A(U) alone
// had a row for every variable beside every one of the 3 715 tuples. Row
// counts are EXPLAIN ANALYZE's, not a clock.
func TestLemma43IsLinear(t *testing.T) {
	p := tpch.DefaultParams(0.25, 0.01, 0.25)
	p.Seed = 1
	db, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Eval(core.Project(core.Rel("orders"), "o_orderkey", "o_orderstatus"), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := res.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(0)
	pairs := map[string]bool{}
	for _, r := range norm.Rows {
		x := ws.TrivialVar
		if len(r.D) > 0 {
			x = r.D[0].Var
		}
		if k := fmt.Sprint(x, " ", engine.KeyString(r.Vals)); !pairs[k] {
			pairs[k] = true
			bound += int64(norm.W.DomainSize(x))
		}
	}
	plan, cat := norm.Lemma43Plan()
	text, root, rel, err := engine.ExplainAnalyze(plan, cat, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	largest := int64(0)
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		largest = max(largest, s.Rows())
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	t.Logf("%d result rows, %d normalized over %d (variable, tuple) pairs, %d certain tuples; the largest operator output is %d rows, the bound %d\n%s",
		res.Len(), len(norm.Rows), len(pairs), rel.Len(), largest, bound, text)
	if res.Len() != 4865 || rel.Len() != 3715 {
		t.Fatalf("%d result rows and %d certain tuples, want 4865 and 3715", res.Len(), rel.Len())
	}
	if largest > bound {
		t.Fatalf("an operator of the Lemma 4.3 plan emits %d rows, more than the %d values of the co-occurring pairs' domains", largest, bound)
	}
	if direct := norm.CertainTuplesDirect(); !rel.EqualAsSet(direct) {
		t.Fatalf("Lemma 4.3 gives %d tuples, the direct check %d", rel.Len(), direct.Len())
	}
}
