package uldb

import (
	"math/rand"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
)

// coreJoinQuery is the core-algebra version of the self-join used in
// TestPropertyMinimizedJoinPossEqualsUDB.
func coreJoinQuery() core.Query {
	return core.Join(
		core.Project(core.RelAs("r", "s1"), "s1.a", "s1.b"),
		core.Project(core.RelAs("r", "s2"), "s2.a", "s2.b"),
		engine.And(
			engine.EqCols("s1.b", "s2.b"),
			engine.Cmp(engine.NE, engine.Col("s1.a"), engine.Col("s2.a"))))
}

// randULDB builds a random ULDB with lineage-free and maybe x-tuples
// (the regime where the Lemma 5.5 translation is world-set exact), plus
// occasionally lineage-distinguished dependents.
func randULDB(rng *rand.Rand) *DB {
	db := NewDB()
	r := db.AddRelation("r", "a", "b")
	var id int64
	nBase := 1 + rng.Intn(3)
	var bases []*XTuple
	for i := 0; i < nBase; i++ {
		id++
		xt := r.AddXTuple(id, rng.Intn(3) == 0)
		nAlts := 1 + rng.Intn(3)
		for j := 0; j < nAlts; j++ {
			xt.AddAlt(nil, engine.Int(int64(i)), engine.Int(int64(j)))
		}
		bases = append(bases, xt)
	}
	// Dependent x-tuples: either fully lineage-distinguished over a
	// non-optional base (exact elision case) or maybe with partial
	// lineage.
	nDep := rng.Intn(3)
	for i := 0; i < nDep; i++ {
		base := bases[rng.Intn(len(bases))]
		id++
		if !base.Maybe && len(base.Alts) >= 2 && rng.Intn(2) == 0 {
			// One alternative per base alternative.
			xt := r.AddXTuple(id, false)
			for j := range base.Alts {
				xt.AddAlt([]AltID{{XT: base.ID, Alt: j}},
					engine.Int(100+int64(i)), engine.Int(int64(j)))
			}
		} else {
			// Optional with lineage to one base alternative.
			xt := r.AddXTuple(id, true)
			xt.AddAlt([]AltID{{XT: base.ID, Alt: rng.Intn(len(base.Alts))}},
				engine.Int(200+int64(i)), engine.Int(0))
		}
	}
	return db
}

// TestPropertyLemma55 checks that the ULDB -> U-relations translation
// preserves the world-set on random well-behaved ULDBs.
func TestPropertyLemma55(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for iter := 0; iter < 80; iter++ {
		db := randULDB(rng)
		s1, err := db.WorldSetSignature(3000)
		if err != nil {
			continue
		}
		udb, err := db.ToUDB()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		s2, err := udb.WorldSetSignature(30000)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if len(s1) != len(s2) {
			t.Fatalf("iter %d: world-set sizes differ: ULDB %d vs U-rel %d",
				iter, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("iter %d: world-sets differ at %d", iter, i)
			}
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("too few instances checked: %d", checked)
	}
}

// TestPropertyMinimizedJoinPossEqualsUDB: for random ULDBs, the
// minimized ULDB join has the same possible tuples as the U-relational
// evaluation of the same query (erroneous tuples are exactly what
// minimization removes and ψ prevents).
func TestPropertyMinimizedJoinPossEqualsUDB(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 40; iter++ {
		db := randULDB(rng)
		if _, err := db.WorldSetSignature(2000); err != nil {
			continue
		}
		udb, err := db.ToUDB()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		// Self-join on b with a <> a.
		ids := NewIDGen(db.MaxXTupleID())
		l, err := Project(db.Rels["r"], []string{"a", "b"}, ids)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Project(db.Rels["r"], []string{"a", "b"}, ids)
		if err != nil {
			t.Fatal(err)
		}
		r2.Attrs = []string{"a2", "b2"}
		joined, err := Join(l, r2, engine.And(
			engine.EqCols("b", "b2"),
			engine.Cmp(engine.NE, engine.Col("a"), engine.Col("a2"))), ids)
		if err != nil {
			t.Fatal(err)
		}
		got := Minimize(joined).PossibleTuples()

		// The same query over the converted U-relations, via brute
		// force (poss ground truth).
		import1 := coreJoinQuery()
		want, err := udb.PossibleGroundTruth(import1, 30000)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("iter %d: minimized ULDB join (%d) vs U-rel ground truth (%d)",
				iter, got.Len(), want.Len())
		}
	}
}
