package uldb

import (
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
)

// vehiclesULDB builds the ULDB of Example 5.4 (the paper's equivalent
// of the Figure 1 vehicles database): x-tuples a, b, c, d with lineage
// Λ tying b's position choice to c's.
func vehiclesULDB() *DB {
	db := NewDB()
	r := db.AddRelation("r", "id", "type", "faction")
	a := r.AddXTuple(1, false)
	a.AddAlt(nil, engine.Int(1), engine.Str("Tank"), engine.Str("Friend"))
	c := r.AddXTuple(3, false)
	c.AddAlt(nil, engine.Int(3), engine.Str("Tank"), engine.Str("Enemy"))
	c.AddAlt(nil, engine.Int(2), engine.Str("Tank"), engine.Str("Enemy"))
	b := r.AddXTuple(2, false)
	b.AddAlt([]AltID{{XT: 3, Alt: 0}}, engine.Int(2), engine.Str("Transport"), engine.Str("Friend"))
	b.AddAlt([]AltID{{XT: 3, Alt: 1}}, engine.Int(3), engine.Str("Transport"), engine.Str("Friend"))
	d := r.AddXTuple(4, false)
	d.AddAlt(nil, engine.Int(4), engine.Str("Tank"), engine.Str("Friend"))
	d.AddAlt(nil, engine.Int(4), engine.Str("Tank"), engine.Str("Enemy"))
	d.AddAlt(nil, engine.Int(4), engine.Str("Transport"), engine.Str("Friend"))
	d.AddAlt(nil, engine.Int(4), engine.Str("Transport"), engine.Str("Enemy"))
	return db
}

func TestVehiclesULDBWorlds(t *testing.T) {
	db := vehiclesULDB()
	count := 0
	err := db.EnumWorlds(func(world map[string]*engine.Relation) bool {
		count++
		if world["r"].Len() != 4 {
			t.Fatalf("every world has 4 vehicles, got %d", world["r"].Len())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 (a) × 2 (b/c linked) × 4 (d) = 8 worlds, as in Example 2.1.
	if count != 8 {
		t.Fatalf("want 8 worlds, got %d", count)
	}
}

func TestLemma55ConversionPreservesWorlds(t *testing.T) {
	db := vehiclesULDB()
	udb, err := db.ToUDB()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := db.WorldSetSignature(10000)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := udb.WorldSetSignature(10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("world-set sizes differ: ULDB %d vs U-relations %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("world-sets differ at %d", i)
		}
	}
}

func TestSelectProjectLineage(t *testing.T) {
	db := vehiclesULDB()
	ids := NewIDGen(db.MaxXTupleID())
	sel, err := Select(db.Rels["r"],
		engine.Cmp(engine.EQ, engine.Col("faction"), engine.ConstStr("Enemy")), ids)
	if err != nil {
		t.Fatal(err)
	}
	// c (2 alts, both enemy) and d (2 of 4 alts) survive.
	if len(sel.XTs) != 2 {
		t.Fatalf("want 2 x-tuples, got %d", len(sel.XTs))
	}
	if !sel.XTs[1].Maybe {
		t.Fatal("d lost alternatives and must become optional")
	}
	proj, err := Project(sel, []string{"id"}, ids)
	if err != nil {
		t.Fatal(err)
	}
	poss := proj.PossibleTuples()
	if poss.Len() != 3 { // ids 3, 2 (from c) and 4 (from d)
		t.Fatalf("want 3 possible ids, got %d:\n%s", poss.Len(), poss)
	}
	// Lineage of the first projected alternative points back through
	// the selection to the base alternative.
	if len(proj.XTs[0].Alts[0].Lineage) == 0 {
		t.Fatal("projection must accumulate lineage")
	}
}

func TestJoinProducesErroneousTuplesAndMinimize(t *testing.T) {
	// Self-join of the enemy vehicles on different ids: c's two
	// alternatives are mutually exclusive, so combinations of (3,·) with
	// (2,·) from the same x-tuple are erroneous — present after the
	// join, gone after minimization.
	db := vehiclesULDB()
	ids := NewIDGen(db.MaxXTupleID())
	enemies, err := Select(db.Rels["r"],
		engine.Cmp(engine.EQ, engine.Col("faction"), engine.ConstStr("Enemy")), ids)
	if err != nil {
		t.Fatal(err)
	}
	idsOnly, err := Project(enemies, []string{"id"}, ids)
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := Project(enemies, []string{"id"}, ids)
	if err != nil {
		t.Fatal(err)
	}
	rhs.Attrs = []string{"id2"}
	joined, err := Join(idsOnly, rhs,
		engine.Cmp(engine.NE, engine.Col("id"), engine.Col("id2")), ids)
	if err != nil {
		t.Fatal(err)
	}
	before := joined.PossibleTuples()
	minimized := Minimize(joined)
	after := minimized.PossibleTuples()
	// (3,2)/(2,3) pairs rely on both alternatives of c simultaneously:
	// erroneous.
	hasPair := func(rel *engine.Relation, a, b int64) bool {
		for _, row := range rel.Rows {
			if row[0].AsInt() == a && row[1].AsInt() == b {
				return true
			}
		}
		return false
	}
	if !hasPair(before, 3, 2) {
		t.Fatalf("join without minimization should contain the erroneous pair (3,2):\n%s", before)
	}
	if hasPair(after, 3, 2) || hasPair(after, 2, 3) {
		t.Fatalf("minimization must remove erroneous pairs:\n%s", after)
	}
	if !hasPair(after, 3, 4) || !hasPair(after, 4, 3) {
		t.Fatalf("real pairs must survive minimization:\n%s", after)
	}
}

func TestMinimizedJoinMatchesUDBGroundTruth(t *testing.T) {
	// After minimization, the ULDB join's possible tuples equal the
	// U-relational (world-exact) evaluation of the same query.
	db := vehiclesULDB()
	udb, err := db.ToUDB()
	if err != nil {
		t.Fatal(err)
	}
	q := core.Join(
		core.Project(core.Select(core.RelAs("r", "s1"),
			engine.Cmp(engine.EQ, engine.Col("s1.faction"), engine.ConstStr("Enemy"))), "s1.id"),
		core.Project(core.Select(core.RelAs("r", "s2"),
			engine.Cmp(engine.EQ, engine.Col("s2.faction"), engine.ConstStr("Enemy"))), "s2.id"),
		engine.Cmp(engine.NE, engine.Col("s1.id"), engine.Col("s2.id")))
	want, err := udb.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := NewIDGen(db.MaxXTupleID())
	enemies, _ := Select(db.Rels["r"],
		engine.Cmp(engine.EQ, engine.Col("faction"), engine.ConstStr("Enemy")), ids)
	l, _ := Project(enemies, []string{"id"}, ids)
	r, _ := Project(enemies, []string{"id"}, ids)
	r.Attrs = []string{"id2"}
	joined, err := Join(l, r, engine.Cmp(engine.NE, engine.Col("id"), engine.Col("id2")), ids)
	if err != nil {
		t.Fatal(err)
	}
	got := Minimize(joined).PossibleTuples()
	if !got.EqualAsSet(want) {
		t.Fatalf("minimized ULDB join vs U-relations:\n%s\nvs\n%s", got, want)
	}
}

func TestOrSetSuccinctness(t *testing.T) {
	// Theorem 5.6: or-set relations are linear as U-relations but
	// exponential (in arity) as ULDBs.
	n, arity, k := 3, 4, 3
	udbRep := OrSetUDB(n, arity, k)
	uldbRep := OrSetULDB(n, arity, k)
	uRows := 0
	for _, name := range udbRep.RelNames() {
		for _, p := range udbRep.Rels[name].Parts {
			uRows += len(p.Rows)
		}
	}
	if uRows != n*arity*k {
		t.Fatalf("U-relations should have n·arity·k = %d rows, got %d", n*arity*k, uRows)
	}
	alts := uldbRep.Rels["r"].NumAlternatives()
	want := n * 81 // k^arity = 3^4
	if alts != want {
		t.Fatalf("ULDB should have n·k^arity = %d alternatives, got %d", want, alts)
	}
	// Same world count.
	wantWorlds := udbRep.W.Log10Worlds()
	if wantWorlds <= 0 {
		t.Fatal("or-set UDB should have many worlds")
	}
}

func TestDuplicateXTupleIDRejected(t *testing.T) {
	db := NewDB()
	r := db.AddRelation("r", "a")
	r.AddXTuple(1, false).AddAlt(nil, engine.Int(1))
	r.AddXTuple(1, false).AddAlt(nil, engine.Int(2))
	if err := db.EnumWorlds(func(map[string]*engine.Relation) bool { return true }); err == nil {
		t.Fatal("duplicate x-tuple ids must be rejected")
	}
}

func TestFromTupleLevelResult(t *testing.T) {
	// Round-trip a U-relational query result into ULDB form and check
	// the possible tuples coincide (after minimization).
	db := vehiclesULDB()
	udb, err := db.ToUDB()
	if err != nil {
		t.Fatal(err)
	}
	q := core.Select(core.Rel("r"),
		engine.Cmp(engine.EQ, engine.Col("faction"), engine.ConstStr("Enemy")))
	res, err := udb.Eval(q, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := NewIDGen(1000)
	rel, aux, err := FromTupleLevelResult(res, "enemy", ids)
	if err != nil {
		t.Fatal(err)
	}
	if aux == nil {
		t.Fatal("expected auxiliary variable relation")
	}
	got := Minimize(rel).PossibleTuples()
	want := res.PossibleTuples()
	if !got.EqualAsSet(want) {
		t.Fatalf("tuple-level conversion changed possible tuples:\n%s\nvs\n%s", got, want)
	}
}
