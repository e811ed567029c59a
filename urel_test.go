package urel_test

import (
	"testing"

	"urel"
)

// TestPublicAPIRoundTrip exercises the whole public surface on the
// paper's Figure 1 scenario.
func TestPublicAPIRoundTrip(t *testing.T) {
	db := urel.New()
	db.MustAddRelation("r", "id", "type", "faction")
	x := db.W.NewBoolVar("x")
	y := db.W.NewBoolVar("y")
	z := db.W.NewBoolVar("z")

	uid := db.MustAddPartition("r", "u_r_id", "id")
	uty := db.MustAddPartition("r", "u_r_type", "type")
	ufa := db.MustAddPartition("r", "u_r_faction", "faction")

	uid.Add(nil, 1, urel.Int(1))
	uid.Add(urel.D(urel.A(x, 1)), 2, urel.Int(2))
	uid.Add(urel.D(urel.A(x, 2)), 2, urel.Int(3))
	uid.Add(urel.D(urel.A(x, 1)), 3, urel.Int(3))
	uid.Add(urel.D(urel.A(x, 2)), 3, urel.Int(2))
	uid.Add(nil, 4, urel.Int(4))

	uty.Add(nil, 1, urel.Str("Tank"))
	uty.Add(nil, 2, urel.Str("Transport"))
	uty.Add(nil, 3, urel.Str("Tank"))
	uty.Add(urel.D(urel.A(y, 1)), 4, urel.Str("Tank"))
	uty.Add(urel.D(urel.A(y, 2)), 4, urel.Str("Transport"))

	ufa.Add(nil, 1, urel.Str("Friend"))
	ufa.Add(nil, 2, urel.Str("Friend"))
	ufa.Add(nil, 3, urel.Str("Enemy"))
	ufa.Add(urel.D(urel.A(z, 1)), 4, urel.Str("Friend"))
	ufa.Add(urel.D(urel.A(z, 2)), 4, urel.Str("Enemy"))

	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if db.W.NumWorlds().Int64() != 8 {
		t.Fatalf("want 8 worlds, got %v", db.W.NumWorlds())
	}

	enemyTanks := urel.Project(
		urel.Select(urel.Rel("r"), urel.And(
			urel.Eq(urel.Col("type"), urel.Const(urel.Str("Tank"))),
			urel.Eq(urel.Col("faction"), urel.Const(urel.Str("Enemy"))))),
		"id")
	poss, err := db.EvalPoss(urel.Poss(enemyTanks), urel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if poss.Len() != 3 {
		t.Fatalf("possible enemy-tank ids: want 3, got %d\n%s", poss.Len(), poss)
	}

	res, err := db.Eval(enemyTanks, urel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := res.TupleProb(urel.Tuple{urel.Int(4)})
	if err != nil {
		t.Fatal(err)
	}
	if conf != 0.25 {
		t.Fatalf("confidence of id 4: want 0.25, got %v", conf)
	}

	certain, err := db.CertainAnswers(urel.Project(urel.Rel("r"), "id"))
	if err != nil {
		t.Fatal(err)
	}
	if certain.Len() != 4 {
		t.Fatalf("certain ids: want 4, got %d", certain.Len())
	}
}

func TestPublicExprHelpers(t *testing.T) {
	db := urel.New()
	db.MustAddRelation("s", "a")
	p := db.MustAddPartition("s", "u_s_a", "a")
	for i := int64(1); i <= 5; i++ {
		p.Add(nil, i, urel.Int(i))
	}
	cases := []struct {
		cond urel.Expr
		want int
	}{
		{urel.Lt(urel.Col("a"), urel.Const(urel.Int(3))), 2},
		{urel.Le(urel.Col("a"), urel.Const(urel.Int(3))), 3},
		{urel.Gt(urel.Col("a"), urel.Const(urel.Int(3))), 2},
		{urel.Ge(urel.Col("a"), urel.Const(urel.Int(3))), 3},
		{urel.Ne(urel.Col("a"), urel.Const(urel.Int(3))), 4},
		{urel.Or(urel.Eq(urel.Col("a"), urel.Const(urel.Int(1))),
			urel.Eq(urel.Col("a"), urel.Const(urel.Int(5)))), 2},
		{urel.Not(urel.Eq(urel.Col("a"), urel.Const(urel.Int(1)))), 4},
	}
	for i, c := range cases {
		rel, err := db.EvalPoss(urel.Poss(urel.Select(urel.Rel("s"), c.cond)), urel.Config{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if rel.Len() != c.want {
			t.Fatalf("case %d: want %d rows, got %d", i, c.want, rel.Len())
		}
	}
	if urel.Date("1995-03-15").AsInt() <= 0 {
		t.Fatal("date helper")
	}
	if !urel.Null().IsNull() || urel.Bool(true).Truth() != true || urel.Float(1.5).AsFloat() != 1.5 {
		t.Fatal("value helpers")
	}
}

func TestPublicUnion(t *testing.T) {
	db := urel.New()
	db.MustAddRelation("t", "a", "b")
	pa := db.MustAddPartition("t", "u_t_a", "a")
	pb := db.MustAddPartition("t", "u_t_b", "b")
	x := db.W.NewBoolVar("x")
	pa.Add(urel.D(urel.A(x, 1)), 1, urel.Int(10))
	pa.Add(urel.D(urel.A(x, 2)), 1, urel.Int(11))
	pb.Add(nil, 1, urel.Int(20))
	q := urel.Union(
		urel.Project(urel.RelAs("t", "t1"), "t1.a"),
		urel.Project(urel.RelAs("t", "t2"), "t2.b"))
	rel, err := db.EvalPoss(urel.Poss(q), urel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 { // {10, 11, 20}
		t.Fatalf("union possible values: want 3, got %d\n%s", rel.Len(), rel)
	}
}

// TestSaveOpenFacade exercises the persistence surface: Save, Open
// (lazy), query from disk, Materialize, Close.
func TestSaveOpenFacade(t *testing.T) {
	db := urel.New()
	db.MustAddRelation("r", "id", "type")
	x := db.W.NewBoolVar("x")
	u := db.MustAddPartition("r", "u_r", "id", "type")
	u.Add(urel.D(urel.A(x, 1)), 1, urel.Int(1), urel.Str("Tank"))
	u.Add(urel.D(urel.A(x, 2)), 1, urel.Int(1), urel.Str("Transport"))
	u.Add(nil, 2, urel.Int(2), urel.Str("Tank"))

	dir := t.TempDir()
	if err := urel.Save(db, dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := urel.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer got.Close()

	q := urel.Poss(urel.Select(urel.Rel("r"),
		urel.Eq(urel.Col("type"), urel.Const(urel.Str("Tank")))))
	want, err := db.EvalPoss(q, urel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := got.EvalPoss(q, urel.Config{})
	if err != nil {
		t.Fatalf("stored EvalPoss: %v", err)
	}
	if !rel.EqualAsSet(want) {
		t.Fatalf("stored answers differ:\ngot\n%s\nwant\n%s", rel, want)
	}
	if err := got.Materialize(); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate after Materialize: %v", err)
	}
	if n := len(got.Rels["r"].Parts[0].Rows); n != 3 {
		t.Fatalf("materialized rows = %d, want 3", n)
	}
}
