package engine

import (
	"strings"
	"testing"
)

// testRel builds a small relation from int columns for operator tests.
func testRel(names []string, rows [][]int64) *Relation {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, Kind: KindInt}
	}
	r := NewRelation(Schema{Cols: cols})
	for _, row := range rows {
		t := make(Tuple, len(row))
		for i, v := range row {
			t[i] = Int(v)
		}
		r.Append(t)
	}
	return r
}

func mustDrain(t *testing.T, it Iterator) *Relation {
	t.Helper()
	out, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSchemaResolution(t *testing.T) {
	s := NewSchema(
		Column{Name: "c.custkey", Kind: KindInt},
		Column{Name: "o.orderkey", Kind: KindInt},
		Column{Name: "o.custkey", Kind: KindInt},
	)
	if s.IndexOf("c.custkey") != 0 {
		t.Error("exact match")
	}
	if s.IndexOf("orderkey") != 1 {
		t.Error("unique suffix match")
	}
	if s.IndexOf("custkey") != -1 {
		t.Error("ambiguous suffix must fail")
	}
	if s.IndexOf("nope") != -1 {
		t.Error("missing must fail")
	}
}

func TestScanFilterProject(t *testing.T) {
	r := testRel([]string{"a", "b"}, [][]int64{{1, 10}, {2, 20}, {3, 30}})
	it := NewProject(NewFilter(NewScan(r), Cmp(GT, Col("a"), ConstInt(1))), []string{"b"})
	out := mustDrain(t, it)
	if out.Len() != 2 || out.Rows[0][0].AsInt() != 20 || out.Rows[1][0].AsInt() != 30 {
		t.Fatalf("got %v", out.Rows)
	}
	if out.Sch.Names()[0] != "b" {
		t.Fatal("projection schema")
	}
}

func TestFilterExpressions(t *testing.T) {
	r := testRel([]string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}})
	cases := []struct {
		pred Expr
		want int
	}{
		{Cmp(EQ, Col("a"), ConstInt(3)), 1},
		{Cmp(NE, Col("a"), ConstInt(3)), 4},
		{Cmp(LE, Col("a"), ConstInt(3)), 3},
		{Cmp(GE, Col("a"), ConstInt(3)), 3},
		{And(Cmp(GT, Col("a"), ConstInt(1)), Cmp(LT, Col("a"), ConstInt(5))), 3},
		{Or(Cmp(EQ, Col("a"), ConstInt(1)), Cmp(EQ, Col("a"), ConstInt(5))), 2},
		{Not(Cmp(EQ, Col("a"), ConstInt(1))), 4},
		{Or(Cmp(EQ, Col("a"), ConstInt(2)), Cmp(EQ, Col("a"), ConstInt(4)), Cmp(EQ, Col("a"), ConstInt(9))), 2},
	}
	for i, c := range cases {
		out := mustDrain(t, NewFilter(NewScan(r), c.pred))
		if out.Len() != c.want {
			t.Errorf("case %d (%s): got %d rows, want %d", i, c.pred, out.Len(), c.want)
		}
	}
}

func TestNullComparisons(t *testing.T) {
	sch := NewSchema(Column{Name: "a", Kind: KindInt})
	r := NewRelation(sch)
	r.Append(Tuple{Null()})
	r.Append(Tuple{Int(1)})
	out := mustDrain(t, NewFilter(NewScan(r), Cmp(EQ, Col("a"), ConstInt(1))))
	if out.Len() != 1 {
		t.Fatal("null should not match equality")
	}
	// A comparison with NULL is false, not unknown, so its negation
	// keeps the null row.
	out = mustDrain(t, NewFilter(NewScan(r), Not(Cmp(EQ, Col("a"), Col("a")))))
	if out.Len() != 1 || !out.Rows[0][0].IsNull() {
		t.Fatal("NOT (a = a) should match exactly the null row")
	}
	// NULL = NULL is false in predicates.
	out = mustDrain(t, NewFilter(NewScan(r), Cmp(EQ, Col("a"), Const(Null()))))
	if out.Len() != 0 {
		t.Fatal("nothing equals NULL")
	}
}

func TestHashJoinBasic(t *testing.T) {
	l := testRel([]string{"l.k", "l.v"}, [][]int64{{1, 100}, {2, 200}, {2, 201}, {3, 300}})
	r := testRel([]string{"r.k", "r.w"}, [][]int64{{2, 9}, {3, 8}, {4, 7}})
	it := NewHashJoin(NewScan(l), NewScan(r), []EquiPair{{L: "l.k", R: "r.k"}}, nil, nil)
	out := mustDrain(t, it)
	if out.Len() != 3 {
		t.Fatalf("want 3 join rows, got %d: %v", out.Len(), out.Rows)
	}
	// Residual filter.
	it2 := NewHashJoin(NewScan(l), NewScan(r),
		[]EquiPair{{L: "l.k", R: "r.k"}}, Cmp(GT, Col("l.v"), ConstInt(200)), nil)
	out2 := mustDrain(t, it2)
	if out2.Len() != 2 {
		t.Fatalf("residual: want 2, got %d", out2.Len())
	}
}

// TestJoinAlgorithmsAgree: the hash join keyed on the equi pair and the
// keyless one, the whole condition its residual, give the same bag.
func TestJoinAlgorithmsAgree(t *testing.T) {
	l := testRel([]string{"l.k", "l.v"}, [][]int64{
		{1, 1}, {2, 2}, {2, 3}, {3, 4}, {5, 5}, {5, 6}, {5, 7},
	})
	r := testRel([]string{"r.k", "r.w"}, [][]int64{
		{2, 1}, {2, 2}, {3, 3}, {5, 4}, {6, 5},
	})
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	res := Cmp(NE, Col("l.v"), Col("r.w"))
	keyed := mustDrain(t, NewHashJoin(NewScan(l), NewScan(r), pairs, res, nil))
	cond := And(EqCols("l.k", "r.k"), res)
	keyless := mustDrain(t, NewHashJoin(NewScan(l), NewScan(r), nil, cond, nil))
	if keyed.Len() == 0 || !keyed.EqualAsBag(keyless) {
		t.Errorf("keyed vs keyless hash join disagree: %d vs %d", keyed.Len(), keyless.Len())
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	sch := NewSchema(Column{Name: "k", Kind: KindInt})
	l := NewRelation(sch)
	l.Append(Tuple{Null()})
	l.Append(Tuple{Int(1)})
	r := NewRelation(NewSchema(Column{Name: "k2", Kind: KindInt}))
	r.Append(Tuple{Null()})
	r.Append(Tuple{Int(1)})
	out := mustDrain(t, NewHashJoin(NewScan(l), NewScan(r), []EquiPair{{L: "k", R: "k2"}}, nil, nil))
	if out.Len() != 1 {
		t.Fatalf("null keys must not join: got %d rows", out.Len())
	}
}

func TestSemiJoin(t *testing.T) {
	l := testRel([]string{"k", "v"}, [][]int64{{1, 1}, {2, 2}, {3, 3}})
	r := testRel([]string{"k2"}, [][]int64{{2}, {3}, {3}})
	semi := mustDrain(t, NewSemiJoin(NewScan(l), NewScan(r), []EquiPair{{L: "k", R: "k2"}}, nil))
	if semi.Len() != 2 {
		t.Fatalf("semi join: want 2, got %d", semi.Len())
	}
}

func TestSetOps(t *testing.T) {
	a := testRel([]string{"x"}, [][]int64{{1}, {2}, {2}, {3}})
	b := testRel([]string{"x"}, [][]int64{{2}, {4}})
	u := mustDrain(t, NewUnion(NewScan(a), NewScan(b)))
	if u.Len() != 6 {
		t.Fatalf("union all: want 6, got %d", u.Len())
	}
	d := mustDrain(t, NewDiff(NewScan(a), NewScan(b)))
	if d.Len() != 2 { // {1,3} deduplicated
		t.Fatalf("diff: want 2, got %d: %v", d.Len(), d.Rows)
	}
	dd := mustDrain(t, NewDistinct(NewScan(a)))
	if dd.Len() != 3 {
		t.Fatalf("distinct: want 3, got %d", dd.Len())
	}
}

func TestRelationHelpers(t *testing.T) {
	a := testRel([]string{"x", "y"}, [][]int64{{1, 2}, {3, 4}})
	b := testRel([]string{"x", "y"}, [][]int64{{3, 4}, {1, 2}})
	if !a.EqualAsSet(b) || !a.EqualAsBag(b) {
		t.Error("order must not matter")
	}
	c := testRel([]string{"x", "y"}, [][]int64{{1, 2}, {1, 2}, {3, 4}})
	if a.EqualAsBag(c) {
		t.Error("bag equality counts multiplicity")
	}
	if !a.EqualAsSet(c) {
		t.Error("set equality ignores multiplicity")
	}
	if a.Clone().Len() != 2 {
		t.Error("clone")
	}
	if !strings.Contains(a.String(), "x") {
		t.Error("String header")
	}
	if a.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	cat.Put("r", testRel([]string{"a"}, [][]int64{{1}, {2}}))
	r, err := cat.Get("r")
	if err != nil || r.Len() != 2 {
		t.Fatal("catalog get")
	}
	if _, err := cat.Get("missing"); err == nil {
		t.Fatal("missing relation must error")
	}
	st := cat.Stats("r")
	if st == nil || st.Rows != 2 {
		t.Fatal("stats")
	}
	if got := cat.Names(); len(got) != 1 || got[0] != "r" {
		t.Fatal("names")
	}
}

func TestExtractEquiJoin(t *testing.T) {
	ls := NewSchema(Column{Name: "l.a", Kind: KindInt}, Column{Name: "l.b", Kind: KindInt})
	rs := NewSchema(Column{Name: "r.a", Kind: KindInt}, Column{Name: "r.c", Kind: KindInt})
	cond := And(EqCols("l.a", "r.a"), Cmp(GT, Col("l.b"), Col("r.c")), EqCols("r.c", "l.b"))
	pairs, res := ExtractEquiJoin(cond, ls, rs)
	if len(pairs) != 2 {
		t.Fatalf("want 2 equi pairs, got %v", pairs)
	}
	if pairs[1].L != "l.b" || pairs[1].R != "r.c" {
		t.Fatalf("flipped pair wrong: %v", pairs)
	}
	if res == nil {
		t.Fatal("expected residual")
	}
}
