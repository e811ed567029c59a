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
		{In(Col("a"), Int(2), Int(4), Int(9)), 2},
		{Cmp(EQ, Arith(ModOp, Col("a"), ConstInt(2)), ConstInt(0)), 2},
		{Cmp(GT, Arith(AddOp, Col("a"), ConstInt(10)), ConstInt(13)), 2},
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
	out = mustDrain(t, NewFilter(NewScan(r), IsNull(Col("a"))))
	if out.Len() != 1 {
		t.Fatal("IS NULL should match the null row")
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

func TestJoinAlgorithmsAgree(t *testing.T) {
	l := testRel([]string{"l.k", "l.v"}, [][]int64{
		{1, 1}, {2, 2}, {2, 3}, {3, 4}, {5, 5}, {5, 6}, {5, 7},
	})
	r := testRel([]string{"r.k", "r.w"}, [][]int64{
		{2, 1}, {2, 2}, {3, 3}, {5, 4}, {6, 5},
	})
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	res := Cmp(NE, Col("l.v"), Col("r.w"))
	hj := mustDrain(t, NewHashJoin(NewScan(l), NewScan(r), pairs, res, nil))
	cond := And(EqCols("l.k", "r.k"), res)
	nl := mustDrain(t, NewNestedLoopJoin(NewScan(l), NewScan(r), cond, nil))
	if !hj.EqualAsBag(nl) {
		t.Errorf("hash vs nested loop disagree: %d vs %d", hj.Len(), nl.Len())
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
	i := mustDrain(t, NewIntersect(NewScan(a), NewScan(b)))
	if i.Len() != 1 || i.Rows[0][0].AsInt() != 2 {
		t.Fatalf("intersect: got %v", i.Rows)
	}
	dd := mustDrain(t, NewDistinct(NewScan(a)))
	if dd.Len() != 3 {
		t.Fatalf("distinct: want 3, got %d", dd.Len())
	}
}

func TestSortAndLimit(t *testing.T) {
	r := testRel([]string{"a", "b"}, [][]int64{{3, 1}, {1, 2}, {2, 3}})
	s := mustDrain(t, NewSort(NewScan(r), []string{"a"}))
	if s.Rows[0][0].AsInt() != 1 || s.Rows[2][0].AsInt() != 3 {
		t.Fatalf("sort order wrong: %v", s.Rows)
	}
	l := mustDrain(t, NewLimit(NewScan(r), 2))
	if l.Len() != 2 {
		t.Fatalf("limit: want 2, got %d", l.Len())
	}
}

func TestHashAgg(t *testing.T) {
	r := testRel([]string{"g", "v"}, [][]int64{{1, 10}, {1, 20}, {2, 5}, {2, 15}, {2, 1}})
	out := mustDrain(t, NewHashAgg(NewScan(r), []string{"g"}, []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "s"},
		{Fn: AggMin, Col: "v", As: "mn"},
		{Fn: AggMax, Col: "v", As: "mx"},
		{Fn: AggAvg, Col: "v", As: "avg"},
	}))
	if out.Len() != 2 {
		t.Fatalf("want 2 groups, got %d", out.Len())
	}
	g1 := out.Rows[0]
	if g1[0].AsInt() != 1 || g1[1].AsInt() != 2 || g1[2].AsInt() != 30 ||
		g1[3].AsInt() != 10 || g1[4].AsInt() != 20 || g1[5].AsFloat() != 15 {
		t.Fatalf("group 1 wrong: %v", g1)
	}
	// Global aggregate over empty input yields count 0.
	empty := testRel([]string{"v"}, nil)
	out2 := mustDrain(t, NewHashAgg(NewScan(empty), nil, []AggSpec{{Fn: AggCount, As: "n"}}))
	if out2.Len() != 1 || out2.Rows[0][0].AsInt() != 0 {
		t.Fatalf("empty count: %v", out2.Rows)
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
