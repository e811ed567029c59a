package engine

import (
	"strings"
	"testing"
)

func TestExtendIter(t *testing.T) {
	r := testRel([]string{"a"}, [][]int64{{1}, {2}, {3}})
	it := NewExtend(NewFilter(NewScan(r), Cmp(GE, Col("a"), ConstInt(2))), []NamedExpr{
		{Name: "b", E: Col("a"), Kind: KindInt},
		{Name: "c", E: Const(Null()), Kind: KindInt},
		{Name: "d", E: ConstInt(7), Kind: KindInt},
	})
	out := mustDrain(t, it)
	if out.Sch.Len() != 4 || out.Len() != 2 {
		t.Fatalf("schema %v, %d rows", out.Sch.Names(), out.Len())
	}
	for _, row := range out.Rows {
		if row[1] != row[0] || !row[2].IsNull() || row[3].AsInt() != 7 {
			t.Fatalf("computed columns wrong: %v", out.Rows)
		}
	}
	// Only a column or a constant is extended by.
	bad := NewExtend(NewScan(r), []NamedExpr{{Name: "e", E: Cmp(GT, Col("a"), ConstInt(1)), Kind: KindBool}})
	if err := bad.Open(); err == nil {
		t.Fatal("a computed expression must fail at Open")
	}
}

func TestExtendPlan(t *testing.T) {
	cat := NewCatalog()
	cat.Put("r", testRel([]string{"a"}, [][]int64{{1}, {2}, {3}}))
	p := Filter(
		Extend(Scan("r"), NamedExpr{Name: "copy", E: Col("a"), Kind: KindInt}),
		Cmp(GT, Col("copy"), ConstInt(1)))
	out, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("want 2 rows, got %d", out.Len())
	}
	// Schema propagates before Open.
	sch, err := p.Schema(cat)
	if err != nil || sch.Len() != 2 {
		t.Fatalf("schema: %v %v", sch, err)
	}
	st := EstimateStats(p, cat)
	if st.Rows <= 0 {
		t.Fatal("estimate")
	}
	if !strings.Contains(Extend(Scan("r"), NamedExpr{Name: "x", E: ConstInt(1), Kind: KindInt}).Label(), "x") {
		t.Fatal("label")
	}
}

func TestExtendBindError(t *testing.T) {
	r := testRel([]string{"a"}, [][]int64{{1}})
	it := NewExtend(NewScan(r), []NamedExpr{{Name: "b", E: Col("missing"), Kind: KindInt}})
	if err := it.Open(); err == nil {
		t.Fatal("unknown column must fail at Open")
	}
}

func TestRenamePlanAndIter(t *testing.T) {
	cat := NewCatalog()
	cat.Put("r", testRel([]string{"a", "b"}, [][]int64{{1, 2}}))
	p := Rename(Scan("r"), []string{"x", "y"})
	out, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sch.Names()[0] != "x" || out.Sch.Names()[1] != "y" {
		t.Fatalf("renamed schema wrong: %v", out.Sch.Names())
	}
	// Width mismatch errors.
	bad := Rename(Scan("r"), []string{"only"})
	if _, err := bad.Schema(cat); err == nil {
		t.Fatal("rename width mismatch must fail")
	}
	it := NewRename(NewScan(cat.MustGet("r")), []string{"only"})
	if err := it.Open(); err == nil {
		t.Fatal("iter rename width mismatch must fail")
	}
}

func TestUnionWidthMismatch(t *testing.T) {
	a := testRel([]string{"x"}, [][]int64{{1}})
	b := testRel([]string{"x", "y"}, [][]int64{{1, 2}})
	u := NewUnion(NewScan(a), NewScan(b))
	if err := u.Open(); err == nil {
		t.Fatal("union width mismatch must fail")
	}
	d := NewDiff(NewScan(a), NewScan(b))
	if err := d.Open(); err == nil {
		t.Fatal("diff width mismatch must fail")
	}
}

func TestFilterBindError(t *testing.T) {
	r := testRel([]string{"a"}, [][]int64{{1}})
	f := NewFilter(NewScan(r), Cmp(EQ, Col("zzz"), ConstInt(1)))
	if err := f.Open(); err == nil {
		t.Fatal("bad filter must fail at Open")
	}
	pr := NewProject(NewScan(r), []string{"zzz"})
	if err := pr.Open(); err == nil {
		t.Fatal("bad projection must fail at Open")
	}
	hj := NewHashJoin(NewScan(r), NewScan(r), nil, Cmp(EQ, Col("zzz"), ConstInt(1)), nil)
	if err := hj.Open(); err == nil {
		t.Fatal("bad keyless join condition must fail at Open")
	}
}

func TestBuildUnknownRelation(t *testing.T) {
	cat := NewCatalog()
	if _, err := RunDefault(Scan("ghost"), cat); err == nil {
		t.Fatal("unknown relation must fail")
	}
	if _, err := Explain(Scan("ghost"), cat, true); err == nil {
		t.Fatal("explain of broken plan must fail")
	}
}

func TestExplainCoversAllNodes(t *testing.T) {
	cat := planCatalog()
	plans := []Plan{
		Union(Project(Scan("customer"), "c.nationkey"), Project(Scan("nation"), "n.nationkey")),
		Diff(Project(Scan("nation"), "n.nationkey"), Project(Scan("customer"), "c.nationkey")),
		Semi(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
		Join(Scan("nation"), Scan("nation"), nil),
		Extend(Scan("nation"), NamedExpr{Name: "k2", E: Col("n.nationkey"), Kind: KindInt}),
		Filter(Values(testRel([]string{"v"}, [][]int64{{1}}), "inline"), Cmp(EQ, Col("v"), ConstInt(1))),
		Filter(DistinctOf(Scan("nation")), Cmp(EQ, Col("n.name"), ConstStr("N1"))),
	}
	for i, p := range plans {
		s, err := Explain(p, cat, false)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if len(s) == 0 {
			t.Fatalf("plan %d: empty explain", i)
		}
		// And they all execute.
		if _, err := Run(p, cat, ExecConfig{DisableOptimizer: true}); err != nil {
			t.Fatalf("plan %d: run: %v", i, err)
		}
	}
}

func TestLabelStrings(t *testing.T) {
	labels := []struct {
		p    Plan
		want string
	}{
		{Scan("t"), "Seq Scan on t"},
		{Values(testRel([]string{"a"}, nil), ""), "Seq Scan on values"},
		{DistinctOf(Scan("t")), "HashAggregate (distinct)"},
		{Union(Scan("t"), Scan("t")), "Append"},
		{Diff(Scan("t"), Scan("t")), "Except"},
		{Join(Scan("t"), Scan("t"), nil), "Hash Join"},
		{Semi(Scan("t"), Scan("t"), EqCols("a", "b")), "Hash Join (semi)"},
		{Rename(Scan("t"), []string{"x"}), "Rename"},
	}
	for _, l := range labels {
		if got := l.p.Label(); !strings.Contains(got, l.want) {
			t.Errorf("label %q does not contain %q", got, l.want)
		}
	}
}
