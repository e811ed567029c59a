package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func planCatalog() *Catalog {
	cat := NewCatalog()
	cust := NewRelation(NewSchema(
		Column{Name: "c.custkey", Kind: KindInt},
		Column{Name: "c.name", Kind: KindString},
		Column{Name: "c.nationkey", Kind: KindInt},
	))
	for i := int64(0); i < 50; i++ {
		name := "Cust" + string(rune('A'+i%26))
		cust.Append(Tuple{Int(i), Str(name), Int(i % 5)})
	}
	ord := NewRelation(NewSchema(
		Column{Name: "o.orderkey", Kind: KindInt},
		Column{Name: "o.custkey", Kind: KindInt},
		Column{Name: "o.total", Kind: KindInt},
	))
	for i := int64(0); i < 200; i++ {
		ord.Append(Tuple{Int(i), Int(i % 50), Int(i * 10)})
	}
	nat := NewRelation(NewSchema(
		Column{Name: "n.nationkey", Kind: KindInt},
		Column{Name: "n.name", Kind: KindString},
	))
	for i := int64(0); i < 5; i++ {
		nat.Append(Tuple{Int(i), Str("N" + string(rune('0'+i)))})
	}
	cat.Put("customer", cust)
	cat.Put("orders", ord)
	cat.Put("nation", nat)
	return cat
}

func TestRunSimplePlan(t *testing.T) {
	cat := planCatalog()
	p := Project(
		Filter(Scan("orders"), Cmp(GT, Col("o.total"), ConstInt(1900))),
		"o.orderkey")
	out, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 9 { // totals 1910..1990
		t.Fatalf("want 9 rows, got %d", out.Len())
	}
}

func TestJoinPlanOptimizedMatchesUnoptimized(t *testing.T) {
	cat := planCatalog()
	p := Project(
		Filter(
			Join(Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
				Scan("nation"), EqCols("c.nationkey", "n.nationkey")),
			And(Cmp(GT, Col("o.total"), ConstInt(500)), Cmp(EQ, Col("n.name"), ConstStr("N1")))),
		"o.orderkey", "c.name")
	opt, err := Run(p, cat, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.EqualAsBag(raw) {
		t.Fatalf("optimizer changed the result: %d vs %d rows", opt.Len(), raw.Len())
	}
	if opt.Len() == 0 {
		t.Fatal("expected non-empty result")
	}
}

// TestParallelFieldsAreInert: ExecConfig's Parallelism and
// ParallelThreshold are ignored. A large join under a filter builds to
// the same operator at every node, and gives the same rows in the same
// order, with the default config and with both fields set.
func TestParallelFieldsAreInert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, r := randJoinInput(rng, 20000, 4000, "l"), randJoinInput(rng, 20000, 4000, "r")
	p := Filter(Join(Values(l, "l"), Values(r, "r"), EqCols("l.k", "r.k")), Cmp(NE, Col("l.s"), Col("r.s")))
	var shapes []string
	var rows []*Relation
	for _, cfg := range []ExecConfig{{}, {Parallelism: 4, ParallelThreshold: 1}} {
		it, err := Build(p, NewCatalog(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, iterShape(reflect.ValueOf(it)))
		rows = append(rows, mustDrain(t, it))
	}
	if shapes[0] != shapes[1] {
		t.Fatalf("Parallelism set builds %s, the default %s", shapes[1], shapes[0])
	}
	checkJoinRows(t, shapes[0], rows[0], rows[1], true)
}

// iterShape names the operator v holds and, in parentheses, the shapes
// of the inputs it holds as Iterator fields.
func iterShape(v reflect.Value) string {
	if v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	name := v.Type().String()
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	var kids []string
	if v.Kind() == reflect.Struct {
		iter := reflect.TypeOf((*Iterator)(nil)).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Type() == iter && !f.IsNil() {
				kids = append(kids, iterShape(f))
			}
		}
	}
	return fmt.Sprintf("%s(%s)", name, strings.Join(kids, ", "))
}

// TestParallelHashJoinEquivalence: across random inputs and residuals,
// the hash join gives refJoin's rows in refJoin's order, and so does the
// same join built with any Parallelism value, which is ignored.
func TestParallelHashJoinEquivalence(t *testing.T) {
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	residuals := map[string]Expr{
		"none":     nil,
		"ne":       Cmp(NE, Col("l.s"), Col("r.s")),
		"lt-float": Cmp(LT, Col("l.v"), Col("r.v")),
	}
	for seed := int64(0); seed < 2; seed++ {
		for _, sz := range []struct{ ln, rn, keys int }{
			{0, 50, 5}, {50, 0, 5},
			{200, 300, 7},    // heavy skew: many matches per key
			{1000, 800, 400}, // mostly unique keys
			{1500, 1200, 60},
		} {
			for rname, residual := range residuals {
				for _, workers := range []int{1, 3, 8} {
					name := fmt.Sprintf("seed=%d/l=%d/r=%d/keys=%d/res=%s/w=%d", seed, sz.ln, sz.rn, sz.keys, rname, workers)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						l, r := randJoinInput(rng, sz.ln, sz.keys, "l"), randJoinInput(rng, sz.rn, sz.keys, "r")
						want := refJoin(t, l, r, pairs, residual, nil)
						checkJoinRows(t, "hash join", want, mustDrain(t, NewHashJoin(NewScan(l), NewScan(r), pairs, residual, nil)), true)
						p := Join(Values(l, "l"), Values(r, "r"), And(EqCols("l.k", "r.k"), residual))
						it, err := Build(p, NewCatalog(), ExecConfig{Parallelism: workers, ParallelThreshold: 1})
						if err != nil {
							t.Fatal(err)
						}
						checkJoinRows(t, "built with Parallelism set", want, mustDrain(t, it), true)
					})
				}
			}
		}
	}
}

// TestParallelFilterEquivalence: a filter built with any Parallelism
// value, which is ignored, gives the serial filter's rows in order.
func TestParallelFilterEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, n := range []int{0, 1, 100, 5000} {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("seed=%d/n=%d/w=%d", seed, n, workers), func(t *testing.T) {
					rel := randJoinInput(rand.New(rand.NewSource(seed)), n, 10, "t")
					pred := Cmp(LT, Col("t.k"), ConstInt(5))
					want := mustDrain(t, NewFilter(NewScan(rel), pred))
					it, err := Build(Filter(Values(rel, "t"), pred), NewCatalog(), ExecConfig{Parallelism: workers, ParallelThreshold: 1})
					if err != nil {
						t.Fatal(err)
					}
					checkJoinRows(t, "built with Parallelism set", want, mustDrain(t, it), true)
				})
			}
		}
	}
}

func TestSelfJoinWithRename(t *testing.T) {
	cat := planCatalog()
	n1 := Rename(Scan("nation"), []string{"n1.nationkey", "n1.name"})
	n2 := Rename(Scan("nation"), []string{"n2.nationkey", "n2.name"})
	p := Filter(Join(n1, n2, nil), Cmp(LT, Col("n1.nationkey"), Col("n2.nationkey")))
	out, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 { // C(5,2)
		t.Fatalf("want 10 pairs, got %d", out.Len())
	}
}

func TestUnionDiffIntersectPlans(t *testing.T) {
	cat := planCatalog()
	a := Project(Scan("customer"), "c.nationkey")
	b := Project(Scan("nation"), "n.nationkey")
	u, err := RunDefault(DistinctOf(Union(a, b)), cat)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 5 {
		t.Fatalf("distinct union: want 5, got %d", u.Len())
	}
	d, err := RunDefault(Diff(b, a), cat)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("diff: want 0, got %d", d.Len())
	}
	// The intersection is the double difference b − (b − a).
	i, err := RunDefault(Diff(b, Diff(b, a)), cat)
	if err != nil {
		t.Fatal(err)
	}
	if i.Len() != 5 {
		t.Fatalf("intersect: want 5, got %d", i.Len())
	}
}

func TestValuesPlan(t *testing.T) {
	cat := NewCatalog()
	rel := testRel([]string{"a"}, [][]int64{{1}, {2}})
	out, err := RunDefault(Values(rel, "tmp"), cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatal("values plan scan")
	}
}

func TestOptimizerPushesFilterBelowJoin(t *testing.T) {
	cat := planCatalog()
	p := Filter(
		Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
		Cmp(EQ, Col("c.name"), ConstStr("CustA")))
	opt, err := Optimize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	// After pushdown the top node should be the join (possibly wrapped
	// in projections), not the filter.
	if _, isFilter := opt.(*FilterPlan); isFilter {
		t.Fatalf("filter was not pushed below the join:\n%s", mustExplain(t, opt, cat))
	}
	out, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualAsBag(want) {
		t.Fatal("pushdown changed semantics")
	}
}

func mustExplain(t *testing.T, p Plan, cat *Catalog) string {
	t.Helper()
	s, err := Explain(p, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExplainOutput(t *testing.T) {
	cat := planCatalog()
	p := Project(
		Filter(
			Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
			Cmp(GT, Col("o.total"), ConstInt(100))),
		"c.name")
	s, err := Explain(p, cat, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Hash Join") {
		t.Errorf("explain should pick a hash join:\n%s", s)
	}
	if !strings.Contains(s, "Hash Cond") {
		t.Errorf("explain should print the hash condition:\n%s", s)
	}
	if !strings.Contains(s, "Seq Scan on orders") {
		t.Errorf("explain should show scans:\n%s", s)
	}
}

func TestJoinOrderingPrefersSelective(t *testing.T) {
	cat := planCatalog()
	// nation is tiny and has a selective filter; the join orderer
	// should join it first rather than orders.
	p := Filter(
		Join(Join(Scan("orders"), Scan("customer"), EqCols("o.custkey", "c.custkey")),
			Scan("nation"), EqCols("c.nationkey", "n.nationkey")),
		Cmp(EQ, Col("n.name"), ConstStr("N2")))
	opt, err := Optimize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualAsBag(want) {
		t.Fatal("join reordering changed semantics")
	}
	if out.Len() != 40 { // 10 customers of nation 2 x 4 orders each
		t.Fatalf("want 40 rows, got %d", out.Len())
	}
}

func TestEstimateStatsSanity(t *testing.T) {
	cat := planCatalog()
	scan := EstimateStats(Scan("orders"), cat)
	if scan.Rows != 200 {
		t.Fatalf("scan rows: %v", scan.Rows)
	}
	filt := EstimateStats(Filter(Scan("orders"), Cmp(EQ, Col("o.custkey"), ConstInt(3))), cat)
	if filt.Rows <= 0 || filt.Rows >= 200 {
		t.Fatalf("eq filter estimate out of range: %v", filt.Rows)
	}
	join := EstimateStats(Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")), cat)
	if join.Rows < 100 || join.Rows > 1000 {
		t.Fatalf("join estimate implausible: %v", join.Rows)
	}
}

func TestOptimizerAblationSemantics(t *testing.T) {
	cat := planCatalog()
	plans := []Plan{
		Project(Filter(Scan("orders"), Cmp(LT, Col("o.total"), ConstInt(300))), "o.orderkey"),
		Filter(Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")),
			Cmp(EQ, Col("c.nationkey"), ConstInt(1))),
		DistinctOf(Project(Join(Scan("customer"), Scan("nation"),
			EqCols("c.nationkey", "n.nationkey")), "n.name")),
	}
	for i, p := range plans {
		a, err := Run(p, cat, ExecConfig{})
		if err != nil {
			t.Fatalf("plan %d optimized: %v", i, err)
		}
		b, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("plan %d raw: %v", i, err)
		}
		if !a.EqualAsSet(b) {
			t.Fatalf("plan %d: optimizer changed result", i)
		}
	}
}
