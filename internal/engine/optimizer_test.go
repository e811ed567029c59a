package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPushdownThroughUnion: a filter over a union distributes into both
// branches when the columns resolve on both sides.
func TestPushdownThroughUnion(t *testing.T) {
	cat := NewCatalog()
	cat.Put("a", testRel([]string{"v"}, [][]int64{{1}, {2}, {3}}))
	cat.Put("b", testRel([]string{"v"}, [][]int64{{2}, {4}}))
	p := Filter(Union(Scan("a"), Scan("b")), Cmp(GT, Col("v"), ConstInt(2)))
	opt, err := Optimize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, stillFilter := opt.(*FilterPlan); stillFilter {
		t.Fatalf("filter should distribute over union:\n%s", mustExplain(t, opt, cat))
	}
	out, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 { // 3 from a, 4 from b
		t.Fatalf("want 2 rows, got %d", out.Len())
	}
}

// TestPushdownThroughDistinct: filters commute with distinct.
func TestPushdownThroughDistinct(t *testing.T) {
	cat := NewCatalog()
	cat.Put("a", testRel([]string{"v"}, [][]int64{{1}, {1}, {2}, {3}}))
	for _, p := range []Plan{
		Filter(DistinctOf(Scan("a")), Cmp(GE, Col("v"), ConstInt(2))),
	} {
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		if _, stillFilter := opt.(*FilterPlan); stillFilter {
			t.Fatalf("filter should push below:\n%s", mustExplain(t, opt, cat))
		}
		a, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		if !a.EqualAsSet(b) {
			t.Fatal("pushdown changed semantics")
		}
	}
}

// TestPruneColumnsKeepsSemantics: column pruning around joins never
// changes results, including for semi joins.
func TestPruneColumnsKeepsSemantics(t *testing.T) {
	cat := planCatalog()
	plans := []Plan{
		Project(Join(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")), "c.name"),
		Project(Semi(Scan("customer"), Scan("orders"), EqCols("c.custkey", "o.custkey")), "c.name"),
	}
	for i, p := range plans {
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		a, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		b, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if !a.EqualAsBag(b) {
			t.Fatalf("plan %d: pruning changed semantics", i)
		}
	}
}

// TestJoinOrderRandomized: random star-join plans keep their semantics
// through optimization (schema order included).
func TestJoinOrderRandomized(t *testing.T) {
	cat := planCatalog()
	rng := rand.New(rand.NewSource(13))
	tables := []struct{ name, key string }{
		{"customer", "c.custkey"},
		{"orders", "o.custkey"},
	}
	_ = tables
	for iter := 0; iter < 20; iter++ {
		// Random permutation of a 3-way join with a random filter.
		j := Join(Join(Scan("orders"), Scan("customer"), EqCols("o.custkey", "c.custkey")),
			Scan("nation"), EqCols("c.nationkey", "n.nationkey"))
		var p Plan = j
		if rng.Intn(2) == 0 {
			p = Filter(p, Cmp(EQ, Col("n.nationkey"), ConstInt(int64(rng.Intn(5)))))
		}
		if rng.Intn(2) == 0 {
			p = Project(p, "o.orderkey", "n.name")
		}
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		if !a.EqualAsBag(b) {
			t.Fatalf("iter %d: optimization changed semantics", iter)
		}
	}
}

// CheckDerivedSchemas fails t unless every node of p reports the schema,
// or the error, that a node built afresh from its inputs derives: a
// node written after it derived its schema reports a stale one. The
// engine_test package's tests use it too.
func CheckDerivedSchemas(t testing.TB, p Plan, cat *Catalog) {
	t.Helper()
	got, gerr := p.Schema(cat)
	want, werr := p.WithChildren(p.Children()).Schema(cat)
	if (gerr == nil) != (werr == nil) || !got.Equal(want) {
		t.Fatalf("%s reports %v (%v); its inputs derive %v (%v)", p.Label(), got, gerr, want, werr)
	}
	for _, c := range p.Children() {
		CheckDerivedSchemas(t, c, cat)
	}
}

func TestStringHelpers(t *testing.T) {
	if !uniqueStrings([]string{"a", "b"}) || uniqueStrings([]string{"a", "a"}) {
		t.Fatal("uniqueStrings")
	}
}

// TestOptimizeIsSchemaPreserving: the contract core.Translate depends
// on — Optimize never changes the output schema.
func TestOptimizeIsSchemaPreserving(t *testing.T) {
	cat := planCatalog()
	plans := []Plan{
		Join(Join(Scan("orders"), Scan("customer"), EqCols("o.custkey", "c.custkey")),
			Scan("nation"), EqCols("c.nationkey", "n.nationkey")),
		Filter(Join(Scan("customer"), Scan("nation"), EqCols("c.nationkey", "n.nationkey")),
			Cmp(EQ, Col("n.name"), ConstStr("N0"))),
	}
	for i, p := range plans {
		before, err := p.Schema(cat)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		after, err := opt.Schema(cat)
		if err != nil {
			t.Fatal(err)
		}
		if !before.Equal(after) {
			t.Fatalf("plan %d: schema changed: %v -> %v", i, before.Names(), after.Names())
		}
	}
}

// TestOptimizeKeepsAmbiguousSelfJoinAsWritten: a raw self-join without
// aliases has two columns of every name, so the projection that puts a
// reordered join's columns back cannot name them — and a predicate
// written for one occurrence would bind to the other. Such a join keeps
// its written order, however selective its right input: the optimized
// plan has the schema of the plan as written, column for column, and
// its rows. (Its unambiguous inputs are still ordered.)
func TestOptimizeKeepsAmbiguousSelfJoinAsWritten(t *testing.T) {
	cat := NewCatalog()
	var trows, urows [][]int64
	for i := int64(0); i < 60; i++ {
		trows = append(trows, []int64{i % 20, i})
	}
	for i := int64(0); i < 30; i++ {
		urows = append(urows, []int64{i % 20, 100 + i})
	}
	cat.Put("t", testRel([]string{"a", "b"}, trows))
	cat.Put("u", testRel([]string{"x", "y"}, urows))
	selective := func() Plan { return Filter(Scan("t"), Cmp(EQ, Col("b"), ConstInt(7))) }
	for name, p := range map[string]Plan{
		"two leaves":   Join(Scan("t"), selective(), nil),
		"three leaves": Join(Join(Scan("t"), Scan("u"), EqCols("a", "x")), selective(), nil),
	} {
		before, err := p.Schema(cat)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimize(p, cat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after, err := opt.Schema(cat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !before.Equal(after) {
			t.Fatalf("%s: schema changed: %v -> %v\n%s", name, before.Names(), after.Names(), mustExplain(t, opt, cat))
		}
		want, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want.Len() == 0 || !want.EqualAsBag(got) {
			t.Fatalf("%s: %d rows, the plan as written gives %d", name, got.Len(), want.Len())
		}
	}
}

// TestFoldProjections pins the last rewrite of Optimize case by case:
// what folds (a projection into the projection or the inner join under
// it, transitively), what must not (a name that resolves by suffix among
// the inner projection's columns but not among the columns beneath it; a
// projection to no columns, whose nil names would read as "all" on a
// join; a semi join, which has no output of its own), and that a folded
// plan survives being optimized again. Every case returns the rows of
// the plan as written.
func TestFoldProjections(t *testing.T) {
	cat := planCatalog()
	join := func() *JoinPlan {
		return Join(Scan("customer"), Scan("orders"), Eq(Col("c.custkey"), Col("o.custkey")))
	}
	cases := []struct {
		name string
		plan Plan
		want string // the root after folding
	}{
		{"project over project", Project(Project(Scan("orders"), "o.total", "o.custkey", "o.orderkey"), "o.custkey", "o.total"),
			"Project: o.custkey, o.total"},
		{"project over inner join", Project(join(), "o.total", "c.name"), "Hash Join out=[o.total c.name]"},
		{"two projections over an inner join", Project(Project(join(), "c.name", "o.total", "o.orderkey"), "total", "c.name"),
			"Hash Join out=[total c.name]"},
		{"suffix that is ambiguous beneath", Project(Project(join(), "c.custkey", "o.total"), "custkey"), "Project: custkey"},
		{"projection to no columns", Project(join()), "Project: "},
		{"project over semi join", Project(Semi(Scan("customer"), Scan("orders"), Eq(Col("c.custkey"), Col("o.custkey"))), "c.name"),
			"Project: c.name"},
	}
	root := func(p Plan) string {
		if j, ok := p.(*JoinPlan); ok && j.Out != nil {
			return fmt.Sprintf("%s out=%v", j.Label(), j.Out)
		}
		return p.Label()
	}
	for _, c := range cases {
		want, err := Run(c.plan, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		folded := foldProjections(c.plan, cat)
		if got := root(folded); got != c.want {
			t.Errorf("%s: folds to %q, want %q", c.name, got, c.want)
		}
		again, err := Optimize(folded, cat)
		if err != nil {
			t.Fatalf("%s: optimizing the folded plan: %v", c.name, err)
		}
		for what, p := range map[string]Plan{"folded": folded, "folded and optimized again": again} {
			got, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, what, err)
			}
			if !got.Sch.Equal(want.Sch) || !got.EqualAsBag(want) {
				t.Errorf("%s, %s: %v with %d rows, the plan as written gives %v with %d", c.name, what, got.Sch, got.Len(), want.Sch, want.Len())
			}
		}
	}
}

// FuzzJoinOrder holds the join orderer to the plan as written. Each
// case draws 2–7 small relations rI(k, v) — NULLs among the cells, some
// relations empty — and joins them in a random tree, bushy or not,
// under equi conjuncts (most cases connected, some with a cross product
// left), ψ-like residual disjuncts, comparisons between two relations
// and selections of one; each join of the tree carries the conjuncts
// its two sides first cover. A filter and a projection may sit on top.
// The statistics are real (scanned), missing (a row count and no
// column) or adversarial (a billion rows, or one, of NDV 1), as in
// core's property suite. The optimized plan's answer bag must be the
// unoptimized plan's, and — both plans running through the one hash
// join — the unoptimized plan's must be loopJoin's, which shares no join
// code with the engine. Bushy trees put a join on another join's probe
// side, which no plan did while the orderer built left-deep trees.
func FuzzJoinOrder(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(5), uint8(1))
	f.Add(int64(3), uint8(3), uint8(2))
	f.Add(int64(4), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, regime uint8) {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(n%6)
		col := func(i int, c string) string { return fmt.Sprintf("r%d.%s", i, c) }
		forest, rels := make([]Plan, k), make([]*Relation, k)
		for i := range forest {
			rel := NewRelation(Schema{Cols: []Column{{Name: col(i, "k"), Kind: KindInt}, {Name: col(i, "v"), Kind: KindInt}}})
			rows := rng.Intn(4 + 16/k)
			if rng.Intn(6) == 0 {
				rows = 0
			}
			for j := 0; j < rows; j++ {
				row := Tuple{Int(rng.Int63n(5)), Int(rng.Int63n(4))}
				for c := range row {
					if rng.Intn(8) == 0 {
						row[c] = Null()
					}
				}
				rel.Rows = append(rel.Rows, row)
			}
			v := Values(rel, fmt.Sprintf("r%d", i))
			switch regime % 3 {
			case 1:
				v.Stats = func() *TableStats { return &TableStats{Rows: float64(rows)} }
			case 2:
				ts := &TableStats{Rows: []float64{1, 1e9}[rng.Intn(2)], Cols: make([]ColStats, rel.Sch.Len())}
				for i := range ts.Cols {
					ts.Cols[i] = ColStats{NDV: 1}
				}
				v.Stats = func() *TableStats { return ts }
			}
			forest[i], rels[i] = v, rel
		}
		var conjs []Expr
		for i := 1; i < k; i++ {
			j := rng.Intn(i)
			if rng.Intn(7) > 0 {
				conjs = append(conjs, EqCols(col(i, "k"), col(j, []string{"k", "v"}[rng.Intn(2)])))
			}
			switch rng.Intn(4) {
			case 0:
				conjs = append(conjs, Or(Cmp(NE, Col(col(i, "v")), Col(col(j, "v"))), EqCols(col(i, "k"), col(j, "k"))))
			case 1:
				conjs = append(conjs, Cmp(LE, Col(col(i, "v")), Col(col(j, "v"))))
			case 2:
				conjs = append(conjs, Cmp(GT, Col(col(i, "v")), ConstInt(0)))
			}
		}
		placed := make([]bool, len(conjs))
		for len(forest) > 1 {
			a := rng.Intn(len(forest))
			b := rng.Intn(len(forest) - 1)
			if b >= a {
				b++
			}
			l, r := forest[a], forest[b]
			ls, _ := l.Schema(nil)
			rs, _ := r.Schema(nil)
			var cond []Expr
			for c, e := range conjs {
				if !placed[c] && CoveredBy(e, ls.Concat(rs)) {
					placed[c] = true
					cond = append(cond, e)
				}
			}
			var j Plan = Join(l, r, nil)
			if len(cond) > 0 {
				j = Join(l, r, And(cond...))
			}
			forest[a] = j
			forest = append(forest[:b], forest[b+1:]...)
		}
		plan := forest[0]
		if rng.Intn(2) == 0 {
			sel := Cmp(NE, Col(col(rng.Intn(k), "k")), ConstInt(rng.Int63n(5)))
			plan, conjs = Filter(plan, sel), append(conjs, sel)
		}
		if rng.Intn(2) == 0 {
			sch, _ := plan.Schema(nil)
			var names []string
			for _, c := range sch.Cols {
				if rng.Intn(2) == 0 {
					names = append(names, c.Name)
				}
			}
			if len(names) > 0 {
				plan = Project(plan, names...)
			}
		}
		cat := NewCatalog()
		want, err := Run(plan, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		if ref := loopJoin(t, rels, conjs, want.Sch); !want.EqualAsBag(ref) {
			text, _ := Explain(plan, cat, false)
			t.Fatalf("the plan as written answers %d rows, a row-at-a-time loop %d:\n%s", want.Len(), ref.Len(), text)
		}
		opt, err := Optimize(plan, cat)
		if err != nil {
			t.Fatal(err)
		}
		CheckDerivedSchemas(t, opt, cat)
		got, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) {
			text, _ := Explain(opt, cat, false)
			t.Fatalf("optimized plan answers %d rows, the plan as written %d:\n%s", got.Len(), want.Len(), text)
		}
	})
}

// loopJoin is the answer of the join of rels under conds, made row at a
// time with no join code of the engine: every combination of one row
// per relation, each condition checked (interpret) once the last
// relation it reads has its row, each surviving combination picked by
// name to sch's columns.
func loopJoin(t *testing.T, rels []*Relation, conds []Expr, sch Schema) *Relation {
	var full Schema
	offs := make([]int, len(rels)) // where each relation's cells start in the combination
	for d, r := range rels {
		offs[d], full = full.Len(), full.Concat(r.Sch)
	}
	at := make([][]Expr, len(rels)) // the conditions checked once relation d has its row
	for _, c := range conds {
		last := 0
		for _, name := range ExprColumns(c) {
			i := full.IndexOf(name)
			for d := range offs {
				if i >= offs[d] {
					last = max(last, d)
				}
			}
		}
		at[last] = append(at[last], c)
	}
	out := NewRelation(sch)
	row := make(Tuple, full.Len())
	var walk func(d int)
	walk = func(d int) {
		if d == len(rels) {
			picked := make(Tuple, sch.Len())
			for i, c := range sch.Cols {
				picked[i] = row[full.IndexOf(c.Name)]
			}
			out.Append(picked)
			return
		}
	rows:
		for _, r := range rels[d].Rows {
			copy(row[offs[d]:], r)
			for _, c := range at[d] {
				if !interpret(t, c, full, row) {
					continue rows
				}
			}
			walk(d + 1)
		}
	}
	walk(0)
	return out
}
