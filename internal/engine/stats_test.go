package engine

import (
	"go/ast"
	"math"
	"math/rand"
	"strings"
	"testing"

	"urel/internal/obs"
)

func TestComputeStatsBasics(t *testing.T) {
	r := testRel([]string{"a", "b"}, [][]int64{{1, 10}, {2, 10}, {3, 20}, {3, 20}})
	ts := ComputeStats(r)
	if ts.Rows != 4 {
		t.Fatal("row count")
	}
	a := ts.Cols[0]
	if a.NDV != 3 || a.Min.AsInt() != 1 || a.Max.AsInt() != 3 || !a.HasRange {
		t.Fatalf("column a stats wrong: %+v", a)
	}
	b := ts.Cols[1]
	if b.NDV != 2 {
		t.Fatalf("column b ndv: %v", b.NDV)
	}
}

func TestComputeStatsStrings(t *testing.T) {
	sch := NewSchema(Column{Name: "s", Kind: KindString})
	r := NewRelation(sch)
	r.Append(Tuple{Str("x")})
	r.Append(Tuple{Str("y")})
	ts := ComputeStats(r)
	if ts.Cols[0].HasRange {
		t.Fatal("strings have no numeric range")
	}
	if ts.Cols[0].Hist != nil {
		t.Fatal("strings have no histogram")
	}
}

func TestComputeStatsSampling(t *testing.T) {
	// More rows than the sample cap: NDV is scaled up, not truncated.
	r := NewRelation(NewSchema(Column{Name: "a", Kind: KindInt}))
	for i := 0; i < statsSampleCap*2; i++ {
		r.Append(Tuple{Int(int64(i))})
	}
	ts := ComputeStats(r)
	ndv := ts.Cols[0].NDV
	if ndv < float64(statsSampleCap) {
		t.Fatalf("scaled NDV too small: %v", ndv)
	}
}

func TestEquiDepthHistogram(t *testing.T) {
	// Heavily skewed data: 90% of values at 0..9, 10% spread to 10000.
	rng := rand.New(rand.NewSource(5))
	r := NewRelation(NewSchema(Column{Name: "v", Kind: KindInt}))
	n := 10000
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.9 {
			r.Append(Tuple{Int(int64(rng.Intn(10)))})
		} else {
			r.Append(Tuple{Int(int64(10 + rng.Intn(9990)))})
		}
	}
	ts := ComputeStats(r)
	cs := ts.Cols[0]
	if len(cs.Hist) != histBuckets+1 {
		t.Fatalf("histogram missing: %v", cs.Hist)
	}
	// True selectivity of v < 10 is ~0.9; linear min/max interpolation
	// would say ~0.001. The histogram estimate must be near the truth.
	sel := rangeSelectivity(LT, Int(10), cs)
	if math.Abs(sel-0.9) > 0.1 {
		t.Fatalf("histogram selectivity %v, want ≈0.9", sel)
	}
	naive := rangeSelectivity(LT, Int(10), ColStats{
		Min: cs.Min, Max: cs.Max, HasRange: true,
	})
	if naive > 0.1 {
		t.Fatalf("naive interpolation should be badly off (got %v) — test setup broken", naive)
	}
	// Boundary behaviors.
	if s := rangeSelectivity(LT, Int(-5), cs); s > 0.01 {
		t.Fatalf("below min: %v", s)
	}
	if s := rangeSelectivity(GT, Int(-5), cs); s < 0.99 {
		t.Fatalf("above min going right: %v", s)
	}
	if s := rangeSelectivity(LT, Int(999999), cs); s < 0.99 {
		t.Fatalf("above max: %v", s)
	}
}

func TestHistFracBelowMonotone(t *testing.T) {
	hist := []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	prev := -1.0
	for x := -10.0; x <= 40000; x += 500 {
		f := histFracBelow(hist, x)
		if f < prev-1e-12 {
			t.Fatalf("histFracBelow not monotone at %v: %v < %v", x, f, prev)
		}
		if f < 0 || f > 1 {
			t.Fatalf("out of range at %v: %v", x, f)
		}
		prev = f
	}
}

func TestEstimateUsesHistogramThroughPlans(t *testing.T) {
	cat := NewCatalog()
	r := NewRelation(NewSchema(Column{Name: "v", Kind: KindInt}))
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5000; i++ {
		if rng.Float64() < 0.95 {
			r.Append(Tuple{Int(int64(rng.Intn(5)))})
		} else {
			r.Append(Tuple{Int(int64(1000 + rng.Intn(1000)))})
		}
	}
	cat.Put("skewed", r)
	st := EstimateStats(Filter(Scan("skewed"), Cmp(LT, Col("v"), ConstInt(5))), cat)
	// True cardinality ~0.95*4/5*5000 ≈ 3800; accept a loose band that
	// naive interpolation (≈ 12 rows) would fail.
	if st.Rows < 1000 {
		t.Fatalf("histogram-based estimate too low: %v", st.Rows)
	}
}

func TestNormalizeCmpFlips(t *testing.T) {
	col, cst, op, ok := NormalizeColCmp(Cmp(LT, ConstInt(5), Col("a")))
	if !ok || col != "a" || cst.AsInt() != 5 || op != GT {
		t.Fatalf("flip wrong: %v %v %v %v", col, cst, op, ok)
	}
	_, _, _, ok = NormalizeColCmp(Cmp(EQ, Col("a"), Col("b")))
	if ok {
		t.Fatal("col-col must not normalize")
	}
}

func TestSelectivityBounds(t *testing.T) {
	cat := planCatalog()
	// Compound predicates stay within [~0, rows].
	preds := []Expr{
		And(Cmp(GT, Col("o.total"), ConstInt(100)), Cmp(LT, Col("o.total"), ConstInt(500))),
		Or(Cmp(EQ, Col("o.custkey"), ConstInt(1)), Cmp(EQ, Col("o.custkey"), ConstInt(2))),
		Not(Cmp(EQ, Col("o.custkey"), ConstInt(1))),
	}
	for i, p := range preds {
		st := EstimateStats(Filter(Scan("orders"), p), cat)
		if st.Rows < 0.5 || st.Rows > 200 {
			t.Fatalf("pred %d: estimate out of bounds: %v", i, st.Rows)
		}
	}
}

// stubSource is a minimal SourcePlan for estimator tests.
type stubSource struct {
	rows float64
	sch  Schema
}

func (s *stubSource) Schema(*Catalog) (Schema, error) { return s.sch, nil }
func (s *stubSource) Children() []Plan                { return nil }
func (s *stubSource) WithChildren([]Plan) Plan        { c := *s; return &c }
func (s *stubSource) Label() string                   { return "stub source" }
func (s *stubSource) EstimateRowCount() float64       { return s.rows }
func (s *stubSource) BuildIter(ExecConfig) (Iterator, error) {
	return NewScan(NewRelation(s.sch)), nil
}

// opaqueUnary is an unknown unary plan node, standing in for future
// wrappers the estimator has no case for.
type opaqueUnary struct{ child Plan }

func (o *opaqueUnary) Schema(cat *Catalog) (Schema, error) { return o.child.Schema(cat) }
func (o *opaqueUnary) Children() []Plan                    { return []Plan{o.child} }
func (o *opaqueUnary) WithChildren(ch []Plan) Plan         { return &opaqueUnary{child: ch[0]} }
func (o *opaqueUnary) Label() string                       { return "opaque" }

// TestEstimateSourcePropagation checks that cardinality estimates flow
// from storage-backed leaves up through projections, unions, and even
// unknown unary wrappers — so the join strategy and EXPLAIN see a stored
// scan's cardinality instead of the unknown-node constant.
func TestEstimateSourcePropagation(t *testing.T) {
	cat := NewCatalog()
	src := &stubSource{rows: 50000, sch: NewSchema(Column{Name: "a", Kind: KindInt})}
	for _, tc := range []struct {
		what string
		plan Plan
		want float64
	}{
		{"source", src, 50000},
		{"projection over source", Project(src, "a"), 50000},
		{"union over sources", Union(Project(src, "a"), src), 100000},
		{"opaque unary over source", &opaqueUnary{child: src}, 50000},
	} {
		if got := EstimateStats(tc.plan, cat).Rows; got != tc.want {
			t.Fatalf("%s estimated at %g rows, want %g", tc.what, got, tc.want)
		}
	}
}

// statsLeaf is a keyed Values leaf of n rows: k is a key, j = k mod
// 10, v a ψ-style descriptor column.
func statsLeaf(alias string, n int64) *ValuesPlan {
	r := NewRelation(NewSchema(
		Column{Name: alias + ".k", Kind: KindInt},
		Column{Name: alias + ".j", Kind: KindInt},
		Column{Name: alias + ".v", Kind: KindInt},
	))
	for i := int64(0); i < n; i++ {
		r.Append(Tuple{Int(i), Int(i % 10), Int(i % 3)})
	}
	return Values(r, alias)
}

// TestPlanningPassScansEachAdHocLeafOnce: however often the join
// orderer and the selectivity code revisit a leaf, one planning pass
// runs ComputeStats at most once per distinct ad-hoc Values leaf, and
// never for a leaf that carries its statistics.
func TestPlanningPassScansEachAdHocLeafOnce(t *testing.T) {
	cat := NewCatalog()
	build := func() (Plan, []*ValuesPlan) {
		leaves := []*ValuesPlan{statsLeaf("a", 40), statsLeaf("b", 400), statsLeaf("c", 90), statsLeaf("d", 15)}
		var p Plan = leaves[0]
		for i := 1; i < len(leaves); i++ {
			l, r := leaves[i-1].Name, leaves[i].Name
			p = Join(p, leaves[i], EqCols(l+".k", r+".k"))
		}
		// Range predicates send the estimator to the leaves' histograms
		// (baseColStats) on top of the per-candidate join estimates.
		return Filter(p, And(Cmp(LT, Col("a.k"), ConstInt(30)), Cmp(GT, Col("c.j"), ConstInt(2)))), leaves
	}
	p, leaves := build()
	before := StatsScans()
	if _, err := Optimize(p, cat); err != nil {
		t.Fatal(err)
	}
	if got := StatsScans() - before; got < 1 || got > int64(len(leaves)) {
		t.Fatalf("Optimize ran %d statistics scans over %d ad-hoc leaves", got, len(leaves))
	}
	before = StatsScans()
	if _, err := Explain(p, cat, false); err != nil {
		t.Fatal(err)
	}
	if got := StatsScans() - before; got > int64(len(leaves)) {
		t.Fatalf("Explain ran %d statistics scans over %d ad-hoc leaves", got, len(leaves))
	}
	// A traced Build estimates every node for its span, an untraced
	// serial one none.
	before = StatsScans()
	if _, err := Build(p, cat, ExecConfig{Trace: obs.NewSpan("query")}); err != nil {
		t.Fatal(err)
	}
	if got := StatsScans() - before; got < 1 || got > int64(len(leaves)) {
		t.Fatalf("traced Build ran %d statistics scans over %d ad-hoc leaves", got, len(leaves))
	}
	before = StatsScans()
	if _, err := Build(p, cat, ExecConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := StatsScans() - before; got != 0 {
		t.Fatalf("serial untraced Build ran %d statistics scans", got)
	}

	// Leaves that travel with their statistics are never scanned.
	p, leaves = build()
	asked := 0
	for _, lf := range leaves {
		ts := ComputeBatchStats(lf.Batch)
		lf.Stats = func() *TableStats { asked++; return ts }
	}
	before = StatsScans()
	if _, err := Optimize(p, cat); err != nil {
		t.Fatal(err)
	}
	if got := StatsScans() - before; got != 0 {
		t.Fatalf("Optimize ran %d statistics scans over leaves that carry statistics", got)
	}
	if asked < 1 || asked > len(leaves) {
		t.Fatalf("statistics handles asked %d times for %d leaves", asked, len(leaves))
	}
}

// TestPsiIsNotAJoinEdge: a ψ-style disjunct covers two inputs without
// relating them, so the join orderer must not take it for a connection
// and prefer the cross product it "connects" over a real equi join —
// the stored-source cliff (ISSUE 16). The ψ conjunct still lands on
// the join that first covers both its sides.
func TestPsiIsNotAJoinEdge(t *testing.T) {
	cat := NewCatalog()
	a, b, c := statsLeaf("a", 30), statsLeaf("b", 300), statsLeaf("c", 20)
	psi := Or(Cmp(NE, Col("a.v"), Col("c.v")), Cmp(EQ, Col("a.k"), Col("c.k")))
	// a ⋈ b and b ⋈ c join on j (10 values), so each is estimated well
	// above |a|·|c|; a and c share only ψ, and c is where greedy starts.
	p := Join(Join(a, b, EqCols("a.j", "b.j")), c, And(EqCols("b.j", "c.j"), psi))
	opt, err := Optimize(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	joins, psiSeen := 0, false
	var walk func(Plan)
	walk = func(q Plan) {
		if j, ok := q.(*JoinPlan); ok {
			joins++
			ls, _ := j.L.Schema(cat)
			rs, _ := j.R.Schema(cat)
			pairs, residual := ExtractEquiJoin(j.Cond, ls, rs)
			if len(pairs) == 0 {
				t.Errorf("join without an equi pair (a ψ-only cross product): %v", j.Cond)
			}
			if residual != nil && strings.Contains(residual.String(), "a.v") {
				psiSeen = true
			}
		}
		for _, ch := range q.Children() {
			walk(ch)
		}
	}
	walk(opt)
	if joins != 2 || !psiSeen {
		t.Fatalf("want 2 joins with ψ attached to one of them, got %d joins, ψ attached: %v", joins, psiSeen)
	}
	want, err := Run(p, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(opt, cat, ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualAsBag(got) {
		t.Fatalf("reordering changed the result: %d vs %d rows", got.Len(), want.Len())
	}
}

// statsStub is a stubSource that knows its key column (StatsSource).
type statsStub struct {
	stubSource
	key string
}

func (s *statsStub) SourceStats() *TableStats {
	cols := make([]ColStats, s.sch.Len())
	cols[s.sch.IndexOf(s.key)].NDV = s.rows
	return &TableStats{Rows: s.rows, Cols: cols}
}

// TestSourceStatsMakeKeyJoinsKeyJoins: two storage leaves joined on
// columns they report as keys estimate at the size of an input, not at
// |L|·|R| over the default NDV; leaves that report nothing keep the
// default.
func TestSourceStatsMakeKeyJoinsKeyJoins(t *testing.T) {
	cat := NewCatalog()
	mk := func(alias string, rows float64) *statsStub {
		return &statsStub{stubSource: stubSource{rows: rows, sch: NewSchema(Column{Name: alias + ".tid", Kind: KindInt})}, key: alias + ".tid"}
	}
	l, r := mk("l", 6000), mk("r", 6300)
	if got := EstimateStats(Join(l, r, EqCols("l.tid", "r.tid")), cat).Rows; got < 600 || got > 63000 {
		t.Fatalf("key join of 6000 and 6300 rows estimated at %g", got)
	}
	if got := EstimateStats(Join(&l.stubSource, &r.stubSource, EqCols("l.tid", "r.tid")), cat).Rows; got != 6000*6300/defaultNDV {
		t.Fatalf("join of statistics-free sources estimated at %g, want the default-NDV estimate", got)
	}
}

// TestOneCardinalityEstimator pins that row counts have one source in
// this package: it parses the non-test files and fails if any function
// but estimator.estimate both returns a cardinality (float64 or
// PlanStats) and type-switches over plan node types — the shape of the
// second, cruder estimator physical lowering used to keep, whose
// numbers EXPLAIN ANALYZE printed against plans chosen on the first.
func TestOneCardinalityEstimator(t *testing.T) {
	var found []string
	for _, fn := range packageFuncs(t) {
		if fn.Body == nil || fn.Type.Results == nil {
			continue
		}
		returnsRows := false
		for _, r := range fn.Type.Results.List {
			if id, ok := r.Type.(*ast.Ident); ok && (id.Name == "float64" || id.Name == "PlanStats") {
				returnsRows = true
			}
		}
		if returnsRows && planTypeCases(fn.Body) >= 2 {
			found = append(found, fn.Name.Name)
		}
	}
	if len(found) != 1 || found[0] != "estimate" {
		t.Fatalf("functions deriving a row count from a switch over plan node types: %v, want exactly [estimate]", found)
	}
}

// planTypeCases counts the *…Plan types named by the case clauses of
// the type switches in body.
func planTypeCases(body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		ts, ok := node.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, stmt := range ts.Body.List {
			for _, e := range stmt.(*ast.CaseClause).List {
				if star, ok := e.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Plan") {
						n++
					}
				}
			}
		}
		return true
	})
	return n
}
