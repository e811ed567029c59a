package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"urel/internal/obs"
)

// colSource is a test source over a relation: it serves typed column
// vectors (with null markers), or generic ones, built from the
// relation's rows in batches of a chosen size, standing in for a
// columnar storage layer so engine tests can exercise every vector
// layout without importing the store package. It counts its pulls.
type colSource struct {
	rel     *Relation
	chunk   int  // rows per batch
	generic bool // serve every column as a generic (tagged-value) vector
	pos     int
	cb      ColBatch

	pulls int // Next calls received
}

func newColSource(rel *Relation, chunk int) *colSource {
	if chunk <= 0 {
		chunk = 100
	}
	return &colSource{rel: rel, chunk: chunk}
}

func (c *colSource) Open() error    { c.pos = 0; return nil }
func (c *colSource) Close() error   { return nil }
func (c *colSource) Schema() Schema { return c.rel.Sch }

func (c *colSource) Next() (*ColBatch, bool, error) {
	c.pulls++
	cb, ok := c.nextCols()
	return cb, ok, nil
}

func (c *colSource) nextCols() (*ColBatch, bool) {
	if c.pos >= len(c.rel.Rows) {
		return nil, false
	}
	end := c.pos + c.chunk
	if end > len(c.rel.Rows) {
		end = len(c.rel.Rows)
	}
	rows := c.rel.Rows[c.pos:end]
	c.pos = end
	n := len(rows)
	cols := make([]ColVec, c.rel.Sch.Len())
	for ci, col := range c.rel.Sch.Cols {
		// Build a typed vector when every non-null cell matches the
		// declared kind; otherwise fall back to a generic vector.
		typed := !c.generic
		for _, row := range rows {
			if !row[ci].IsNull() && row[ci].K != col.Kind {
				typed = false
				break
			}
		}
		var nulls []bool
		for r, row := range rows {
			if row[ci].IsNull() {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[r] = true
			}
		}
		if !typed {
			vals := make([]Value, n)
			for r, row := range rows {
				vals[r] = row[ci]
			}
			cols[ci] = GenericVec(vals)
			continue
		}
		switch col.Kind {
		case KindInt, KindBool:
			xs := make([]int64, n)
			for r, row := range rows {
				xs[r] = row[ci].I
			}
			if col.Kind == KindBool {
				cols[ci] = BoolVec(xs, nulls)
			} else {
				cols[ci] = IntVec(xs, nulls)
			}
		case KindFloat:
			xs := make([]float64, n)
			for r, row := range rows {
				xs[r] = row[ci].F
			}
			cols[ci] = FloatVec(xs, nulls)
		case KindString:
			xs := make([]string, n)
			for r, row := range rows {
				xs[r] = row[ci].S
			}
			cols[ci] = StrVec(xs, nulls)
		default:
			vals := make([]Value, n)
			for r, row := range rows {
				vals[r] = row[ci]
			}
			cols[ci] = GenericVec(vals)
		}
	}
	c.cb = ColBatch{Sch: c.rel.Sch, Cols: cols, N: n}
	return &c.cb, true
}

// randPredicates returns the predicate menu the property tests draw
// from: typed kernels (int, float, string, column-column), the OR kernel,
// and shapes with no kernel, which run on the generic row-eval fallback
// (NOT). The engine's two-valued logic writes a membership test as a
// disjunction of equalities ("in") and a NULL test as NOT (c = c), which
// a NULL cell fails ("isnull"), its negation c = c ("not-null").
func randPredicates(prefix string) map[string]Expr {
	c := func(n string) Expr { return Col(prefix + "." + n) }
	return map[string]Expr{
		"int-lt":    Cmp(LT, c("k"), ConstInt(3)),
		"int-ge":    Cmp(GE, c("k"), ConstInt(2)),
		"int-eq":    Cmp(EQ, c("k"), ConstInt(1)),
		"const-lhs": Cmp(LT, ConstInt(2), c("k")),
		"float-le":  Cmp(LE, c("v"), ConstFloat(0.5)),
		"int-vs-float": And(
			Cmp(GT, c("k"), ConstFloat(0.5)),
			Cmp(NE, c("k"), ConstInt(4))),
		"string-eq": Cmp(EQ, c("s"), ConstStr("s3")),
		"string-gt": Cmp(GT, c("s"), ConstStr("s5")),
		"col-col":   Cmp(LT, c("k"), c("k2")),
		"in":        Or(Cmp(EQ, c("s"), ConstStr("s1")), Cmp(EQ, c("s"), ConstStr("s2")), Cmp(EQ, c("s"), ConstStr("s7"))),
		"isnull":    Not(Cmp(EQ, c("k"), c("k"))),
		"not-null":  Cmp(EQ, c("k"), c("k")),
		"or-fallback": Or(
			Cmp(EQ, c("k"), ConstInt(0)),
			Cmp(GT, c("v"), ConstFloat(0.9))),
		"or-ranges": Or(
			And(Cmp(GE, c("k"), ConstInt(1)), Cmp(LE, c("k"), ConstInt(2))),
			And(Cmp(GE, c("k2"), ConstInt(4)), Cmp(LE, c("k2"), ConstInt(5)))),
		"or-three-arms": Or(
			Cmp(EQ, c("s"), ConstStr("s1")),
			Not(Cmp(EQ, c("k"), c("k"))),
			And(Cmp(LT, c("v"), ConstFloat(0.2)), Or(Not(Cmp(GE, c("k2"), ConstInt(2))), Cmp(GT, c("k"), c("k2"))))),
		"and-or": And(
			Cmp(NE, c("k"), ConstInt(3)),
			Or(Cmp(GT, c("s"), ConstStr("s6")), Not(Cmp(LT, c("v"), ConstFloat(0.5))))),
		"arith-fallback": And(Cmp(GE, c("k2"), ConstInt(1)), Not(Cmp(EQ, c("k"), c("k2")))),
	}
}

// randColInput builds a relation (k int, k2 int, s string, v float)
// with NULLs sprinkled into k and s.
func randColInput(r *rand.Rand, n int, prefix string) *Relation {
	rel := NewRelation(NewSchema(
		Column{Name: prefix + ".k", Kind: KindInt},
		Column{Name: prefix + ".k2", Kind: KindInt},
		Column{Name: prefix + ".s", Kind: KindString},
		Column{Name: prefix + ".v", Kind: KindFloat},
	))
	for i := 0; i < n; i++ {
		k := Int(int64(r.Intn(6)))
		if r.Intn(15) == 0 {
			k = Null()
		}
		s := Str(fmt.Sprintf("s%d", r.Intn(9)))
		if r.Intn(25) == 0 {
			s = Null()
		}
		rel.Append(Tuple{k, Int(int64(r.Intn(6))), s, Float(r.Float64())})
	}
	return rel
}

// filterRows is the row-at-a-time filter the vectorized one is held
// to: a plain loop over rel's rows with the bound predicate's Eval.
func filterRows(t *testing.T, rel *Relation, pred Expr) *Relation {
	t.Helper()
	b, err := pred.Bind(rel.Sch)
	if err != nil {
		t.Fatal(err)
	}
	out := NewRelation(rel.Sch)
	for _, row := range rel.Rows {
		if b.Eval(row).Truth() {
			out.Append(row)
		}
	}
	return out
}

// projectRows is the row-at-a-time projection of rel onto names.
func projectRows(t *testing.T, rel *Relation, names []string) *Relation {
	t.Helper()
	sch, err := rel.Sch.Project(names)
	if err != nil {
		t.Fatal(err)
	}
	out := NewRelation(sch)
	for _, row := range rel.Rows {
		p := make(Tuple, len(names))
		for i, n := range names {
			p[i] = row[rel.Sch.MustIndexOf(n)]
		}
		out.Append(p)
	}
	return out
}

// semiRows is the row-at-a-time semi join: the rows of l that have a
// row of r whose pair cells equal theirs, none NULL, and on whose
// concatenation with them the residual holds.
func semiRows(t *testing.T, l, r *Relation, pairs []EquiPair, residual Expr) *Relation {
	t.Helper()
	full := l.Sch.Concat(r.Sch)
	out := NewRelation(l.Sch)
	for _, lr := range l.Rows {
		found := false
		for _, rr := range r.Rows {
			match := true
			for _, p := range pairs {
				a, b := lr[l.Sch.MustIndexOf(p.L)], rr[r.Sch.MustIndexOf(p.R)]
				if a.IsNull() || b.IsNull() || KeyString(Tuple{a}) != KeyString(Tuple{b}) {
					match = false
					break
				}
			}
			if match && (residual == nil || interpret(t, residual, full, lr.Concat(rr))) {
				found = true
				break
			}
		}
		if found {
			out.Append(lr)
		}
	}
	return out
}

// TestFilterColumnarRowEquivalence runs every predicate shape through
// the vectorized filter — its kernels over typed vectors, over generic
// vectors (the layout the store's in-memory delta arrives in) and over
// the windows a relation scan transposes — asserting the result
// multiset of a plain row-at-a-time loop.
func TestFilterColumnarRowEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := randColInput(rng, 500, "t")
		for name, pred := range randPredicates("t") {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				want := filterRows(t, rel, pred)
				gsrc := newColSource(rel, 64)
				gsrc.generic = true
				for layout, src := range map[string]Iterator{"scan": NewScan(rel), "typed": newColSource(rel, 64), "generic": gsrc} {
					if got := mustDrain(t, NewFilter(src, pred)); !want.EqualAsBag(got) {
						t.Fatalf("%s: the filter keeps %d rows, the row loop %d", layout, got.Len(), want.Len())
					}
				}
			})
		}
	}
}

// TestRowEvalConjunctReadsOnlyItsColumns: a conjunct without a kernel
// (a NOT) is evaluated row by row on a scratch tuple, and only the
// columns it reads are filled in — a filter above a join does not pay
// for the join's width. The batch's other columns have empty payloads,
// so reading one panics. A disjunction runs as a union of its arms'
// kernels, a row kept iff some arm is TRUE: ranges, NULL cells (n)
// under a TRUE and a FALSE arm, a nested AND, an arm on the row-eval
// fallback, three arms, and a batch with a selection vector, whose
// order the survivors keep.
func TestRowEvalConjunctReadsOnlyItsColumns(t *testing.T) {
	sch := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "wide1", Kind: KindInt},
		Column{Name: "c", Kind: KindFloat}, Column{Name: "wide2", Kind: KindString}, Column{Name: "n", Kind: KindInt})
	cols := []ColVec{
		IntVec([]int64{1, 2, 3, 4}, nil), IntVec(nil, nil), FloatVec([]float64{0.1, 0.9, 0.2, 0.7}, nil), StrVec(nil, nil),
		IntVec([]int64{0, 5, 0, 7}, []bool{true, false, true, false}),
	}
	a, c, n := Col("a"), Col("c"), Col("n")
	between := func(e Expr, lo, hi int64) Expr { return And(Cmp(GE, e, ConstInt(lo)), Cmp(LE, e, ConstInt(hi))) }
	for _, tc := range []struct {
		pred Expr
		sel  []int32
		want string
	}{
		{Or(Cmp(EQ, a, ConstInt(1)), Cmp(GT, c, ConstFloat(0.5))), nil, "[0 1 3]"},
		{Not(Cmp(LT, c, ConstFloat(0.5))), nil, "[1 3]"},
		{And(Cmp(GT, a, ConstInt(1)), Or(Cmp(LT, c, ConstFloat(0.5)), Cmp(EQ, a, ConstInt(4)))), nil, "[2 3]"},
		{Or(between(a, 1, 1), between(a, 3, 4)), nil, "[0 2 3]"},
		{Or(between(a, 5, 9), between(a, -3, 0)), nil, "[]"},
		{Or(Cmp(GT, n, ConstInt(6)), Cmp(EQ, a, ConstInt(1))), nil, "[0 3]"},
		{Or(Cmp(LT, n, ConstInt(6)), Cmp(EQ, a, ConstInt(3))), nil, "[1 2]"},
		{Or(And(Cmp(GT, a, ConstInt(1)), Cmp(LT, c, ConstFloat(0.5))), Cmp(EQ, a, ConstInt(1))), nil, "[0 2]"},
		{Or(Not(Cmp(LT, c, ConstFloat(0.5))), Cmp(GT, c, ConstFloat(0.8))), nil, "[1 3]"},
		{Or(Cmp(EQ, a, ConstInt(1)), Cmp(EQ, a, ConstInt(3)), Cmp(GT, c, ConstFloat(0.8))), nil, "[0 1 2]"},
		{Or(Cmp(EQ, a, ConstInt(1)), Cmp(EQ, a, ConstInt(4))), []int32{3, 2, 0}, "[3 0]"},
		{Or(between(a, 2, 3), Not(Cmp(EQ, n, n))), []int32{2, 3, 1}, "[2 1]"},
	} {
		bound, err := tc.pred.Bind(sch)
		if err != nil {
			t.Fatal(err)
		}
		cb := &ColBatch{Sch: sch, N: 4, Cols: cols, Sel: tc.sel}
		if got := fmt.Sprint(compileVecPred(bound, sch).filter(cb, nil)); got != tc.want {
			t.Fatalf("%s over sel %v keeps rows %s, want %s", tc.pred, tc.sel, got, tc.want)
		}
	}
}

// TestFilterGrowsOnlyByKeptRows: a filter that keeps 3 rows of a
// 4 096-row batch, a point lookup's segment, allocates what those rows
// take, not a selection of the whole batch (16 KB while it wrote every
// live row into the selection before narrowing it). TotalAlloc counts
// every goroutine of the process, and a foreign allocation can only
// raise a round's reading, so the least of five rounds is what the
// filter takes.
func TestFilterGrowsOnlyByKeptRows(t *testing.T) {
	const n = 4096
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i / 3)
	}
	sch := NewSchema(Column{Name: "k", Kind: KindInt})
	bound, err := Cmp(EQ, Col("k"), ConstInt(77)).Bind(sch)
	if err != nil {
		t.Fatal(err)
	}
	cb := &ColBatch{Sch: sch, N: n, Cols: []ColVec{IntVec(keys, nil)}}
	p := compileVecPred(bound, sch)
	const runs = 100
	var sel []int32
	kb := math.Inf(1)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sel = p.filter(cb, nil)
		}
		runtime.ReadMemStats(&after)
		kb = min(kb, float64(after.TotalAlloc-before.TotalAlloc)/runs/1024)
	}
	if fmt.Sprint(sel) != "[231 232 233]" {
		t.Fatalf("kept rows %v, want [231 232 233]", sel)
	}
	if kb > 1 {
		t.Fatalf("filtering %d rows to 3 allocates %.1f KB, want at most 1", n, kb)
	}
}

// TestRandomPlanColumnarRowEquivalence is the end-to-end property
// test: randomized plans (filters, projections, equi-joins with
// residuals, NULL keys, semi joins) must produce the multiset of
// the row-at-a-time references — a plain filter loop, refJoin, a plain
// projection, semiRows — over relation scans and over typed column
// batches. The plan has the join emit through a random Out (the
// reference's projection, a subset, a permutation or nothing) with a
// projection to the same columns above.
func TestRandomPlanColumnarRowEquivalence(t *testing.T) {
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		l := randColInput(rng, 300+rng.Intn(400), "l")
		r := randColInput(rng, 300+rng.Intn(400), "r")
		lpreds := randPredicates("l")
		residuals := map[string]Expr{
			"none":  nil,
			"ne":    Cmp(NE, Col("l.s"), Col("r.s")),
			"float": Cmp(LT, Col("l.v"), Col("r.v")),
		}
		proj := []string{"l.k", "r.s", "l.v"}
		for pname, pred := range lpreds {
			for rname, residual := range residuals {
				name := fmt.Sprintf("seed=%d/pred=%s/res=%s", seed, pname, rname)
				t.Run(name, func(t *testing.T) {
					// Drawn from the case's name: the cases run in map order.
					orng := rand.New(rand.NewSource(int64(HashValue(Str(name)))))
					out := proj
					if orng.Intn(3) > 0 {
						// Any Out that keeps proj's columns.
						out = randOut(orng, l.Sch.Concat(r.Sch).Names())
						for _, c := range proj {
							if out != nil && !slices.Contains(out, c) {
								out = append(out, c)
							}
						}
					}
					build := func(lsrc, rsrc Iterator) Iterator {
						jn := NewHashJoin(NewFilter(lsrc, pred), rsrc, pairs, residual, out)
						if slices.Equal(out, proj) {
							return jn
						}
						return NewProject(jn, proj)
					}
					want := refJoin(t, filterRows(t, l, pred), r, pairs, residual, proj)
					for layout, got := range map[string]*Relation{
						"scan":  mustDrain(t, build(NewScan(l), NewScan(r))),
						"typed": mustDrain(t, build(newColSource(l, 128), newColSource(r, 77))),
					} {
						if !want.EqualAsBag(got) {
							t.Fatalf("%s: %d rows, the reference %d", layout, got.Len(), want.Len())
						}
					}
					// The shape poss(q) produces: the same plan under a Distinct root.
					if got := mustDrain(t, NewDistinct(build(newColSource(l, 128), newColSource(r, 77)))); !want.Distinct().EqualAsBag(got) {
						t.Fatalf("under Distinct: %d rows, the reference %d", got.Len(), want.Distinct().Len())
					}
					// The semi join shares the hashed-key table and hands over
					// a selection over its left batches.
					want = semiRows(t, l, r, pairs, residual)
					if got := mustDrain(t, NewSemiJoin(newColSource(l, 99), newColSource(r, 99), pairs, residual)); !want.EqualAsBag(got) {
						t.Fatalf("semi: %d rows, the reference %d", got.Len(), want.Len())
					}
				})
			}
		}
	}
}

// TestKeylessSemiJoin pins the no-equi-pair semi join semantics on the
// hashed table: every right row is a candidate for every left row.
func TestKeylessSemiJoin(t *testing.T) {
	l := testRel([]string{"a"}, [][]int64{{1}, {2}, {3}})
	r := testRel([]string{"b"}, [][]int64{{2}, {3}, {4}})
	res := Cmp(LT, Col("a"), Col("b"))
	got := mustDrain(t, NewSemiJoin(NewScan(l), NewScan(r), nil, res))
	if got.Len() != 3 { // every a has some b > a
		t.Fatalf("semi: got %v", got.Rows)
	}
}

// TestProjectColumnarZeroCopy checks the projection re-slices vectors
// and gives the row-at-a-time projection's rows and schema.
func TestProjectColumnarZeroCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := randColInput(rng, 257, "t")
	names := []string{"t.v", "t.k"}
	want := projectRows(t, rel, names)
	got := mustDrain(t, NewProject(newColSource(rel, 50), names))
	if !want.EqualAsBag(got) {
		t.Fatalf("projection diverged")
	}
	if !want.Sch.Equal(got.Sch) {
		t.Fatalf("schema diverged: %v vs %v", want.Sch, got.Sch)
	}
	src := newColSource(rel, 50)
	p := NewProject(src, names)
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cb, _, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &cb.Cols[0].Floats[0] != &src.cb.Cols[3].Floats[0] {
		t.Fatal("the projection copied a column it only had to re-slice")
	}
}

// TestFilterProjectColumnarChain checks that a filter-project chain
// gives the row-at-a-time filter and projection's rows, over either
// vector layout.
func TestFilterProjectColumnarChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := randColInput(rng, 700, "t")
	pred := And(Cmp(GE, Col("t.k"), ConstInt(1)), Cmp(LT, Col("t.v"), ConstFloat(0.8)))
	names := []string{"t.s", "t.k"}
	want := projectRows(t, filterRows(t, rel, pred), names)
	for layout, src := range map[string]Iterator{"scan": NewScan(rel), "typed": newColSource(rel, 128)} {
		if got := mustDrain(t, NewProject(NewFilter(src, pred), names)); !want.EqualAsBag(got) {
			t.Fatalf("%s: the chain diverged (%d vs %d rows)", layout, got.Len(), want.Len())
		}
	}
}

// TestColumnarPrefixUnderRowOperators pins that a scan→filter→project
// prefix answers the same under every operator above it — the root of a
// poss plan (Distinct), a union, the left side of a difference and the
// build side of a hash join — whether its
// source serves typed vectors or a relation scan's transposed windows,
// and that the Distinct, the difference and the union give the
// reference's bag.
func TestColumnarPrefixUnderRowOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rel := randColInput(rng, 700, "t")
	other := randColInput(rng, 300, "u")
	cond := Cmp(GE, Col("t.k"), ConstInt(1))
	names := []string{"t.k", "t.s"}
	prefix := func(src Iterator) Iterator { return NewProject(NewFilter(src, cond), names) }
	ref := projectRows(t, filterRows(t, rel, cond), names)
	otherRef := projectRows(t, other, []string{"u.k", "u.s"})
	otherKS := func() Iterator { return NewProject(NewScan(other), []string{"u.k", "u.s"}) }
	diff := NewRelation(ref.Sch)
	for _, row := range ref.Distinct().Rows {
		if !slices.ContainsFunc(otherRef.Rows, func(o Tuple) bool { return KeyString(o) == KeyString(row) }) {
			diff.Append(row)
		}
	}
	union := NewRelation(ref.Sch)
	union.Rows = append(append(union.Rows, ref.Rows...), otherRef.Rows...)
	refs := map[string]*Relation{"Distinct": ref.Distinct(), "DiffLeft": diff, "Union": union}
	parents := map[string]func(in Iterator) Iterator{
		"Distinct": func(in Iterator) Iterator { return NewDistinct(in) },
		"Union":    func(in Iterator) Iterator { return NewUnion(in, otherKS()) },
		"DiffLeft": func(in Iterator) Iterator { return NewDiff(in, otherKS()) },
		"HashJoinBuild": func(in Iterator) Iterator {
			return NewHashJoin(in, NewScan(other), []EquiPair{{L: "t.k", R: "u.k"}}, nil, nil)
		},
	}
	for name, parent := range parents {
		t.Run(name, func(t *testing.T) {
			want := mustDrain(t, parent(prefix(NewScan(rel))))
			if r := refs[name]; r != nil && !r.EqualAsBag(want) {
				t.Fatalf("%d rows, the reference %d", want.Len(), r.Len())
			}
			got := mustDrain(t, parent(prefix(newColSource(rel, 64))))
			if !want.EqualAsBag(got) {
				t.Fatalf("over typed vectors %d rows, over a scan %d", got.Len(), want.Len())
			}
		})
	}
}

// probeInput builds a relation (k int, k2 int, f float, s string,
// b bool) whose k is drawn from [lo, lo+keys), f is an integer-valued
// float from the same range, and k and s carry NULLs.
func probeInput(r *rand.Rand, n, lo, keys int, prefix string) *Relation {
	rel := NewRelation(NewSchema(
		Column{Name: prefix + ".k", Kind: KindInt},
		Column{Name: prefix + ".k2", Kind: KindInt},
		Column{Name: prefix + ".f", Kind: KindFloat},
		Column{Name: prefix + ".s", Kind: KindString},
		Column{Name: prefix + ".b", Kind: KindBool},
	))
	for i := 0; i < n; i++ {
		k := Int(int64(lo + r.Intn(keys)))
		if r.Intn(15) == 0 {
			k = Null()
		}
		s := Str(fmt.Sprintf("s%d", lo+r.Intn(keys)))
		if r.Intn(25) == 0 {
			s = Null()
		}
		rel.Append(Tuple{k, Int(int64(r.Intn(3))), Float(float64(lo + r.Intn(keys))), s, Bool(r.Intn(2) == 0)})
	}
	return rel
}

// TestHashJoinColumnarProbe: an inner hash join reads its probe side
// batch by batch and answers refJoin's rows, row for row and in order,
// for every key shape (one int, two columns, an int meeting the float it
// equals, strings, bools), vector layout (typed, generic, a selection
// vector left by a filter, a trace wrapper in between, a relation scan's
// transposed windows) and match rate (none, about a tenth, every
// non-NULL key), with a random Out and a residual. It gathers exactly
// its output's cells.
func TestHashJoinColumnarProbe(t *testing.T) {
	keyings := map[string][]EquiPair{
		"int":       {{L: "l.k", R: "r.k"}},
		"two":       {{L: "l.k", R: "r.k"}, {L: "l.k2", R: "r.k2"}},
		"int-float": {{L: "l.k", R: "r.f"}},
		"float-int": {{L: "l.f", R: "r.k"}},
		"string":    {{L: "l.s", R: "r.s"}},
		"bool-int":  {{L: "l.b", R: "r.b"}, {L: "l.k", R: "r.k"}},
	}
	rates := map[string]struct{ lo, keys int }{ // the build side's key range; the probe side's is [0, 40)
		"none":  {lo: 100, keys: 40},
		"tenth": {lo: 0, keys: 4},
		"all":   {lo: 0, keys: 40},
	}
	keepProbe := Cmp(GE, Col("r.k2"), ConstInt(1))
	probes := map[string]func(r *Relation) Iterator{
		"scan":    func(r *Relation) Iterator { return newColSource(r, 77) },
		"rows":    func(r *Relation) Iterator { return NewScan(r) },
		"generic": func(r *Relation) Iterator { s := newColSource(r, 77); s.generic = true; return s },
		"filter":  func(r *Relation) Iterator { return NewFilter(newColSource(r, 77), keepProbe) },
		"project": func(r *Relation) Iterator { return NewProject(newColSource(r, 77), r.Sch.Names()) },
		"traced": func(r *Relation) Iterator {
			return newTraceIter(newColSource(r, 77), obs.NewSpan("probe"))
		},
	}
	rng := rand.New(rand.NewSource(31))
	r := probeInput(rng, 1500, 0, 40, "r")
	kept := filterRows(t, r, keepProbe)
	for rate, rg := range rates {
		l := probeInput(rng, 400, rg.lo, rg.keys, "l")
		for kname, pairs := range keyings {
			for pname, probe := range probes {
				name := fmt.Sprintf("match=%s/key=%s/probe=%s", rate, kname, pname)
				var residual Expr
				if rng.Intn(2) == 0 {
					residual = Cmp(LE, Col("l.f"), Col("r.f"))
				}
				out := randOut(rng, l.Sch.Concat(r.Sch).Names())
				ref := r
				if pname == "filter" {
					ref = kept
				}
				want := refJoin(t, l, ref, pairs, residual, out)
				if (rate == "none") != (want.Len() == 0) {
					t.Fatalf("%s: the fixture joins to %d rows", name, want.Len())
				}
				join := NewHashJoin(NewScan(l), probe(r), pairs, residual, out)
				got := mustDrain(t, join)
				checkJoinRows(t, name, want, got, true)
				if join.cellsGathered != int64(got.Len()*got.Sch.Len()) {
					t.Fatalf("%s: %d cells gathered for %d rows of %d columns", name, join.cellsGathered, got.Len(), got.Sch.Len())
				}
			}
		}
	}
}
