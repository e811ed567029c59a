package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// poisonSource serves rel's rows as column batches whose header, column
// headers and selection vector it reuses, and at the start of every
// call, end of stream included, it overwrites the ones it handed out
// last: every column header with an all-NULL column and the selection
// with row 0 — the harshest producer the Next contract allows. A
// consumer that kept the borrowed headers instead of copying them reads
// the poison. Only the payloads, fresh for every batch, may be kept.
type poisonSource struct {
	rel  *Relation
	pos  int
	cols []ColVec
	sel  []int32
	cb   ColBatch
}

func (p *poisonSource) Open() error    { p.pos = 0; return nil }
func (p *poisonSource) Close() error   { return nil }
func (p *poisonSource) Schema() Schema { return p.rel.Sch }

func (p *poisonSource) Next() (*ColBatch, bool, error) {
	for c := range p.cols {
		p.cols[c] = ColVec{Kind: KindNull, Nulls: make([]bool, p.cb.N)}
	}
	clear(p.sel)
	if p.pos >= len(p.rel.Rows) {
		return nil, false, nil
	}
	rows := p.rel.Rows[p.pos:min(p.pos+100, len(p.rel.Rows))]
	p.pos += len(rows)
	p.cols, p.sel = p.cols[:0], p.sel[:0]
	for c := range p.rel.Sch.Cols {
		p.cols = append(p.cols, BuildColVec(len(rows), func(i int) Value { return rows[i][c] }))
	}
	for i := range rows {
		p.sel = append(p.sel, int32(i))
	}
	p.cb = ColBatch{Sch: p.rel.Sch, Cols: p.cols, N: len(rows), Sel: p.sel}
	return &p.cb, true, nil
}

// drainChecked is Drain that also holds the producer to its side of
// the contract: ok=true comes with at least one row.
func drainChecked(t *testing.T, it Iterator) *Relation {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	out := NewRelation(it.Schema())
	for {
		cb, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		if cb.Rows() == 0 {
			t.Fatal("Next returned ok=true with an empty batch")
		}
		out.Rows = cb.Materialize(out.Rows)
	}
}

// drainColumnsChecked drains an operator keeping each batch's payloads
// behind copies of its borrowed headers, and makes the rows only at the
// end: what the Next contract allows a consumer — a join's build table —
// to do.
func drainColumnsChecked(t *testing.T, it Iterator) *Relation {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var kept []ColBatch
	for {
		cb, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kept = append(kept, ColBatch{Sch: cb.Sch, Cols: append([]ColVec(nil), cb.Cols...), N: cb.N, Sel: append([]int32(nil), cb.Sel...)})
	}
	out := NewRelation(it.Schema())
	for i := range kept {
		out.Rows = kept[i].Materialize(out.Rows)
	}
	return out
}

// TestBatchContract holds every operator to the Next contract from the
// consumer's side. Batches are borrowed, so (a) an operator over
// NewScan leaves the base relations exactly as they were, (b) over a
// source that recycles and poisons its headers on every call the result
// is still the plain one — an operator may keep payloads, never the
// headers — and (c) the payloads an operator hands over, kept past its
// next call, still hold its rows. Inputs span several batches, so every
// cursor is resumed.
func TestBatchContract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lrel := randJoinInput(rng, 2600, 40, "l")
	rrel := randJoinInput(rng, 1500, 40, "r")
	lrel.Rows = append(lrel.Rows[:300:300], lrel.Rows...) // duplicates for the set operators
	rrel.Rows = append(rrel.Rows, lrel.Rows[:1700]...)    // overlap for the difference
	// In key order, as the stitch takes its inputs.
	for _, rel := range []*Relation{lrel, rrel} {
		slices.SortStableFunc(rel.Rows, func(a, b Tuple) int { return Compare(a[0], b[0]) })
	}
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	ne := Cmp(NE, Col("l.s"), Col("r.s"))
	cases := map[string]func(l, r Iterator) Iterator{
		"NewScan":     func(l, r Iterator) Iterator { return l },
		"NewFilter":   func(l, r Iterator) Iterator { return NewFilter(l, Cmp(LT, Col("l.k"), ConstInt(30))) },
		"NewProject":  func(l, r Iterator) Iterator { return NewProject(l, []string{"l.v", "l.k"}) },
		"NewRename":   func(l, r Iterator) Iterator { return NewRename(l, []string{"a", "b", "c"}) },
		"NewDistinct": func(l, r Iterator) Iterator { return NewDistinct(l) },
		"NewHashJoin": func(l, r Iterator) Iterator { return NewHashJoin(l, r, pairs, ne, []string{"r.v", "l.k"}) },
		"NewHashJoinKeyless": func(l, r Iterator) Iterator {
			return NewHashJoin(NewFilter(l, Cmp(LT, Col("l.k"), ConstInt(2))), r, nil, Cmp(LT, Col("l.v"), Col("r.v")), nil)
		},
		"NewStitch": func(l, r Iterator) Iterator { // its driver r; l, which it asks for rows, must answer lookups
			nonNull := func(in Iterator, k string) Iterator { return NewFilter(in, Cmp(GE, Col(k), ConstInt(0))) }
			return NewStitch([]Iterator{nonNull(memScan(lrel, "l.k"), "l.k"), nonNull(r, "r.k")}, []string{"l.k", "r.k"}, ne, 1, []string{"r.v", "l.k"})
		},
		"NewSemiJoin": func(l, r Iterator) Iterator { return NewSemiJoin(l, r, pairs, ne) },
		"NewUnion":    func(l, r Iterator) Iterator { return NewUnion(l, r) },
		"NewDiff":     func(l, r Iterator) Iterator { return NewDiff(l, r) },
		"NewExtend": func(l, r Iterator) Iterator {
			return NewExtend(l, []NamedExpr{{Name: "k2", E: Col("l.k"), Kind: KindInt}, {Name: "one", E: ConstInt(1), Kind: KindInt}})
		},
	}
	for _, ctor := range operatorConstructors(t) {
		if cases[ctor] == nil {
			t.Errorf("operator constructor %s has no case in the batch-contract table", ctor)
		}
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			lbefore := append([]Tuple(nil), lrel.Rows...)
			rbefore := append([]Tuple(nil), rrel.Rows...)
			want := drainChecked(t, mk(NewScan(lrel), NewScan(rrel)))
			if want.Len() <= DefaultBatchSize {
				t.Fatalf("fixture yields %d rows; the case must span several output batches", want.Len())
			}
			sameHeaders(t, "left", lbefore, lrel.Rows)
			sameHeaders(t, "right", rbefore, rrel.Rows)
			got := drainChecked(t, mk(&poisonSource{rel: lrel}, &poisonSource{rel: rrel}))
			if !want.EqualAsBag(got) {
				t.Fatalf("over a header-recycling source the result changed: %d rows, want %d", got.Len(), want.Len())
			}
			if cols := drainColumnsChecked(t, mk(&poisonSource{rel: lrel}, &poisonSource{rel: rrel})); !want.EqualAsBag(cols) {
				t.Fatalf("column batches kept past the next call hold %d rows, want %d", cols.Len(), want.Len())
			}
		})
	}
}

// TestEmptyBuildSideLeavesProbeUnread: a hash join whose build side
// holds no joinable row — no rows, or NULL keys only — ends its stream
// without pulling its probe side once: nothing R could deliver would
// join, and over stored data every pull is a segment read and decoded.
func TestEmptyBuildSideLeavesProbeUnread(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rrel := randColInput(rng, 900, "r")
	none := randColInput(rng, 0, "l")
	nulls := NewRelation(none.Sch)
	for i := 0; i < 40; i++ {
		nulls.Append(Tuple{Null(), Int(int64(i)), Str("s"), Float(1)})
	}
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	for name, l := range map[string]*Relation{"no rows": none, "NULL keys": nulls} {
		src := newColSource(rrel, 64)
		if got := mustDrain(t, NewHashJoin(NewScan(l), src, pairs, nil, nil)); got.Len() != 0 {
			t.Fatalf("%s: %d rows from an empty build side", name, got.Len())
		}
		if src.pulls != 0 {
			t.Fatalf("%s: the probe side was pulled %d times", name, src.pulls)
		}
	}
}

// randOut draws an output projection over names: nil (every column) one
// time in four, otherwise a random permutation cut to a random length,
// so subsets, reorderings and the full row all come up.
func randOut(rng *rand.Rand, names []string) []string {
	if rng.Intn(4) == 0 {
		return nil
	}
	out := append([]string(nil), names...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:1+rng.Intn(len(out))]
}

// projected is the reference for a join that emits through out: the
// plain projection over the join's full-width output.
func projected(join Iterator, out []string) Iterator {
	if out == nil {
		return join
	}
	return NewProject(join, out)
}

// TestJoinOutIsProjection: the hash join, keyed or keyless, emitting
// through a random Out, produces the rows, in the order and under the schema
// that a Project over the same join emitting its full row does — with and without a residual, which must
// keep seeing the columns Out drops.
func TestJoinOutIsProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lrel := randJoinInput(rng, 700, 25, "l")
	rrel := randJoinInput(rng, 500, 25, "r")
	small := &Relation{Sch: lrel.Sch, Rows: lrel.Rows[:60]}
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	full := lrel.Sch.Concat(rrel.Sch).Names()
	joins := map[string]func(res Expr, out []string) Iterator{
		"hash": func(res Expr, out []string) Iterator {
			return NewHashJoin(NewScan(lrel), NewScan(rrel), pairs, res, out)
		},
		"no key": func(res Expr, out []string) Iterator {
			return NewHashJoin(NewScan(small), NewScan(rrel), nil, And(EqCols("l.k", "r.k"), res), out)
		},
	}
	for name, mk := range joins {
		for iter := 0; iter < 12; iter++ {
			out := randOut(rng, full)
			var res Expr
			if iter%2 == 1 {
				res = Cmp(NE, Col("l.s"), Col("r.s"))
			}
			want := mustDrain(t, projected(mk(res, nil), out))
			got := mustDrain(t, mk(res, out))
			if want.Len() == 0 {
				t.Fatalf("%s: the fixture joins to nothing", name)
			}
			if !want.Sch.Equal(got.Sch) {
				t.Fatalf("%s out=%v: schema %v, a projection gives %v", name, out, got.Sch, want.Sch)
			}
			if want.Len() != got.Len() {
				t.Fatalf("%s out=%v: %d rows, a projection gives %d", name, out, got.Len(), want.Len())
			}
			for i := range want.Rows {
				if !TupleEqual(want.Rows[i], got.Rows[i]) {
					t.Fatalf("%s out=%v: row %d is %v, a projection gives %v", name, out, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// sameHeaders fails unless after holds exactly the tuples before held,
// in the same order (same backing cells, not merely equal values).
func sameHeaders(t *testing.T, side string, before, after []Tuple) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("%s base relation went from %d rows to %d", side, len(before), len(after))
	}
	for i := range before {
		if &before[i][0] != &after[i][0] {
			t.Fatalf("%s base relation: row %d was overwritten through a borrowed batch", side, i)
		}
	}
}

// packageFuncs parses the package's non-test files and returns their
// function declarations, for the tests that hold the source itself to a
// rule.
func packageFuncs(t *testing.T) []*ast.FuncDecl {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []*ast.FuncDecl
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fn)
			}
		}
	}
	return out
}

// operatorConstructors lists the package's New* functions that return
// an *…Iter.
func operatorConstructors(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, fn := range packageFuncs(t) {
		if fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "New") ||
			fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
			continue
		}
		if star, ok := fn.Type.Results.List[0].Type.(*ast.StarExpr); ok {
			if id, ok := star.X.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Iter") {
				out = append(out, fn.Name.Name)
			}
		}
	}
	return out
}
