package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mustBuild drains it (opened here) into a join table keyed by keyIdx.
func mustBuild(t testing.TB, it Iterator, keyIdx []int) *joinTable {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	tbl, err := buildJoinTable(it, keyIdx)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// probeKey looks the one-column key v up in tbl the way narrowProbe
// does and returns the chain's second column, in chain order.
func probeKey(tbl *joinTable, v Value) []int64 {
	cb := &ColBatch{Sch: NewSchema(Column{Name: "k"}), Cols: []ColVec{BuildColVec(1, func(int) Value { return v })}, N: 1}
	var hits probeHits
	narrowProbe(tbl, cb, []int{0}, &hits)
	var got []int64
	if len(hits.sel) == 1 {
		for m := hits.heads[0]; m >= 0; m = tbl.next[m] {
			cols, i := tbl.cols(m)
			got = append(got, cols[1].Value(i).AsInt())
		}
	}
	return got
}

// TestJoinTableChains checks the table built over several batches: chain
// order and lookups against a map-based oracle, a slot directory sized
// once for what was built — and that the table keeps the vectors it was
// handed, not copies of them.
func TestJoinTableChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	oracle := map[int64][]int64{}
	const n = 5000 // five windows of the scan below
	keys, ids := make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i], ids[i] = int64(rng.Intn(97)), int64(i)
		oracle[keys[i]] = append(oracle[keys[i]], ids[i])
	}
	src := &ColBatch{Sch: NewSchema(Column{Name: "k", Kind: KindInt}, Column{Name: "i", Kind: KindInt}),
		Cols: []ColVec{IntVec(keys, nil), IntVec(ids, nil)}, N: n}
	tbl := mustBuild(t, &colScanIter{src: src}, []int{0})
	if tbl.len() != n || len(tbl.batches) != (n+DefaultBatchSize-1)/DefaultBatchSize {
		t.Fatalf("%d rows in %d batches, want %d rows in windows of %d", tbl.len(), len(tbl.batches), n, DefaultBatchSize)
	}
	if len(tbl.slots) > 4*n || len(tbl.slots) < 2*n {
		t.Fatalf("%d slots for %d rows", len(tbl.slots), n)
	}
	for b := range tbl.batches {
		if &tbl.batches[b].Cols[0].Ints[0] != &keys[b*DefaultBatchSize] {
			t.Fatalf("batch %d's key vector is a copy of the scanned one", b)
		}
	}
	if tbl.intKeys == nil {
		t.Fatal("a table keyed by one int column keeps no int keys")
	}
	for k, want := range oracle {
		if got := probeKey(tbl, Int(k)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("key %d: chain %v, want %v", k, got, want)
		}
	}
	if got := probeKey(tbl, Int(1000)); got != nil {
		t.Fatalf("lookup(miss) = %v", got)
	}
}

// TestJoinTableNullKeys checks that rows with a NULL key cell are not
// stored (they never join), whatever layout the key arrives in.
func TestJoinTableNullKeys(t *testing.T) {
	rel := testRel([]string{"a", "b"}, [][]int64{{1, 2}, {3, 4}})
	rel.Rows = append(rel.Rows, Tuple{Int(1), Null()}, Tuple{Null(), Str("x")})
	for name, in := range map[string]Iterator{"typed": newColSource(rel, 2), "generic": NewScan(rel)} {
		if tbl := mustBuild(t, in, []int{0, 1}); tbl.len() != 2 {
			t.Fatalf("%s: %d rows stored, want the 2 without a NULL key", name, tbl.len())
		}
	}
}

// TestJoinTableNumericKeyNormalization checks int and integral float
// keys meet in one chain, mirroring Compare/KeyString semantics — in a
// generic key column, and across batches whose key columns are typed
// differently.
func TestJoinTableNumericKeyNormalization(t *testing.T) {
	rel := NewRelation(NewSchema(Column{Name: "k", Kind: KindInt}, Column{Name: "i", Kind: KindInt}))
	for i, v := range []Value{Int(5), Float(5.0), Int(5), Bool(true)} {
		rel.Append(Tuple{v, Int(int64(i))})
	}
	for name, in := range map[string]Iterator{"generic": NewScan(rel), "per batch": newColSource(rel, 1)} {
		tbl := mustBuild(t, in, []int{0})
		if got := probeKey(tbl, Float(5)); fmt.Sprint(got) != "[0 1 2]" {
			t.Fatalf("%s: the float 5 meets %v, want rows [0 1 2]", name, got)
		}
		if got := probeKey(tbl, Int(5)); fmt.Sprint(got) != "[0 1 2]" {
			t.Fatalf("%s: the int 5 meets %v, want rows [0 1 2]", name, got)
		}
		if got := probeKey(tbl, Int(1)); got != nil {
			t.Fatalf("%s: the int 1 meets %v, want no row (not the bool true)", name, got)
		}
	}
}

// TestNarrowProbeHashIsHashKeyAt: narrowProbe files a probe row under
// the hash its boxed key has (HashTuple) — so it finds the slot the
// build side used — whatever layout the key column arrives in: typed
// ints (hashed from the payload, hashIntKey), bools, floats, strings,
// and generic vectors, with NULL keys left out.
func TestNarrowProbeHashIsHashKeyAt(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 53), math.MaxInt64, math.MinInt64} {
		want := HashTuple(Tuple{Int(x)})
		if got := hashIntKey(x); got != want {
			t.Errorf("hashIntKey(%d) = %#x, HashTuple of the boxed key = %#x", x, got, want)
		}
		if f := float64(x); int64(f) == x && f < math.MaxInt64 {
			if asFloat := HashTuple(Tuple{Float(f)}); asFloat != want {
				t.Errorf("the float %v hashes to %#x, the int it equals to %#x", f, asFloat, want)
			}
		}
	}
	nulls := []bool{false, true, false, false, false, false}
	vecs := map[string]ColVec{
		"int":     IntVec([]int64{3, 0, -7, 3, 1 << 40, 0}, nulls),
		"bool":    BoolVec([]int64{1, 0, 0, 1, 1, 0}, nulls),
		"float":   FloatVec([]float64{3, 0, 2.5, -7, 3, math.Inf(1)}, nulls),
		"string":  StrVec([]string{"a", "", "b", "a", "", "c"}, nulls),
		"generic": GenericVec([]Value{Int(3), Null(), Str("a"), Float(3), Bool(true), Int(-7)}),
	}
	for name, vec := range vecs {
		sch := NewSchema(Column{Name: "pad"}, Column{Name: "k", Kind: vec.Kind})
		cb := &ColBatch{Sch: sch, Cols: []ColVec{IntVec(make([]int64, 6), nil), vec}, N: 6, Sel: []int32{5, 0, 1, 2, 3, 4}}
		// The build side is the batch's own rows, hashed from their boxed
		// keys: every non-NULL probe row must then find itself, in live
		// order.
		rows := cb.Materialize(nil)
		tbl := mustBuild(t, NewScan(&Relation{Sch: sch, Rows: rows}), []int{1})
		var want []int32
		for k, row := range rows {
			if !row[1].IsNull() {
				want = append(want, cb.Sel[k])
			}
		}
		var hits probeHits
		narrowProbe(tbl, cb, []int{1}, &hits)
		if fmt.Sprint(hits.sel) != fmt.Sprint(want) {
			t.Errorf("%s keys: rows %v found a partner, want %v", name, hits.sel, want)
		}
		for i, head := range hits.heads {
			cols, r := tbl.cols(head)
			if key := cols[1].Value(r); Compare(key, vec.Value(int(hits.sel[i]))) != 0 {
				t.Errorf("%s keys: row %d was given the chain of key %v", name, hits.sel[i], key)
			}
		}
	}
}

// TestKeyStringAdversarial is the regression test for the KeyString
// collision hazard: adjacent string columns must never produce
// ambiguous concatenations, including strings that embed the encoding's
// own separator bytes.
func TestKeyStringAdversarial(t *testing.T) {
	collide := [][2]Tuple{
		{{Str("ab"), Str("c")}, {Str("a"), Str("bc")}},
		{{Str("a\x00sb")}, {Str("a"), Str("b")}},
		{{Str("a\x00s1:b")}, {Str("a"), Str("b")}},
		{{Str("1:ab")}, {Str("ab")}},
		{{Str(""), Str("x")}, {Str("x"), Str("")}},
		{{Str("\x00i1")}, {Int(1)}},
		{{Str("12")}, {Int(12)}},
		{{Null(), Str("n")}, {Str("n"), Null()}},
	}
	for i, pair := range collide {
		a, b := KeyString(pair[0]), KeyString(pair[1])
		if a == b {
			t.Errorf("case %d: %v and %v collide on %q", i, pair[0], pair[1], a)
		}
	}
	equal := [][2]Tuple{
		{{Int(5)}, {Float(5.0)}},
		{{Str("ab"), Str("c")}, {Str("ab"), Str("c")}},
		{{Null()}, {Null()}},
	}
	for i, pair := range equal {
		a, b := KeyString(pair[0]), KeyString(pair[1])
		if a != b {
			t.Errorf("case %d: %v and %v must agree (%q vs %q)", i, pair[0], pair[1], a, b)
		}
	}
}

// TestKeyStringMatchesTupleEqual is the property: KeyString equality
// coincides with TupleEqual on random tuples.
func TestKeyStringMatchesTupleEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randVal := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Null()
		case 1:
			return Int(int64(rng.Intn(4)))
		case 2:
			return Float(float64(rng.Intn(4)))
		case 3:
			return Str(fmt.Sprintf("s%d\x00s%d", rng.Intn(3), rng.Intn(3)))
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(3)
		a := make(Tuple, n)
		b := make(Tuple, n)
		for i := 0; i < n; i++ {
			a[i] = randVal()
			b[i] = randVal()
		}
		if (KeyString(a) == KeyString(b)) != TupleEqual(a, b) {
			t.Fatalf("KeyString/TupleEqual disagree on %v vs %v", a, b)
		}
		if TupleEqual(a, b) && HashTuple(a) != HashTuple(b) {
			t.Fatalf("equal tuples hash differently: %v vs %v", a, b)
		}
	}
}

// repeatIter cycles over a relation's column batches forever;
// benchmarks use it to measure steady-state probe cost without
// rebuilding the join.
type repeatIter struct {
	rel  *Relation
	scan colScanIter
}

func (r *repeatIter) Open() error {
	src := &ColBatch{Sch: r.rel.Sch, N: r.rel.Len()}
	for c := range r.rel.Sch.Cols {
		src.Cols = append(src.Cols, BuildColVec(r.rel.Len(), func(i int) Value { return r.rel.Rows[i][c] }))
	}
	r.scan = colScanIter{src: src, sorted: -1}
	return r.scan.Open()
}
func (r *repeatIter) Close() error   { return nil }
func (r *repeatIter) Schema() Schema { return r.rel.Sch }

func (r *repeatIter) Next() (*ColBatch, bool, error) {
	if r.scan.pos >= r.scan.src.N {
		r.scan.pos = 0
	}
	return r.scan.Next()
}

// pullRows pulls batches from an endless join until n rows came out.
func pullRows(b *testing.B, it Iterator, n int) {
	for got := 0; got < n; {
		cb, ok, err := it.Next()
		if err != nil || !ok {
			b.Fatal("probe stream ended", err)
		}
		got += cb.Rows()
	}
}

// BenchmarkHashJoinProbe measures the steady-state probe path of the
// hash join: one op is one output row. The probe side cycles forever,
// so after Open the only allocations are the output batches' payloads,
// gathered at exact size.
func BenchmarkHashJoinProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	build := randJoinInput(rng, 20000, 5000, "l")
	probe := randJoinInput(rng, 8192, 5000, "r")
	j := NewHashJoin(NewScan(build), &repeatIter{rel: probe}, []EquiPair{{L: "l.k", R: "r.k"}}, nil, nil)
	if err := j.Open(); err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	pullRows(b, j, b.N)
}

// BenchmarkHashJoinProbeResidual is the same with a residual filter,
// exercising the scratch-buffer evaluation path.
func BenchmarkHashJoinProbeResidual(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	build := randJoinInput(rng, 20000, 5000, "l")
	probe := randJoinInput(rng, 8192, 5000, "r")
	res := Cmp(NE, Col("l.s"), Col("r.s"))
	j := NewHashJoin(NewScan(build), &repeatIter{rel: probe}, []EquiPair{{L: "l.k", R: "r.k"}}, res, nil)
	if err := j.Open(); err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	pullRows(b, j, b.N)
}

// BenchmarkSemiJoinProbe measures the semi join's probe path; one op
// is one emitted left row. Zero allocs: the semi join hands over a
// selection over its input batches.
func BenchmarkSemiJoinProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	right := randJoinInput(rng, 20000, 5000, "r")
	left := randJoinInput(rng, 8192, 5000, "l")
	j := NewSemiJoin(&repeatIter{rel: left}, NewScan(right), []EquiPair{{L: "l.k", R: "r.k"}}, nil)
	if err := j.Open(); err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	pullRows(b, j, b.N)
}

// BenchmarkHashJoinBuild measures the build phase (table construction)
// per build row, over a columnar input.
func BenchmarkHashJoinBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	build := randJoinInput(rng, 100000, 30000, "l")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBuild(b, newColSource(build, DefaultBatchSize), []int{0})
	}
}

// BenchmarkVectorizedFilter times the filter kernels over typed
// vectors, the survivors made into rows at the sink.
func BenchmarkVectorizedFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	rel := randColInput(rng, 100000, "t")
	pred := And(Cmp(GE, Col("t.k"), ConstInt(1)), Cmp(LT, Col("t.v"), ConstFloat(0.5)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Drain(NewFilter(newColSource(rel, DefaultBatchSize), pred)); err != nil {
			b.Fatal(err)
		}
	}
}
