package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestJoinTableChains checks insertion, chain order, growth across
// rehashes, and lookups against a map-based oracle — and that the table
// hands back the tuples it was given, not copies of them.
func TestJoinTableChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keyIdx := []int{0}
	tbl := newJoinTable(keyIdx)
	oracle := map[int64][]int64{}
	const n = 5000 // forces several rehashes from the initial 64 slots
	inserted := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		k := int64(rng.Intn(97))
		row := Tuple{Int(k), Int(int64(i))}
		inserted = append(inserted, row)
		h, ok := tbl.hashRow(row)
		if !ok {
			t.Fatal("non-null key must hash")
		}
		tbl.insert(row, h)
		oracle[k] = append(oracle[k], int64(i))
	}
	if tbl.len() != n {
		t.Fatalf("len=%d want %d", tbl.len(), n)
	}
	for i, row := range inserted {
		if &tbl.row(int32(i))[0] != &row[0] {
			t.Fatalf("stored row %d is a copy of the inserted tuple", i)
		}
	}
	for k, want := range oracle {
		probe := Tuple{Int(k)}
		h, _ := hashKeyAt(probe, []int{0})
		var got []int64
		for m := tbl.lookup(h, probe, []int{0}); m >= 0; m = tbl.nextMatch(m) {
			got = append(got, tbl.row(m)[1].AsInt())
		}
		if len(got) != len(want) {
			t.Fatalf("key %d: %d matches, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("key %d: chain order diverged at %d: %v vs %v", k, i, got, want)
			}
		}
	}
	// Missing keys.
	probe := Tuple{Int(1000)}
	h, _ := hashKeyAt(probe, []int{0})
	if m := tbl.lookup(h, probe, []int{0}); m != -1 {
		t.Fatalf("lookup(miss) = %d", m)
	}
}

// TestJoinTableNullKeys checks hashRow refuses NULL keys (they never
// join).
func TestJoinTableNullKeys(t *testing.T) {
	tbl := newJoinTable([]int{0, 1})
	if _, ok := tbl.hashRow(Tuple{Int(1), Null()}); ok {
		t.Fatal("NULL key must not hash")
	}
	if _, ok := tbl.hashRow(Tuple{Int(1), Int(2)}); !ok {
		t.Fatal("non-NULL key must hash")
	}
}

// TestJoinTableNumericKeyNormalization checks int and integral float
// keys meet in one chain, mirroring Compare/KeyString semantics.
func TestJoinTableNumericKeyNormalization(t *testing.T) {
	tbl := newJoinTable([]int{0})
	for _, v := range []Value{Int(5), Float(5.0), Int(5)} {
		row := Tuple{v}
		h, _ := tbl.hashRow(row)
		tbl.insert(row, h)
	}
	probe := Tuple{Float(5)}
	h, _ := hashKeyAt(probe, []int{0})
	count := 0
	for m := tbl.lookup(h, probe, []int{0}); m >= 0; m = tbl.nextMatch(m) {
		count++
	}
	if count != 3 {
		t.Fatalf("int/float key chain has %d rows, want 3", count)
	}
}

// TestNarrowProbeHashIsHashKeyAt: narrowProbe files a probe row under
// the hash hashKeyAt gives its boxed key — so it finds the partition
// and the slot the build side used — whatever layout the key column
// arrives in: typed ints (hashed from the payload, hashIntKey), bools,
// floats, strings, and generic vectors, with NULL keys left out.
func TestNarrowProbeHashIsHashKeyAt(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 53), math.MaxInt64, math.MinInt64} {
		want, _ := hashKeyAt(Tuple{Int(x)}, []int{0})
		if got := hashIntKey(x); got != want {
			t.Errorf("hashIntKey(%d) = %#x, hashKeyAt of the boxed key = %#x", x, got, want)
		}
		if f := float64(x); int64(f) == x && f < math.MaxInt64 {
			if asFloat, _ := hashKeyAt(Tuple{Float(f)}, []int{0}); asFloat != want {
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
	const np = 3
	for name, vec := range vecs {
		cb := &ColBatch{Sch: NewSchema(Column{Name: "pad"}, Column{Name: "k", Kind: vec.Kind}),
			Cols: []ColVec{IntVec(make([]int64, 6), nil), vec}, N: 6, Sel: []int32{5, 0, 1, 2, 3, 4}}
		// The build side is the batch's own rows, partitioned as the
		// parallel join partitions them: every non-NULL probe row must then
		// find itself, in the partition its boxed key hashes to.
		rows := cb.Materialize(nil)
		parts := make([]*joinTable, np)
		for p := range parts {
			parts[p] = newJoinTable([]int{1})
		}
		want := make([][]int32, np)
		for k, row := range rows {
			if h, keyed := hashKeyAt(row, []int{1}); keyed {
				parts[h%np].insert(row, h)
				want[h%np] = append(want[h%np], cb.Sel[k])
			}
		}
		hits := make([]probeHits, np)
		narrowProbe(parts, cb, []int{1}, hits)
		for p := range hits {
			if fmt.Sprint(hits[p].sel) != fmt.Sprint(want[p]) {
				t.Errorf("%s keys: partition %d holds rows %v, hashKeyAt sends it %v", name, p, hits[p].sel, want[p])
			}
			for i, head := range hits[p].heads {
				if key := parts[p].row(head)[1]; Compare(key, vec.Value(int(hits[p].sel[i]))) != 0 {
					t.Errorf("%s keys: row %d was given the chain of key %v", name, hits[p].sel[i], key)
				}
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

// repeatIter cycles over a relation forever; benchmarks use it to
// measure steady-state probe cost without rebuilding the join.
type repeatIter struct {
	rel *Relation
	pos int
}

func (r *repeatIter) Open() error    { r.pos = 0; return nil }
func (r *repeatIter) Close() error   { return nil }
func (r *repeatIter) Schema() Schema { return r.rel.Sch }

func (r *repeatIter) NextBatch() ([]Tuple, bool, error) {
	if r.pos >= len(r.rel.Rows) {
		r.pos = 0
	}
	return Window(r.rel.Rows, &r.pos)
}

// pullRows pulls batches from an endless join until n rows came out.
func pullRows(b *testing.B, it Iterator, n int) {
	for got := 0; got < n; {
		batch, ok, err := it.NextBatch()
		if err != nil || !ok {
			b.Fatal("probe stream ended", err)
		}
		got += len(batch)
	}
}

// BenchmarkHashJoinProbe measures the steady-state probe path of the
// rewritten hash join: one op is one output row. The probe side cycles
// forever, so after Open the only allocations are the amortized output
// arena chunks — the benchmark must report 0 allocs/op.
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
// is one emitted left row. Zero allocs: the semi join passes input
// rows through.
func BenchmarkSemiJoinProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	right := randJoinInput(rng, 20000, 5000, "r")
	left := randJoinInput(rng, 8192, 5000, "l")
	j := NewSemiJoin(&repeatIter{rel: left}, NewScan(right), []EquiPair{{L: "l.k", R: "r.k"}}, nil, false)
	if err := j.Open(); err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	pullRows(b, j, b.N)
}

// BenchmarkHashJoinBuild measures the build phase (table construction)
// per build row.
func BenchmarkHashJoinBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	build := randJoinInput(rng, 100000, 30000, "l")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := newJoinTable([]int{0})
		for _, row := range build.Rows {
			if h, ok := tbl.hashRow(row); ok {
				tbl.insert(row, h)
			}
		}
	}
}

// BenchmarkVectorizedFilter contrasts the columnar filter kernels with
// the row path over the same data and predicate.
func BenchmarkVectorizedFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	rel := randColInput(rng, 100000, "t")
	pred := And(Cmp(GE, Col("t.k"), ConstInt(1)), Cmp(LT, Col("t.v"), ConstFloat(0.5)))
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Drain(NewFilter(newColSource(rel, DefaultBatchSize), pred)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Drain(NewFilter(NewScan(rel), pred)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
