package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// randJoinInput builds a relation (k int, s string, v float) with n rows
// whose keys are drawn from [0, keys) with occasional NULLs, so joins
// exercise skewed multi-match groups and NULL-key elimination.
func randJoinInput(r *rand.Rand, n, keys int, prefix string) *Relation {
	rel := NewRelation(NewSchema(
		Column{Name: prefix + ".k", Kind: KindInt},
		Column{Name: prefix + ".s", Kind: KindString},
		Column{Name: prefix + ".v", Kind: KindFloat},
	))
	for i := 0; i < n; i++ {
		k := Int(int64(r.Intn(keys)))
		if r.Intn(20) == 0 {
			k = Null()
		}
		rel.Append(Tuple{
			k,
			Str(fmt.Sprintf("s%d", r.Intn(8))),
			Float(r.Float64()),
		})
	}
	return rel
}

// TestParallelHashJoinEquivalence asserts the parallel partitioned hash
// join produces exactly the serial HashJoinIter's result multiset across
// randomized inputs, worker counts, and residual predicates.
func TestParallelHashJoinEquivalence(t *testing.T) {
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	residuals := map[string]Expr{
		"none":     nil,
		"ne":       Cmp(NE, Col("l.s"), Col("r.s")),
		"lt-float": Cmp(LT, Col("l.v"), Col("r.v")),
	}
	for seed := int64(0); seed < 2; seed++ {
		for _, sz := range []struct{ ln, rn, keys int }{
			{0, 50, 5},
			{50, 0, 5},
			{200, 300, 7},    // heavy skew: many matches per key
			{1000, 800, 400}, // mostly unique keys
			{1500, 1200, 60},
		} {
			for rname, residual := range residuals {
				for _, workers := range []int{1, 3, 8} {
					name := fmt.Sprintf("seed=%d/l=%d/r=%d/keys=%d/res=%s/w=%d",
						seed, sz.ln, sz.rn, sz.keys, rname, workers)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						l := randJoinInput(rng, sz.ln, sz.keys, "l")
						r := randJoinInput(rng, sz.rn, sz.keys, "r")

						want, err := Drain(NewHashJoin(NewScan(l), NewScan(r), pairs, residual, nil))
						if err != nil {
							t.Fatal(err)
						}
						got, err := Drain(NewParallelHashJoin(NewScan(l), NewScan(r), pairs, residual, nil, workers))
						if err != nil {
							t.Fatal(err)
						}
						if !want.EqualAsBag(got) {
							t.Fatalf("parallel join multiset differs from serial: serial=%d rows, parallel=%d rows",
								want.Len(), got.Len())
						}
					})
				}
			}
		}
	}
}

// TestParallelFilterEquivalence asserts the parallel filter matches the
// serial filter, including row order (chunks are recombined in input
// order).
func TestParallelFilterEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, n := range []int{0, 1, 100, 5000} {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("seed=%d/n=%d/w=%d", seed, n, workers), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					rel := randJoinInput(rng, n, 10, "t")
					pred := Cmp(LT, Col("t.k"), ConstInt(5))

					want, err := Drain(NewFilter(NewScan(rel), pred))
					if err != nil {
						t.Fatal(err)
					}
					got, err := Drain(NewParallelFilter(NewScan(rel), pred, workers))
					if err != nil {
						t.Fatal(err)
					}
					if want.Len() != got.Len() {
						t.Fatalf("row count differs: want %d, got %d", want.Len(), got.Len())
					}
					for i := range want.Rows {
						if !TupleEqual(want.Rows[i], got.Rows[i]) {
							t.Fatalf("row %d differs: want %v, got %v", i, want.Rows[i], got.Rows[i])
						}
					}
				})
			}
		}
	}
}

// TestBuildChoosesParallelOperators asserts the Parallelism knob plus
// cardinality gate pick the parallel physical operators exactly when
// the inputs are large enough, and that full plans return identical
// results either way.
func TestBuildChoosesParallelOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := randJoinInput(rng, 20000, 4000, "l")
	bigR := randJoinInput(rng, 20000, 4000, "r")
	small := randJoinInput(rng, 50, 10, "l")
	smallR := randJoinInput(rng, 50, 10, "r")
	cat := NewCatalog()
	join := func(l, r *Relation) Plan {
		return Join(Values(l, "l"), Values(r, "r"), EqCols("l.k", "r.k"))
	}

	// Large inputs + Parallelism>1 → parallel hash join.
	it, err := Build(join(big, bigR), cat, ExecConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*ParallelHashJoinIter); !ok {
		t.Fatalf("large join with Parallelism=4: got %T, want *ParallelHashJoinIter", it)
	}
	// Small inputs stay serial despite the knob.
	it, err = Build(join(small, smallR), cat, ExecConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*HashJoinIter); !ok {
		t.Fatalf("small join with Parallelism=4: got %T, want *HashJoinIter", it)
	}
	// Default config stays serial regardless of size.
	it, err = Build(join(big, bigR), cat, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*HashJoinIter); !ok {
		t.Fatalf("large join with default config: got %T, want *HashJoinIter", it)
	}
	// Threshold override flips the small case.
	it, err = Build(join(small, smallR), cat, ExecConfig{Parallelism: 4, ParallelThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*ParallelHashJoinIter); !ok {
		t.Fatalf("small join with low threshold: got %T, want *ParallelHashJoinIter", it)
	}

	// The gate reads the optimizer's estimate, selectivities included:
	// two point selections leave a handful of rows of each 20 000-row
	// input (a fixed factor per filter would leave 5 000, past this
	// threshold), so the join above them stays serial.
	point := func(v *ValuesPlan, col string) Plan { return Filter(v, Cmp(EQ, Col(col), ConstInt(7))) }
	sel := Join(point(Values(big, "l"), "l.k"), point(Values(bigR, "r"), "r.k"), EqCols("l.k", "r.k"))
	if rows := EstimateStats(sel.L, cat).Rows; rows > 100 {
		t.Fatalf("point selection on 4000 keys estimated at %g rows", rows)
	}
	it, err = Build(sel, cat, ExecConfig{Parallelism: 4, ParallelThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*HashJoinIter); !ok {
		t.Fatalf("join of two point selections with threshold 1000: got %T, want *HashJoinIter", it)
	}

	// Filters gate the same way.
	fit, err := Build(Filter(Values(big, "l"), Cmp(LT, Col("l.k"), ConstInt(50))), cat, ExecConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fit.(*ParallelFilterIter); !ok {
		t.Fatalf("large filter with Parallelism=4: got %T, want *ParallelFilterIter", fit)
	}

	// End-to-end: identical result multisets through Run.
	p := Filter(join(big, bigR), Cmp(NE, Col("l.s"), Col("r.s")))
	serial, err := Run(p, cat, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(p, cat, ExecConfig{Parallelism: -1, ParallelThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.EqualAsBag(parallel) {
		t.Fatalf("Run serial vs parallel differs: %d vs %d rows", serial.Len(), parallel.Len())
	}
}
