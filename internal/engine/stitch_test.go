package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// stitchParts draws the k vertical partitions of one relation over n
// tuple ids, each in tid order: partition p has width 0–3 descriptor
// pairs p<p>.d<j>v, p<p>.d<j>r — variables from a small set, so one
// repeats within a descriptor and meets its namesake across partitions,
// and now and then a NULL or a float for an int, which ψ cannot compare
// as ints — the tuple id p<p>.tid and an attribute p<p>.a that is NULL now and
// then. A tuple id has no row in a partition, or one to three
// alternatives; with straddle every tuple id has three in every
// partition, so 1 024-row batches cut through them.
func stitchParts(rng *rand.Rand, k, n int, straddle bool) []*Relation {
	parts := make([]*Relation, k)
	for p := range parts {
		width := rng.Intn(4)
		var cols []Column
		for j := 0; j < width; j++ {
			cols = append(cols, Column{Name: fmt.Sprintf("p%d.d%dv", p, j), Kind: KindInt}, Column{Name: fmt.Sprintf("p%d.d%dr", p, j), Kind: KindInt})
		}
		cols = append(cols, Column{Name: fmt.Sprintf("p%d.tid", p), Kind: KindInt}, Column{Name: fmt.Sprintf("p%d.a", p), Kind: KindInt})
		rel := NewRelation(NewSchema(cols...))
		cell := func(n int) Value {
			switch x := rng.Intn(n); rng.Intn(40) {
			case 0:
				return Null()
			case 1:
				return Float(float64(x))
			default:
				return Int(int64(x))
			}
		}
		for tid := 0; tid < n; tid++ {
			alts := rng.Intn(4)
			if straddle {
				alts = 3
			}
			for ; alts > 0; alts-- {
				row := make(Tuple, 0, len(cols))
				for j := 0; j < width; j++ {
					row = append(row, cell(3), cell(2))
				}
				a := Int(int64(rng.Intn(20)))
				if rng.Intn(8) == 0 {
					a = Null()
				}
				rel.Append(append(row, Int(int64(tid)), a))
			}
		}
		parts[p] = rel
	}
	return parts
}

// stitchPsi is ψ between partitions p and q of stitchParts: every
// descriptor pair of one against every pair of the other.
func stitchPsi(parts []*Relation, p, q int) []Expr {
	var psi []Expr
	for i := 0; i < (parts[p].Sch.Len()-2)/2; i++ {
		for j := 0; j < (parts[q].Sch.Len()-2)/2; j++ {
			psi = append(psi, Or(
				Cmp(NE, Col(fmt.Sprintf("p%d.d%dv", p, i)), Col(fmt.Sprintf("p%d.d%dv", q, j))),
				Cmp(EQ, Col(fmt.Sprintf("p%d.d%dr", p, i)), Col(fmt.Sprintf("p%d.d%dr", q, j)))))
		}
	}
	return psi
}

// FuzzStitch holds the stitch to the hash-join chain it replaces: on
// 1–5 tid-ordered partitions (stitchParts), each under a random filter
// and served in batches of a random size, the stitch driven by a random
// input and handed a random tid range gives, within that range, the bag
// of rows a left-deep fold of NewHashJoin on α (the tuple ids) gives,
// each step filtered by its ψ — judged row by row by a filter, so the
// reference shares no condition code with the stitch — and its tuple
// ids ascend. With straddle every
// tuple id has three alternatives, served whole in 1 024-row batches
// that cut through them.
func FuzzStitch(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(300), false) // two partitions
	f.Add(int64(2), uint8(2), uint16(700), true)  // alternatives straddle 1 024-row batches
	f.Fuzz(func(t *testing.T, seed int64, k uint8, n uint16, straddle bool) {
		rng := rand.New(rand.NewSource(seed))
		parts := stitchParts(rng, 1+int(k%5), int(n%1500), straddle)
		chunk := 1 + rng.Intn(1500)
		if straddle {
			chunk = DefaultBatchSize
		}
		filters := make([]Expr, len(parts))
		for p := range filters {
			if straddle {
				break
			}
			switch rng.Intn(3) {
			case 0:
				filters[p] = Cmp(LT, Col(fmt.Sprintf("p%d.a", p)), ConstInt(int64(rng.Intn(25))))
			case 1:
				filters[p] = Cmp(NE, Col(fmt.Sprintf("p%d.tid", p)), ConstInt(int64(rng.Intn(int(n)+1))))
			}
		}
		input := func(p int) Iterator {
			var in Iterator = newColSource(parts[p], chunk)
			if filters[p] != nil {
				in = NewFilter(in, filters[p])
			}
			return in
		}
		var ins []Iterator
		var tids []string
		var psi []Expr
		ref := input(0)
		for p := range parts {
			ins, tids = append(ins, input(p)), append(tids, fmt.Sprintf("p%d.tid", p))
			var step []Expr
			for q := 0; q < p; q++ {
				step = append(step, stitchPsi(parts, q, p)...)
			}
			psi = append(psi, step...)
			if p > 0 {
				ref = NewHashJoin(ref, input(p), []EquiPair{{L: "p0.tid", R: tids[p]}}, nil, nil)
			}
			if len(step) > 0 {
				ref = NewFilter(ref, And(step...))
			}
		}
		var cond Expr
		if len(psi) > 0 {
			cond = And(psi...)
		}
		stitch := NewStitch(ins, tids, cond, rng.Intn(len(parts)), nil)
		lo, hi := int64(-1), int64(n)
		if !straddle && rng.Intn(2) == 0 {
			lo = rng.Int63n(int64(n) + 1)
			hi = lo + rng.Int63n(int64(n)/4+1)
		}
		if err := stitch.Open(); err != nil {
			t.Fatal(err)
		}
		tidCol := stitch.Schema().IndexOf("p0.tid")
		stitch.NarrowKeyRange(tidCol, lo, hi)
		got := NewRelation(stitch.Schema())
		for {
			cb, ok, err := stitch.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got.Rows = cb.Materialize(got.Rows)
		}
		if err := stitch.Close(); err != nil {
			t.Fatal(err)
		}
		want := NewRelation(got.Sch)
		for _, row := range mustDrain(t, ref).Rows {
			if x := row[tidCol].I; x >= lo && x <= hi {
				want.Append(row)
			}
		}
		inRange := NewRelation(got.Sch)
		for i, row := range got.Rows {
			if i > 0 && row[tidCol].I < got.Rows[i-1][tidCol].I {
				t.Fatalf("tuple id %d after %d", row[tidCol].I, got.Rows[i-1][tidCol].I)
			}
			if x := row[tidCol].I; x >= lo && x <= hi {
				inRange.Append(row)
			}
		}
		if !inRange.EqualAsBag(want) {
			t.Fatalf("%d partitions, driver %d, tids [%d, %d]: the stitch gives %d rows, the hash chain %d", len(parts), stitch.Driver, lo, hi, inRange.Len(), want.Len())
		}
	})
}
