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
// as ints — the tuple id p<p>.tid and an attribute p<p>.a that is NULL
// now and then, and in an even partition a float equal to an int. A
// tuple id has no row in a partition, or one to three
// alternatives; with straddle every tuple id has three in every
// partition, so 1 024-row batches cut through them. Now and then a
// partition is empty.
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
				switch rng.Intn(24) {
				case 0, 1, 2:
					a = Null()
				case 3:
					if f := float64(rng.Intn(20)); p%2 == 0 {
						a = Float(f)
					}
				}
				rel.Append(append(row, Int(int64(tid)), a))
			}
		}
		if !straddle && rng.Intn(10) == 0 {
			rel.Rows = nil
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
// 1–5 tid-ordered partitions (stitchParts: tid holes, repeated tids,
// empty partitions), each under a random filter, the stitch driven by a
// random input — served in batches of a random size or as an in-memory
// scan — gives the bag of rows a left-deep fold of NewHashJoin on α (the
// tuple ids) gives, each step filtered by its ψ — judged row by row by a
// filter, so the reference shares no condition code with the stitch —
// and its tuple ids ascend. Every other input is an in-memory scan,
// which the stitch asks for rows by tuple id; one served in batches
// instead is an error at Open. Half of the time the stitch is handed a
// random tid range, and is held to the chain within it; otherwise it is
// the probe side of a hash join whose build keys — with duplicates and
// NULLs, on the driver's column or another input's, a value column or a
// tuple id, or none at all — it receives as a list, and the join must
// give what it gives over the same stitch with narrowing hidden, over
// it with scans that have no value-order runs, and over the chain. The
// scans have runs (ValueOrder) and the stitch drawn estimates (Est), or
// none, so a keyed input drives it in some cases. With straddle every tuple id has three alternatives,
// served whole in 1 024-row batches that cut through them, so a lookup
// is asked again for the last tuple id it was asked.
func FuzzStitch(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(300), false)  // two partitions
	f.Add(int64(2), uint8(2), uint16(700), true)   // alternatives straddle 1 024-row batches
	f.Add(int64(5), uint8(3), uint16(400), false)  // a key list
	f.Add(int64(-68), uint8(1), uint16(664), true) // a list on a column with floats equal to keys
	f.Add(int64(9), uint8(4), uint16(1400), false) // five partitions
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
				continue
			}
			switch rng.Intn(3) {
			case 0:
				filters[p] = Cmp(LT, Col(fmt.Sprintf("p%d.a", p)), ConstInt(int64(rng.Intn(25))))
			case 1:
				filters[p] = Cmp(NE, Col(fmt.Sprintf("p%d.tid", p)), ConstInt(int64(rng.Intn(int(n)+1))))
			}
		}
		driver := rng.Intn(len(parts))
		inBatches := rng.Intn(2) == 0 // the driver is served in batches of chunk rows
		input := func(p int, batches, runs bool) Iterator {
			sc := memScan(parts[p], fmt.Sprintf("p%d.tid", p))
			if runs {
				sc.runs = func(c int) []int32 { return ValueOrder(&sc.src.Cols[c]) }
			}
			var in Iterator = sc
			if batches {
				in = newColSource(parts[p], chunk)
			}
			if filters[p] != nil {
				in = NewFilter(in, filters[p])
			}
			return in
		}
		var tids []string
		var psi []Expr
		chain := func() Iterator { // its inputs narrow nothing, so it shares no narrowing with the stitch
			ref := Iterator(struct{ Iterator }{input(0, true, false)})
			for p := 1; p < len(parts); p++ {
				ref = NewHashJoin(ref, struct{ Iterator }{input(p, true, false)}, []EquiPair{{L: "p0.tid", R: tids[p]}}, nil, nil)
				if step := psi[p]; step != nil {
					ref = NewFilter(ref, step)
				}
			}
			return ref
		}
		var all []Expr
		for p := range parts {
			tids = append(tids, fmt.Sprintf("p%d.tid", p))
			var step []Expr
			for q := 0; q < p; q++ {
				step = append(step, stitchPsi(parts, q, p)...)
			}
			all = append(all, step...)
			psi = append(psi, nil)
			if len(step) > 0 {
				psi[p] = And(step...)
			}
		}
		var cond Expr
		if len(all) > 0 {
			cond = And(all...)
		}
		var est []float64 // the plan's estimates, or none
		if rng.Intn(4) > 0 {
			est = make([]float64, len(parts))
			for p := range est {
				est[p] = float64(rng.Intn(2*int(n) + 2))
			}
		}
		stitch := func(runs bool) *StitchIter {
			ins := make([]Iterator, len(parts))
			for p := range ins {
				ins[p] = input(p, p == driver && inBatches, runs)
			}
			st := NewStitch(ins, tids, cond, driver, nil)
			st.Est = est
			return st
		}
		if other := (driver + 1) % len(parts); other != driver {
			ins := make([]Iterator, len(parts))
			for p := range ins {
				ins[p] = input(p, p == other, false)
			}
			if err := NewStitch(ins, tids, cond, driver, nil).Open(); err == nil {
				t.Fatalf("input %d, served in batches, is not the driver %d: Open gives no error", other, driver)
			}
		}
		if rng.Intn(2) == 0 {
			checkStitchUnderList(t, rng, parts, driver, stitch, chain)
			return
		}
		lo, hi := int64(-1), int64(n)
		if !straddle && rng.Intn(2) == 0 {
			lo = rng.Int63n(int64(n) + 1)
			hi = lo + rng.Int63n(int64(n)/4+1)
		}
		st := stitch(true)
		if err := st.Open(); err != nil {
			t.Fatal(err)
		}
		tidCol := st.Schema().IndexOf("p0.tid")
		st.NarrowKeys(tidCol, Keys{Lo: lo, Hi: hi})
		got := NewRelation(st.Schema())
		for {
			cb, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got.Rows = cb.Materialize(got.Rows)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		want := NewRelation(got.Sch)
		for _, row := range mustDrain(t, chain()).Rows {
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
			t.Fatalf("%d partitions, driver %d in batches %v, tids [%d, %d]: the stitch gives %d rows, the hash chain %d", len(parts), driver, inBatches, lo, hi, inRange.Len(), want.Len())
		}
	})
}

// checkStitchUnderList joins build keys drawn on one column of the
// stitch — an attribute of a random partition, the driver's or
// another's, or the tuple id — with duplicates and NULLs and now and
// then none at all, to the stitch, which receives them as a list, and to
// the same stitch with narrowing hidden, to it without value-order runs
// and to the hash chain; all must give one bag of rows.
func checkStitchUnderList(t *testing.T, rng *rand.Rand, parts []*Relation, driver int, stitch func(runs bool) *StitchIter, chain func() Iterator) {
	t.Helper()
	q := rng.Intn(len(parts))
	key := fmt.Sprintf("p%d.a", q)
	if rng.Intn(4) == 0 {
		key = fmt.Sprintf("p%d.tid", q)
	}
	build := NewRelation(NewSchema(Column{Name: "b.k", Kind: KindInt}))
	for i := rng.Intn(12); i > 0; i-- {
		k := Int(int64(rng.Intn(25)))
		if rng.Intn(8) == 0 {
			k = Null()
		}
		build.Append(Tuple{k})
		if rng.Intn(3) == 0 {
			build.Append(Tuple{k}) // a duplicate
		}
	}
	on := []EquiPair{{L: "b.k", R: key}}
	join := func(probe Iterator) (*Relation, *HashJoinIter) {
		j := NewHashJoin(newColSource(build, 1+rng.Intn(4)), probe, on, nil, nil)
		return mustDrain(t, j), j
	}
	got, j := join(stitch(true))
	hidden, _ := join(struct{ Iterator }{stitch(true)})
	plain, _ := join(stitch(false))
	want, _ := join(chain())
	if !got.EqualAsBag(hidden) || !got.EqualAsBag(plain) || !got.EqualAsBag(want) {
		t.Fatalf("%d partitions, driver %d, %d build keys on %s (%d handed): the join over the stitch gives %d rows, with narrowing hidden %d, without runs %d, over the hash chain %d",
			len(parts), driver, build.Len(), key, j.keysHanded, got.Len(), hidden.Len(), plain.Len(), want.Len())
	}
}

// memScan is the in-memory scan of rel, sorted on its column tid.
func memScan(rel *Relation, tid string) *colScanIter {
	src, c := relBatch(rel), rel.Sch.IndexOf(tid)
	if rel.Len() == 0 {
		src.Cols[c] = IntVec(nil, nil) // as an image lays out no rows
	}
	return &colScanIter{src: src, sorted: c}
}
