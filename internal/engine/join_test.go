package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"urel/internal/obs"
)

// refJoin is the row-at-a-time inner join the hash joins are held to: for
// each row of r in order, each row of l in order whose key cells equal
// its own (no NULL), kept when the residual holds — evaluated by
// interpret, connective by connective — and narrowed to out. Its order
// is the serial hash join's: probe order, then chain order.
func refJoin(t *testing.T, l, r *Relation, pairs []EquiPair, residual Expr, out []string) *Relation {
	t.Helper()
	full := l.Sch.Concat(r.Sch)
	sch, pick, err := bindOut(full, out)
	if err != nil {
		t.Fatal(err)
	}
	li, ri := make([]int, len(pairs)), make([]int, len(pairs))
	for k, p := range pairs {
		li[k], ri[k] = l.Sch.MustIndexOf(p.L), r.Sch.MustIndexOf(p.R)
	}
	key := func(row Tuple, idx []int) (string, bool) {
		cells := make(Tuple, len(idx))
		for k, c := range idx {
			if cells[k] = row[c]; cells[k].IsNull() {
				return "", false
			}
		}
		return KeyString(cells), true
	}
	chains := map[string][]Tuple{}
	for _, row := range l.Rows {
		if k, ok := key(row, li); ok {
			chains[k] = append(chains[k], row)
		}
	}
	res := NewRelation(sch)
	for _, rr := range r.Rows {
		k, ok := key(rr, ri)
		if !ok {
			continue
		}
		for _, lr := range chains[k] {
			row := lr.Concat(rr)
			if residual != nil && !interpret(t, residual, full, row) {
				continue
			}
			if pick != nil {
				narrowed := make(Tuple, len(pick))
				for i, c := range pick {
					narrowed[i] = row[c]
				}
				row = narrowed
			}
			res.Append(row)
		}
	}
	return res
}

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

// mergeParts draws the k vertical partitions of one relation over n tuple
// ids, in the U-layout a merge joins: partition p has a descriptor pair
// p<p>.v, p<p>.r (variable 0 is the trivial one), the tuple id p<p>.tid
// and one attribute p<p>.a. A tid has one or two alternatives in a
// partition, or none; a few cells are what union pads and mixed columns
// leave — a NULL tid, a NULL or float or string attribute, a descriptor
// cell that is not an int.
func mergeParts(rng *rand.Rand, k, n int) []*Relation {
	parts := make([]*Relation, k)
	for p := range parts {
		pre := fmt.Sprintf("p%d.", p)
		rel := NewRelation(NewSchema(Column{Name: pre + "v", Kind: KindInt}, Column{Name: pre + "r", Kind: KindInt},
			Column{Name: pre + "tid", Kind: KindInt}, Column{Name: pre + "a", Kind: KindInt}))
		for tid := 0; tid < n; tid++ {
			if rng.Intn(12) == 0 {
				continue
			}
			for alts := 1 + rng.Intn(2); alts > 0; alts-- {
				v, r, id, a := Int(int64(rng.Intn(4))), Int(int64(rng.Intn(2))), Int(int64(tid)), Int(int64(rng.Intn(50)))
				switch rng.Intn(60) {
				case 0:
					id = Null()
				case 1:
					a = Null()
				case 2:
					a = Float(float64(rng.Intn(50)))
				case 3:
					a = Str("x")
				case 4:
					v = Float(v.AsFloat())
				case 5:
					r = Null()
				}
				rel.Append(Tuple{v, r, id, a})
			}
		}
		parts[p] = rel
	}
	return parts
}

// psiOf is the ψ condition of a merge of partitions p and q.
func psiOf(p, q int) Expr {
	pv, pr := fmt.Sprintf("p%d.v", p), fmt.Sprintf("p%d.r", p)
	qv, qr := fmt.Sprintf("p%d.v", q), fmt.Sprintf("p%d.r", q)
	return Or(Cmp(NE, Col(pv), Col(qv)), Cmp(EQ, Col(pr), Col(qr)))
}

// joinInput serves rel in one of the shapes a join input arrives in,
// named by shape: rows (a relation scan's transposed windows), typed or generic column
// batches of any size — 4 096-row store segments among them — and
// batches behind a projection, which reuses its headers.
func joinInput(rng *rand.Rand, rel *Relation) (Iterator, string) {
	switch rng.Intn(5) {
	case 0:
		return NewScan(rel), "rows"
	case 1:
		return newColSource(rel, 1+rng.Intn(700)), "typed"
	case 2:
		return newColSource(rel, 4096), "segments"
	case 3:
		s := newColSource(rel, 1+rng.Intn(300))
		s.generic = true
		return s, "generic"
	}
	return NewProject(newColSource(rel, 1+rng.Intn(500)), rel.Sch.Names()), "projected"
}

// TestHashJoinColumnarEquivalence is the property suite of the one hash
// join: random 1–7-way tid merges with ψ, then a join with another
// relation on one or two key columns — an int key meeting the float it
// equals, NULL keys, mixed-kind and generic columns, an empty side, a
// build side larger than the probe side — every input in a random shape,
// outputs straddling DefaultBatchSize. The hash join gives refJoin's
// rows in refJoin's order at every step; the keyless hash join, the
// whole condition its residual, the same bag.
func TestHashJoinColumnarEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	straddled := 0
	for iter := 0; iter < 36; iter++ {
		k := 1 + rng.Intn(7)
		n := 200 + rng.Intn(1300)
		if iter%6 == 0 {
			n = 0 // an empty side
		}
		parts := mergeParts(rng, k, n)
		var shapes []string
		join, shape := joinInput(rng, parts[0])
		shapes = append(shapes, shape)
		want := parts[0]
		for p := 1; p < k; p++ {
			pairs := []EquiPair{{L: "p0.tid", R: fmt.Sprintf("p%d.tid", p)}}
			var psi []Expr
			for q := 0; q < p; q++ {
				psi = append(psi, psiOf(q, p))
			}
			residual := And(psi...)
			want = refJoin(t, want, parts[p], pairs, residual, nil)
			rs, shape := joinInput(rng, parts[p])
			shapes = append(shapes, shape)
			join = NewHashJoin(join, rs, pairs, residual, nil)
			if p < k-1 {
				continue
			}
			name := fmt.Sprintf("iter %d: %d-way merge of %d tids over %v", iter, k, n, shapes)
			checkJoinRows(t, name, want, mustDrain(t, join), true)
			join, _ = joinInput(rng, want)
		}
		// Across relations: the merge meets another relation on its
		// attribute, and maybe its tid, from either side.
		other := NewRelation(NewSchema(Column{Name: "o.x", Kind: KindFloat}, Column{Name: "o.y", Kind: KindInt}, Column{Name: "o.s", Kind: KindString}))
		for i, m := 0, rng.Intn(n/2+2); i < m; i++ {
			x := Float(float64(rng.Intn(50)))
			switch rng.Intn(20) {
			case 0:
				x = Null()
			case 1:
				x = Int(int64(rng.Intn(50)))
			case 2:
				x = Float(0.5)
			}
			other.Append(Tuple{x, Int(int64(rng.Intn(n + 1))), Str(fmt.Sprint(rng.Intn(5)))})
		}
		pairs := []EquiPair{{L: "p0.a", R: "o.x"}}
		if rng.Intn(2) == 0 {
			pairs = append(pairs, EquiPair{L: "p0.tid", R: "o.y"})
		}
		var residual Expr
		switch rng.Intn(3) {
		case 0:
			residual = Cmp(NE, Col("o.s"), ConstStr("0"))
		case 1:
			residual = Or(Cmp(LT, Col("p0.a"), Col("o.y")), Cmp(EQ, Col("o.s"), ConstStr("1")))
		}
		l, r := want, other
		if rng.Intn(2) == 0 {
			l, r = other, want
			for i := range pairs {
				pairs[i] = EquiPair{L: pairs[i].R, R: pairs[i].L}
			}
		}
		out := randOut(rng, l.Sch.Concat(r.Sch).Names())
		cross := refJoin(t, l, r, pairs, residual, out)
		ls, lshape := joinInput(rng, l)
		rs, rshape := joinInput(rng, r)
		name := fmt.Sprintf("iter %d: %d ⋈ %d rows on %v, %s ⋈ %s", iter, l.Len(), r.Len(), pairs, lshape, rshape)
		checkJoinRows(t, name, cross, mustDrain(t, NewHashJoin(ls, rs, pairs, residual, out)), true)
		if l.Len()*r.Len() < 400000 { // the keyless join tries every pair
			cond := []Expr{residual}
			for _, p := range pairs {
				cond = append(cond, EqCols(p.L, p.R))
			}
			checkJoinRows(t, name+" (no key)", cross, mustDrain(t, NewHashJoin(NewScan(l), NewScan(r), nil, And(cond...), out)), false)
		}
		if want.Len() > DefaultBatchSize {
			straddled++
		}
	}
	if straddled < 5 {
		t.Fatalf("only %d merges output more than one batch", straddled)
	}
}

// TestKeylessHashJoin holds the hash join without an equi pair — every
// build row on one chain, the whole condition its residual — to refJoin
// without pairs, in its order: over an empty build side, which leaves
// the probe side unread; under conditions reading NULL cells; and with
// chains yielding more than DefaultBatchSize rows to one probe row, so
// the cursor resumes mid-chain.
func TestKeylessHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	big := randJoinInput(rng, 1500, 30, "l")
	none := randJoinInput(rng, 0, 30, "l")
	r := randJoinInput(rng, 40, 30, "r")
	conds := []Expr{
		nil, // the cross product
		Cmp(LT, Col("l.k"), Col("r.k")),
		Or(Cmp(GT, Col("l.k"), Col("r.k")), Cmp(EQ, Col("l.s"), Col("r.s"))),
	}
	for _, cond := range conds {
		for _, l := range []*Relation{none, big} {
			name := fmt.Sprintf("%v over %d build rows", cond, l.Len())
			out := randOut(rng, l.Sch.Concat(r.Sch).Names())
			want := refJoin(t, l, r, nil, cond, out)
			if l == big && want.Len() <= DefaultBatchSize {
				t.Fatalf("%s: the fixture joins to %d rows, not several batches", name, want.Len())
			}
			src := newColSource(r, 16)
			checkJoinRows(t, name, want, mustDrain(t, NewHashJoin(NewScan(l), src, nil, cond, out)), true)
			if l == none && src.pulls != 0 {
				t.Fatalf("%s: the probe side was pulled %d times", name, src.pulls)
			}
		}
	}
}

// checkJoinRows fails unless got holds want's rows under want's schema:
// in want's order when ordered, as a bag otherwise.
func checkJoinRows(t *testing.T, name string, want, got *Relation, ordered bool) {
	t.Helper()
	if !want.Sch.Equal(got.Sch) {
		t.Fatalf("%s: schema %v, want %v", name, got.Sch, want.Sch)
	}
	if !ordered {
		if !want.EqualAsBag(got) {
			t.Fatalf("%s: %d rows, not the %d of the reference", name, got.Len(), want.Len())
		}
		return
	}
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := range want.Rows {
		if !TupleEqual(want.Rows[i], got.Rows[i]) || KeyString(want.Rows[i]) != KeyString(got.Rows[i]) {
			t.Fatalf("%s: row %d is %v, want %v", name, i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestJoinBuildKeepsPayloadsNotHeaders: a build side fed by a filter or a
// projection — which hand out the same batch header, selection vector
// and column slice on every call — answers exactly as the same rows
// handed over once and copied: the table copies the borrowed headers
// and keeps only the payloads, which the Iterator.Next contract makes
// immutable.
func TestJoinBuildKeepsPayloadsNotHeaders(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := randColInput(rng, 3000, "l")
	r := randColInput(rng, 800, "r")
	pairs := []EquiPair{{L: "l.k", R: "r.k"}}
	keep := Cmp(GE, Col("l.k2"), ConstInt(2))
	cols := []string{"l.k", "l.s", "l.v"}
	copied := mustDrain(t, NewProject(NewFilter(NewScan(l), keep), cols))
	for name, build := range map[string]Iterator{
		"filter":  NewFilter(newColSource(l, 97), keep),
		"project": NewProject(NewFilter(newColSource(l, 97), keep), cols),
	} {
		want := mustDrain(t, NewHashJoin(NewScan(copied), NewScan(r), pairs, Cmp(NE, Col("l.s"), Col("r.s")), []string{"r.v", "l.s", "l.k"}))
		got := mustDrain(t, NewHashJoin(build, newColSource(r, 64), pairs, Cmp(NE, Col("l.s"), Col("r.s")), []string{"r.v", "l.s", "l.k"}))
		if want.Len() < DefaultBatchSize {
			t.Fatalf("%s: the fixture joins to %d rows", name, want.Len())
		}
		checkJoinRows(t, name, want, got, true)
	}
}

// TestSemiJoinOverEmptyBuild: a semi join whose right side holds no
// joinable row keeps no left row — probing the empty table, whatever
// layout the keys arrive in.
func TestSemiJoinOverEmptyBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := randColInput(rng, 300, "l")
	nulls := NewRelation(NewSchema(Column{Name: "r.k", Kind: KindInt}))
	nulls.Append(Tuple{Null()})
	for name, r := range map[string]*Relation{"no rows": NewRelation(nulls.Sch), "NULL keys": nulls} {
		for _, left := range []Iterator{NewScan(l), newColSource(l, 64)} {
			pairs := []EquiPair{{L: "l.k", R: "r.k"}}
			if got := mustDrain(t, NewSemiJoin(left, newColSource(r, 8), pairs, nil)); got.Len() != 0 {
				t.Fatalf("%s: the semi join keeps %d rows", name, got.Len())
			}
		}
	}
}

// narrowRecorder is a columnar probe input that records the keys
// handed to it.
type narrowRecorder struct {
	*colSource
	keys []string // "col:lo…hi list"
}

func (r *narrowRecorder) NarrowKeys(col int, keys Keys) {
	r.keys = append(r.keys, fmt.Sprintf("%d:%d…%d %v", col, keys.Lo, keys.Hi, keys.List))
}

// TestJoinsNarrowTheirProbeInput: once the build side is drained, the
// hash join and the semi join hand their probe input the sorted distinct
// build keys — NULL keys left out, build keys 7, NULL, 3, 12, 7 handed
// as {3, 7, 12} — when the key is one int column, through a trace
// wrapper too; a join on a float key or on two columns hands none.
func TestJoinsNarrowTheirProbeInput(t *testing.T) {
	build := NewRelation(NewSchema(Column{Name: "b.k", Kind: KindInt}, Column{Name: "b.f", Kind: KindFloat}))
	for _, k := range []Value{Int(7), Null(), Int(3), Int(12), Int(7)} {
		build.Append(Tuple{k, Float(1)})
	}
	probe := randColInput(rand.New(rand.NewSource(3)), 200, "p")
	on := []EquiPair{{L: "b.k", R: "p.k"}}
	const list = "0:3…12 [3 7 12]"
	for _, c := range []struct {
		name string
		join func(probe Iterator) Iterator
		want []string
	}{
		{"hash", func(p Iterator) Iterator { return NewHashJoin(newColSource(build, 2), p, on, nil, nil) }, []string{list}},
		{"traced", func(p Iterator) Iterator {
			return NewHashJoin(newColSource(build, 2), newTraceIter(p, obs.NewSpan("probe")), on, nil, nil)
		}, []string{list}},
		{"semi", func(p Iterator) Iterator {
			return NewSemiJoin(p, newColSource(build, 2), []EquiPair{{L: "p.k", R: "b.k"}}, nil)
		}, []string{list}},
		{"float key", func(p Iterator) Iterator {
			return NewHashJoin(newColSource(build, 2), p, []EquiPair{{L: "b.f", R: "p.v"}}, nil, nil)
		}, nil},
		{"two keys", func(p Iterator) Iterator {
			return NewHashJoin(newColSource(build, 2), p, []EquiPair{{L: "b.k", R: "p.k"}, {L: "b.k", R: "p.k2"}}, nil, nil)
		}, nil},
	} {
		rec := &narrowRecorder{colSource: newColSource(probe, 64)}
		mustDrain(t, c.join(rec))
		if fmt.Sprint(rec.keys) != fmt.Sprint(c.want) {
			t.Errorf("%s: keys %v, want %v", c.name, rec.keys, c.want)
		}
	}

	// Nested: an outer hash join, whose build keys are 3, 7 and 12, hands
	// that list on p.k to the operator it probes, which forwards it to the
	// recorder and never to side, the build side of a semi join (o.k, keys
	// 1 and 4); a hash join forwards none.
	other := NewRelation(NewSchema(Column{Name: "o.k", Kind: KindInt}))
	other.Append(Tuple{Int(1)})
	other.Append(Tuple{Int(4)})
	for _, c := range []struct {
		name  string
		under func(rec, side Iterator) Iterator
		want  []string
	}{
		{"filter", func(rec, side Iterator) Iterator { return NewFilter(rec, Cmp(GE, Col("p.k2"), ConstInt(0))) },
			[]string{list}},
		{"projection", func(rec, side Iterator) Iterator { return NewProject(rec, []string{"p.v", "p.k"}) },
			[]string{list}},
		{"rename", func(rec, side Iterator) Iterator { return NewRename(rec, []string{"p.k", "r.k2", "r.s", "r.v"}) },
			[]string{list}},
		{"semi join", func(rec, side Iterator) Iterator {
			return NewSemiJoin(rec, side, []EquiPair{{L: "p.k2", R: "o.k"}}, nil)
		}, []string{"1:1…4 [1 4]", list}},
		{"traced filter", func(rec, side Iterator) Iterator {
			return newTraceIter(NewFilter(rec, Cmp(GE, Col("p.k2"), ConstInt(0))), obs.NewSpan("filter"))
		}, []string{list}},
		{"hash join", func(rec, side Iterator) Iterator {
			return NewHashJoin(side, rec, []EquiPair{{L: "o.k", R: "p.k2"}}, nil, []string{"p.v", "p.k"})
		}, []string{"1:1…4 [1 4]"}},
	} {
		rec := &narrowRecorder{colSource: newColSource(probe, 64)}
		side := &narrowRecorder{colSource: newColSource(other, 8)}
		mustDrain(t, NewHashJoin(newColSource(build, 2), c.under(rec, side), on, nil, nil))
		if fmt.Sprint(rec.keys) != fmt.Sprint(c.want) || side.keys != nil {
			t.Errorf("through a %s: keys %v and on the other side %v, want %v and none", c.name, rec.keys, side.keys, c.want)
		}
	}
}
