package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"urel/internal/engine"
	"urel/internal/ws"
)

// maxDiffWorlds bounds the differential suite's oracle: catalogs with
// more worlds are skipped, so the brute-force side stays trivial.
const maxDiffWorlds = 16

// randProbs makes roughly half the variables non-uniform (strictly
// positive weights), so the differential suite exercises the
// probability-weighted paths, not just counting.
func randProbs(rng *rand.Rand, db *UDB) {
	for _, x := range db.W.Vars() {
		if rng.Intn(2) == 0 {
			continue
		}
		n := db.W.DomainSize(x)
		weights := make([]float64, n)
		sum := 0.0
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(9))
			sum += weights[i]
		}
		for i := range weights {
			weights[i] /= sum
		}
		if err := db.W.SetProbs(x, weights); err != nil {
			panic(err)
		}
	}
}

// TestPropertyConfidenceFastDifferential is the evaluator's pin: on
// randomized ≤16-world catalogs, brute-force world enumeration
// (ConfidenceGroundTruth) is the oracle, and
//
//   - the dispatcher's answer ≡ oracle, with nothing sampled,
//   - certain ≤ exact ≤ possible for the one-pass bounds, always.
//
// Zero tolerance beyond float rounding (1e-9).
func TestPropertyConfidenceFastDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked, linear, expanded := 0, 0, 0
	for iter := 0; iter < 250; iter++ {
		db := randUDB(rng).Reduce()
		randProbs(rng, db)
		if _, err := db.W.CountWorlds(maxDiffWorlds); err != nil {
			continue
		}
		q := randQuery(rng, db, 1)
		oracle, err := db.ConfidenceGroundTruth(q, maxDiffWorlds)
		if err != nil {
			t.Fatalf("iter %d: oracle: %v (query %s)", iter, err, q)
		}
		res, err := db.Eval(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("iter %d: eval: %v (query %s)", iter, err, q)
		}

		confs, stats, err := res.ConfidencesDispatch(ConfOptions{})
		if err != nil {
			t.Fatalf("iter %d: dispatch: %v (query %s)", iter, err, q)
		}
		if stats.MC != 0 {
			t.Fatalf("iter %d: %d tuples sampled on a %d-world catalog", iter, stats.MC, maxDiffWorlds)
		}
		linear += stats.ReadOnce
		requireConfsMatch(t, iter, "dispatch", q, confs, oracle)
		for _, g := range res.groupDescriptors() {
			if _, steps, _ := unionProb(res.W, g.ds, noDeadline); steps > 0 {
				expanded++
			}
		}

		// Bounds sandwich: certain ≤ exact ≤ possible.
		for _, tb := range res.ConfidenceBounds() {
			w := oracle[engine.KeyString(tb.Vals)]
			if tb.Certain > w+1e-9 || w > tb.Possible+1e-9 {
				t.Fatalf("iter %d: bounds [%v, %v] do not sandwich exact %v for %v (query %s)",
					iter, tb.Certain, tb.Possible, w, tb.Vals, q)
			}
		}
		checked++
	}
	if checked < 80 {
		t.Fatalf("too few instances checked: %d", checked)
	}
	if linear == 0 || expanded == 0 {
		t.Fatalf("%d tuples counted read-once and %d needed an expansion step; the suite must exercise both", linear, expanded)
	}
}

// requireConfsMatch asserts a confidence vector equals the oracle, key
// for key and with no extra or missing tuples.
func requireConfsMatch(t *testing.T, iter int, path string, q Query, confs []TupleConfidence, oracle map[string]float64) {
	t.Helper()
	seen := map[string]bool{}
	for _, tc := range confs {
		k := engine.KeyString(tc.Vals)
		seen[k] = true
		if w := oracle[k]; math.Abs(tc.P-w) > 1e-9 {
			t.Fatalf("iter %d: %s confidence %v for %v, oracle says %v (query %s)",
				iter, path, tc.P, tc.Vals, w, q)
		}
	}
	for k, w := range oracle {
		if !seen[k] && w > 1e-9 {
			t.Fatalf("iter %d: %s missed tuple %s with oracle confidence %v (query %s)",
				iter, path, k, w, q)
		}
	}
}

// confResult builds a single-group UResult over one int column, one
// representation row per descriptor.
func confResult(w *ws.WorldTable, ds ...ws.Descriptor) *UResult {
	r := &UResult{W: w, Attrs: []string{"a"}}
	for _, d := range ds {
		r.Rows = append(r.Rows, UResultRow{D: d, Vals: engine.Tuple{engine.Int(7)}})
	}
	return r
}

// bruteUnionProb is the lineage-level reference: the total probability
// of the worlds of w in which some descriptor of ds holds.
func bruteUnionProb(w *ws.WorldTable, ds []ws.Descriptor) float64 {
	total := 0.0
	w.AllWorlds(func(f ws.Valuation) bool {
		for _, d := range ds {
			if d.ExtendedBy(f) {
				total += w.WorldProb(f)
				break
			}
		}
		return true
	})
	return total
}

// boolVars adds n boolean variables to w.
func boolVars(w *ws.WorldTable, n int) []ws.Var {
	vars := make([]ws.Var, n)
	for i := range vars {
		vars[i] = w.NewBoolVar("")
	}
	return vars
}

// randomDNF draws m conjunctions of width distinct variables each.
func randomDNF(seed int64, vars []ws.Var, m, width int) []ws.Descriptor {
	rng := rand.New(rand.NewSource(seed))
	ds := make([]ws.Descriptor, m)
	for i := range ds {
		var as []ws.Assignment
		for _, j := range rng.Perm(len(vars))[:width] {
			as = append(as, ws.A(vars[j], 1))
		}
		ds[i] = ws.MustDescriptor(as...)
	}
	return ds
}

// pairs is the lineage ∨ (x_a ∧ x_b) over the given index pairs: a
// chain, a grid, any graph of co-occurring variables.
func pairs(vars []ws.Var, edges [][2]int) []ws.Descriptor {
	ds := make([]ws.Descriptor, len(edges))
	for i, e := range edges {
		ds[i] = ws.MustDescriptor(ws.A(vars[e[0]], 1), ws.A(vars[e[1]], 1))
	}
	return ds
}

func chainEdges(n int) [][2]int {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edges
}

func gridEdges(rows, cols int) [][2]int {
	var edges [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{r*cols + c, r*cols + c + 1})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{r*cols + c, r*cols + c + cols})
			}
		}
	}
	return edges
}

// hardLineage is lineage that is hard in fact, not by its look: a seeded
// random 3-DNF of 160 conjunctions over 80 fresh boolean variables,
// which exhausts the step budget (it is still unfinished after 2²²
// steps).
func hardLineage(w *ws.WorldTable) []ws.Descriptor {
	return randomDNF(1, boolVars(w, 80), 160, 3)
}

// TestReadOnceDetectorAccepts pins the shapes the former read-once
// detector certified: independent conjunctions, same-variable
// alternatives, pairwise-exclusive mixed descriptors — each is exact
// (checked against world enumeration) and counted read-once, i.e. took
// no more expansion steps than it has descriptors.
func TestReadOnceDetectorAccepts(t *testing.T) {
	db := NewUDB()
	x := db.W.NewBoolVar("x")
	y := db.W.MustNewVar("y", 1, 2, 3)
	z := db.W.NewBoolVar("z")
	if err := db.W.SetProbs(y, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		ds   []ws.Descriptor
	}{
		{"empty descriptor wins", []ws.Descriptor{nil, ws.MustDescriptor(ws.A(x, 1))}},
		{"single conjunction", []ws.Descriptor{ws.MustDescriptor(ws.A(x, 1), ws.A(y, 2))}},
		{"independent singles", []ws.Descriptor{
			ws.MustDescriptor(ws.A(x, 1)), ws.MustDescriptor(ws.A(y, 2)), ws.MustDescriptor(ws.A(z, 1))}},
		{"same-variable alternatives", []ws.Descriptor{
			ws.MustDescriptor(ws.A(y, 1)), ws.MustDescriptor(ws.A(y, 3))}},
		{"pairwise-exclusive conjunctions", []ws.Descriptor{
			ws.MustDescriptor(ws.A(x, 1), ws.A(y, 1)),
			ws.MustDescriptor(ws.A(x, 2), ws.A(z, 1)),
			ws.MustDescriptor(ws.A(x, 1), ws.A(y, 2))}},
		{"duplicate rows collapse", []ws.Descriptor{
			ws.MustDescriptor(ws.A(x, 1)), ws.MustDescriptor(ws.A(x, 1))}},
	}
	for _, c := range cases {
		confs, stats, err := confResult(db.W, c.ds...).ConfidencesDispatch(ConfOptions{})
		if err != nil {
			t.Fatalf("%s: dispatch: %v", c.name, err)
		}
		if stats != (ConfPathStats{ReadOnce: 1}) {
			t.Errorf("%s: counted %+v, want read-once", c.name, stats)
		}
		if want := bruteUnionProb(db.W, c.ds); math.Abs(confs[0].P-want) > 1e-12 {
			t.Errorf("%s: evaluator %v, world enumeration %v", c.name, confs[0].P, want)
		}
	}
}

// TestReadOnceDetectorRejects is the adversarial pin. The shapes the
// former detector had to refuse — shared variables without exclusivity,
// an exclusive component past its pairwise budget — are exact through
// the one evaluator, never sampled; lineage that is hard in fact fails
// the plain method with ErrConfidenceCap, whose text no longer sends
// the caller to a method that samples every tuple.
func TestReadOnceDetectorRejects(t *testing.T) {
	db := NewUDB()
	x := db.W.NewBoolVar("x")
	y := db.W.NewBoolVar("y")
	z := db.W.NewBoolVar("z")
	vals := make([]ws.Val, 66)
	for i := range vals {
		vals[i] = ws.Val(i + 1)
	}
	big := db.W.MustNewVar("big", vals...)
	var wide []ws.Descriptor // 66 pairwise-exclusive two-variable conjunctions
	for _, v := range vals {
		wide = append(wide, ws.MustDescriptor(ws.A(big, v), ws.A(x, 1)))
	}

	cases := []struct {
		name string
		ds   []ws.Descriptor
	}{
		{"overlapping pair", []ws.Descriptor{
			ws.MustDescriptor(ws.A(x, 1), ws.A(y, 1)),
			ws.MustDescriptor(ws.A(x, 1), ws.A(z, 1))}},
		{"triangle x∧y ∨ y∧z ∨ z∧x", []ws.Descriptor{
			ws.MustDescriptor(ws.A(x, 1), ws.A(y, 1)),
			ws.MustDescriptor(ws.A(y, 1), ws.A(z, 1)),
			ws.MustDescriptor(ws.A(z, 1), ws.A(x, 1))}},
		{"subsumed disjunct", []ws.Descriptor{
			ws.MustDescriptor(ws.A(x, 1)),
			ws.MustDescriptor(ws.A(x, 1), ws.A(y, 1))}},
		{"chain x∧y ∨ y∧z", []ws.Descriptor{
			ws.MustDescriptor(ws.A(x, 1), ws.A(y, 1)),
			ws.MustDescriptor(ws.A(y, 1), ws.A(z, 1))}},
		{"66 exclusive conjunctions", wide},
	}
	for _, c := range cases {
		confs, stats, err := confResult(db.W, c.ds...).ConfidencesDispatch(ConfOptions{})
		if err != nil {
			t.Fatalf("%s: dispatch: %v", c.name, err)
		}
		if stats.MC != 0 || stats.ReadOnce+stats.Enum != 1 {
			t.Errorf("%s: counted %+v, want one exact tuple", c.name, stats)
		}
		if want := bruteUnionProb(db.W, c.ds); math.Abs(confs[0].P-want) > 1e-12 {
			t.Errorf("%s: evaluator %v, world enumeration %v", c.name, confs[0].P, want)
		}
	}

	hard := NewUDB()
	_, err := confResult(hard.W, hardLineage(hard.W)...).Confidences()
	if !errors.Is(err, ErrConfidenceCap) {
		t.Fatalf("Confidences on hard lineage: %v, want ErrConfidenceCap", err)
	}
	if strings.Contains(err.Error(), "ConfidencesMC") {
		t.Fatalf("the budget error still recommends sampling every tuple: %v", err)
	}
}

// TestConfidencesBeyondTheJointDomain: the plain methods of the facade
// go through the same evaluator as the dispatcher. 64 descriptors on 64
// independent three-valued variables (3⁶⁴ joint assignments) are a
// product — exact without a single expansion step.
func TestConfidencesBeyondTheJointDomain(t *testing.T) {
	db := NewUDB()
	var ds []ws.Descriptor
	for i := 0; i < 64; i++ {
		ds = append(ds, ws.MustDescriptor(ws.A(db.W.MustNewVar(fmt.Sprintf("x%d", i), 1, 2, 3), 1)))
	}
	res := confResult(db.W, ds...)
	want := 1 - math.Pow(2.0/3, 64)
	confs, err := res.Confidences()
	if err != nil {
		t.Fatalf("Confidences: %v", err)
	}
	if math.Abs(confs[0].P-want) > 1e-12 {
		t.Fatalf("Confidences = %v, want 1 − (2/3)^64 = %v", confs[0].P, want)
	}
	if p, err := res.TupleProb(engine.Tuple{engine.Int(7)}); err != nil || p != confs[0].P {
		t.Fatalf("TupleProb = %v, %v; Confidences says %v", p, err, confs[0].P)
	}
	if _, steps, _ := unionProb(db.W, ds, noDeadline); steps != 0 {
		t.Fatalf("independent descriptors took %d expansion steps, want 0", steps)
	}
}

// TestUnionProbRandomLineages checks the evaluator against world
// enumeration where TPC-H-like lineage never goes: interlocked
// descriptors over multi-valued variables with skewed probabilities, so
// that exclusive values, the rest-of-domain branch and its weight all
// carry part of the answer.
func TestUnionProbRandomLineages(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	expansions := 0
	for iter := 0; iter < 1500; iter++ {
		db := NewUDB()
		var vars []ws.Var
		for i := 0; i < 2+rng.Intn(5); i++ {
			dom := make([]ws.Val, 2+rng.Intn(3))
			for j := range dom {
				dom[j] = ws.Val(j + 1)
			}
			vars = append(vars, db.W.MustNewVar("", dom...))
		}
		randProbs(rng, db)
		ds := make([]ws.Descriptor, 1+rng.Intn(9))
		for i := range ds {
			var as []ws.Assignment
			for _, j := range rng.Perm(len(vars))[:1+rng.Intn(min(3, len(vars)))] {
				as = append(as, ws.A(vars[j], ws.Val(1+rng.Intn(db.W.DomainSize(vars[j])))))
			}
			ds[i] = ws.MustDescriptor(as...)
		}
		got, steps, err := unionProb(db.W, ds, noDeadline)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if want := bruteUnionProb(db.W, ds); math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: evaluator %v, world enumeration %v for %v", iter, got, want, ds)
		}
		expansions += steps
	}
	if expansions < 1500 {
		t.Fatalf("only %d expansion steps over the whole suite; the lineages are too easy", expansions)
	}
}

// TestConfidenceCoversTheEnumerator: nothing the former 2²² joint-domain
// enumeration answered exactly is sampled now, and lineage whose
// variables interlock with small width is exact however many there are.
// Random DNFs small enough for world enumeration must equal it; the
// chain has a closed form. Each shape logs its steps and time.
func TestConfidenceCoversTheEnumerator(t *testing.T) {
	type shape struct {
		name  string
		w     *ws.WorldTable
		ds    []ws.Descriptor
		exact float64 // < 0: no independent reference
	}
	var shapes []shape
	add := func(name string, nvars int, build func(vars []ws.Var) []ws.Descriptor, exact func(*ws.WorldTable, []ws.Descriptor) float64) {
		w := ws.NewWorldTable()
		ds := build(boolVars(w, nvars))
		s := shape{name: name, w: w, ds: ds, exact: -1}
		if exact != nil {
			s.exact = exact(w, ds)
		}
		shapes = append(shapes, s)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		m, width, seed := 30+rng.Intn(71), 3+rng.Intn(2), rng.Int63()
		dnf := func(vars []ws.Var) []ws.Descriptor { return randomDNF(seed, vars, m, width) }
		add(fmt.Sprintf("dnf%d-14v-%dd", width, m), 14, dnf, bruteUnionProb)
		add(fmt.Sprintf("dnf%d-22v-%dd", width, m), 22, dnf, nil)
	}
	// The shapes of BenchmarkConfidence and of the ARCHITECTURE table.
	for _, c := range []struct{ nvars, m, width int }{{22, 40, 3}, {22, 100, 3}, {22, 100, 4}, {40, 60, 3}} {
		add(fmt.Sprintf("dnf%d-%dv-%dd", c.width, c.nvars, c.m), c.nvars,
			func(vars []ws.Var) []ws.Descriptor { return randomDNF(1, vars, c.m, c.width) }, nil)
	}
	add("chain-40", 40, func(vars []ws.Var) []ws.Descriptor { return pairs(vars, chainEdges(40)) },
		func(*ws.WorldTable, []ws.Descriptor) float64 {
			// No two adjacent coins both 1: Fib(n+2) of the 2^n assignments,
			// a after the loop.
			a, b := 2.0, 3.0 // of 1 coin, of 2 coins
			for n := 2; n <= 40; n++ {
				a, b = b, a+b
			}
			return 1 - a/math.Pow(2, 40)
		})
	add("grid-3x4", 12, func(vars []ws.Var) []ws.Descriptor { return pairs(vars, gridEdges(3, 4)) }, bruteUnionProb)
	add("grid-5x5", 25, func(vars []ws.Var) []ws.Descriptor { return pairs(vars, gridEdges(5, 5)) }, nil)
	add("grid-6x6", 36, func(vars []ws.Var) []ws.Descriptor { return pairs(vars, gridEdges(6, 6)) }, nil)

	for _, s := range shapes {
		res := confResult(s.w, s.ds...)
		start := time.Now()
		confs, stats, err := res.ConfidencesDispatch(ConfOptions{})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if stats.MC != 0 {
			t.Errorf("%s: sampled, want exact", s.name)
		}
		if s.exact >= 0 && math.Abs(confs[0].P-s.exact) > 1e-9 {
			t.Errorf("%s: evaluator %v, reference %v", s.name, confs[0].P, s.exact)
		}
		if b := res.ConfidenceBounds()[0]; b.Certain > confs[0].P+1e-9 || confs[0].P > b.Possible+1e-9 {
			t.Errorf("%s: bounds [%v, %v] do not sandwich %v", s.name, b.Certain, b.Possible, confs[0].P)
		}
		_, steps, _ := unionProb(s.w, s.ds, noDeadline)
		t.Logf("%-16s %6d steps of %d  %v", s.name, steps, confBudget, elapsed.Round(10*time.Microsecond))
	}
}

// TestConfidencesMCHoeffding covers the Monte-Carlo sampler without
// flakes: with a fixed seed the estimate is deterministic, and a
// Hoeffding bound sized for δ = 1e-12 (ε = sqrt(ln(2/δ)/2n) ≈ 0.027 at
// n = 20000) makes the assertion fail only on a genuine regression,
// not on sampling noise.
func TestConfidencesMCHoeffding(t *testing.T) {
	db := NewUDB()
	ds := pairs(boolVars(db.W, 8), chainEdges(8))
	res := confResult(db.W, ds...)

	exact := bruteUnionProb(db.W, ds)
	const n, eps = 20000, 0.027
	mc := res.ConfidencesMC(n, 9)
	if len(mc) != 1 {
		t.Fatalf("one group, got %v", mc)
	}
	if diff := math.Abs(mc[0].P - exact); diff > eps {
		t.Fatalf("MC estimate %v vs exact %v: off by %v > Hoeffding ε %v", mc[0].P, exact, diff, eps)
	}
	// Same seed, same estimate — the CI contract.
	again := res.ConfidencesMC(n, 9)
	if mc[0].P != again[0].P {
		t.Fatalf("seeded MC is not deterministic: %v vs %v", mc[0].P, again[0].P)
	}
}

// TestSamplerDrawsTheLineageOnly: the sampler draws the variables the
// lineage mentions and no others, so the same seed gives the same
// estimate with 50 000 unrelated variables around the lineage's in W.
func TestSamplerDrawsTheLineageOnly(t *testing.T) {
	alone := ws.NewWorldTable()
	want := confResult(alone, randomDNF(3, boolVars(alone, 30), 12, 3)...).ConfidencesMC(2000, 7)

	crowded := ws.NewWorldTable()
	boolVars(crowded, 25000)
	vars := boolVars(crowded, 30)
	boolVars(crowded, 25000)
	got := confResult(crowded, randomDNF(3, vars, 12, 3)...).ConfidencesMC(2000, 7)
	if got[0].P != want[0].P {
		t.Fatalf("estimate %v with 50 000 unrelated variables in W, %v without", got[0].P, want[0].P)
	}
	if want[0].P <= 0 || want[0].P >= 1 {
		t.Fatalf("estimate %v says nothing about the draws", want[0].P)
	}
}

// TestConfidencesDispatchDeadline: an expired deadline surfaces as
// ErrConfDeadline from inside the evaluator and from the sampler
// instead of an unbounded stall; without one, lineage past the step
// budget is sampled.
func TestConfidencesDispatchDeadline(t *testing.T) {
	db := NewUDB()
	res := confResult(db.W, hardLineage(db.W)...)
	expired := time.Now().Add(-time.Second)

	_, _, err := res.ConfidencesDispatch(ConfOptions{Deadline: expired})
	if !errors.Is(err, ErrConfDeadline) {
		t.Fatalf("evaluator under expired deadline: %v, want ErrConfDeadline", err)
	}
	_, err = sampleConfidences(db.W, res.groupDescriptors(), 1<<30, 1, deadlineChecker(expired, ErrConfDeadline))
	if !errors.Is(err, ErrConfDeadline) {
		t.Fatalf("sampler under expired deadline: %v, want ErrConfDeadline", err)
	}

	start := time.Now()
	confs, stats, err := res.ConfidencesDispatch(ConfOptions{MCSamples: 1000})
	if err != nil || stats != (ConfPathStats{MC: 1}) {
		t.Fatalf("dispatch without deadline: stats %+v, err %v", stats, err)
	}
	if b := res.ConfidenceBounds()[0]; confs[0].P < b.Certain || confs[0].P > b.Possible {
		t.Fatalf("sampled confidence %v outside the bounds [%v, %v]", confs[0].P, b.Certain, b.Possible)
	}
	t.Logf("budget exhausted and 1000 worlds sampled in %v", time.Since(start).Round(time.Millisecond))
}

// TestConfidenceBoundsShape pins the one-pass bounds on hand-built
// lineage: trivial rows are [1,1], sums clamp at 1, and the lower
// bound is the most probable disjunct.
func TestConfidenceBoundsShape(t *testing.T) {
	db := NewUDB()
	x := db.W.NewBoolVar("x")
	y := db.W.MustNewVar("y", 1, 2)
	if err := db.W.SetProbs(y, []float64{0.8, 0.2}); err != nil {
		t.Fatal(err)
	}

	res := confResult(db.W,
		ws.MustDescriptor(ws.A(x, 1)),             // p = 0.5
		ws.MustDescriptor(ws.A(y, 1)),             // p = 0.8
		ws.MustDescriptor(ws.A(y, 2), ws.A(x, 2))) // p = 0.1
	bounds := res.ConfidenceBounds()
	if len(bounds) != 1 {
		t.Fatalf("one group, got %v", bounds)
	}
	if got := bounds[0]; got.Certain != 0.8 || got.Possible != 1 {
		// Certain = max(0.5, 0.8, 0.1); Possible = min(1, 1.4).
		t.Fatalf("bounds [%v, %v], want [0.8, 1]", got.Certain, got.Possible)
	}

	// Trivial descriptor pins both ends to 1.
	res = confResult(db.W, nil, ws.MustDescriptor(ws.A(x, 1)))
	if b := res.ConfidenceBounds(); b[0].Certain != 1 || b[0].Possible != 1 {
		t.Fatalf("trivial-row bounds [%v, %v], want [1, 1]", b[0].Certain, b[0].Possible)
	}
}
