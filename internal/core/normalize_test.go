package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"urel/internal/engine"
	"urel/internal/ws"
)

// TestFigure5Normalization reproduces the paper's Figure 5 example
// exactly: a U-relation over variables c1, c2, c3 where c1 and c2
// co-occur in a descriptor; normalization merges them into one fresh
// variable with the product domain (4 values), while c3 stays separate.
func TestFigure5Normalization(t *testing.T) {
	db := NewUDB()
	db.MustAddRelation("r", "a")
	c1 := db.W.MustNewVar("c1", 1, 2)
	c2 := db.W.MustNewVar("c2", 1, 2)
	c3 := db.W.MustNewVar("c3", 1, 2)
	u := db.MustAddPartition("r", "u", "a")

	// Figure 5(a): descriptors of width two (padding repeats the
	// assignment, as in the paper's first and third rows).
	u.Add(ws.MustDescriptor(ws.A(c1, 1)), 1, engine.Str("a1"))
	d12, _ := ws.Descriptor{ws.A(c1, 1)}.Union(ws.Descriptor{ws.A(c2, 2)})
	u.Add(d12, 2, engine.Str("a2"))
	u.Add(ws.MustDescriptor(ws.A(c1, 2)), 2, engine.Str("a3"))
	u.Add(ws.MustDescriptor(ws.A(c3, 1)), 3, engine.Str("a4"))
	u.Add(ws.MustDescriptor(ws.A(c3, 2)), 3, engine.Str("a5"))

	norm, err := db.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// All descriptors have size ≤ 1 (Definition 4.1).
	np := norm.Rels["r"].Parts[0]
	for _, r := range np.Rows {
		if len(r.D) > 1 {
			t.Fatalf("normalized descriptor too wide: %s", r.D)
		}
	}
	// Figure 5(b): seven rows — (1,1),(1,2) for a1; (1,2) for a2;
	// (2,1),(2,2) for a3; c3 rows for a4/a5 unchanged.
	if len(np.Rows) != 7 {
		t.Fatalf("Figure 5(b) has 7 rows, got %d:\n%v", len(np.Rows), np.Rows)
	}
	// The fresh variable for {c1,c2} has the product domain of size 4;
	// c3's replacement keeps size 2.
	sizes := map[int]int{}
	for _, x := range norm.W.NontrivialVars() {
		sizes[norm.W.DomainSize(x)]++
	}
	if sizes[4] != 1 || sizes[2] != 1 {
		t.Fatalf("want one 4-domain and one 2-domain variable, got %v", sizes)
	}
	// Theorem 4.2: same world-set.
	s1, err := db.WorldSetSignature(100)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := norm.WorldSetSignature(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("world-set changed: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("world-set contents changed")
		}
	}
	// Figure 5(c): the corresponding WSD has components with 4 and 2
	// local worlds — checked via the wsd package in its own tests; here
	// we verify the count of new variables equals the number of
	// connected components (2 non-trivial).
	if len(norm.W.NontrivialVars()) != 2 {
		t.Fatalf("want 2 components, got %d", len(norm.W.NontrivialVars()))
	}
}

func TestNormalizeComponentCap(t *testing.T) {
	// A single descriptor chaining many variables forms one component;
	// exceeding the domain cap must error rather than explode.
	db := NewUDB()
	db.MustAddRelation("r", "a")
	u := db.MustAddPartition("r", "u", "a")
	var d ws.Descriptor
	for i := 0; i < 30; i++ {
		x := db.W.MustNewVar("", 1, 2)
		nd, ok := d.Union(ws.Descriptor{ws.A(x, 1)})
		if !ok {
			t.Fatal("union failed")
		}
		d = nd
	}
	u.Add(d, 1, engine.Int(1))
	if _, err := db.Normalize(); err == nil {
		t.Fatal("2^30 product domain must be rejected")
	}
}

func TestNormalizeEmptyDescriptors(t *testing.T) {
	db := NewUDB()
	db.MustAddRelation("r", "a")
	u := db.MustAddPartition("r", "u", "a")
	u.Add(nil, 1, engine.Int(10))
	x := db.W.MustNewVar("x", 1, 2)
	u.Add(ws.MustDescriptor(ws.A(x, 1)), 2, engine.Int(20))
	u.Add(ws.MustDescriptor(ws.A(x, 2)), 2, engine.Int(21))
	norm, err := db.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Certain row keeps its empty descriptor.
	found := false
	for _, r := range norm.Rels["r"].Parts[0].Rows {
		if r.TID == 1 && len(r.D) == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("certain row must stay certain after normalization")
	}
}

func TestNormalizeCarriesProbabilities(t *testing.T) {
	// Probabilities multiply across merged components.
	db := NewUDB()
	db.MustAddRelation("r", "a")
	x := db.W.MustNewVar("x", 1, 2)
	y := db.W.MustNewVar("y", 1, 2)
	if err := db.W.SetProbs(x, []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := db.W.SetProbs(y, []float64{0.1, 0.9}); err != nil {
		t.Fatal(err)
	}
	u := db.MustAddPartition("r", "u", "a")
	d, _ := ws.Descriptor{ws.A(x, 1)}.Union(ws.Descriptor{ws.A(y, 1)})
	u.Add(d, 1, engine.Int(1))
	d2, _ := ws.Descriptor{ws.A(x, 2)}.Union(ws.Descriptor{ws.A(y, 2)})
	u.Add(d2, 1, engine.Int(2))
	norm, err := db.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// One merged variable over 4 combos; total probability must be 1
	// and the combo (x=1,y=1) must carry 0.025.
	vars := norm.W.NontrivialVars()
	if len(vars) != 1 {
		t.Fatalf("want one merged variable, got %d", len(vars))
	}
	g := vars[0]
	sum := 0.0
	found := false
	for _, v := range norm.W.Domain(g) {
		p := norm.W.Prob(g, v)
		sum += p
		if p > 0.0249 && p < 0.0251 {
			found = true
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities must sum to 1, got %g", sum)
	}
	if !found {
		t.Fatal("combo probability 0.25*0.1 missing")
	}
}

// TestEvalPossAgreesWithEvalFull: the lazy poss fast path and the full
// tuple-level translation agree on possible answers.
func TestEvalPossAgreesWithEvalFull(t *testing.T) {
	db, _, _, _ := vehiclesDB(t)
	queries := []Query{
		Project(Rel("r"), "id"),
		Project(Rel("r"), "type", "faction"),
		Select(Rel("r"), engine.Cmp(engine.EQ, engine.Col("faction"), engine.ConstStr("Enemy"))),
	}
	for i, q := range queries {
		lazy, err := db.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		full, err := db.Eval(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !lazy.EqualAsSet(full.PossibleTuples()) {
			t.Fatalf("query %d: lazy and full translations disagree", i)
		}
	}
}

// TestTranslateErrors exercises the translation's error paths.
func TestTranslateErrors(t *testing.T) {
	db, _, _, _ := vehiclesDB(t)
	// Duplicate alias.
	if _, _, err := db.Translate(Join(Rel("r"), Rel("r"), nil)); err == nil {
		t.Fatal("self-join without alias must fail")
	}
	// Unknown relation.
	if _, _, err := db.Translate(Rel("nope")); err == nil {
		t.Fatal("unknown relation must fail")
	}
	// Unknown attribute in projection.
	if _, err := db.Eval(Project(Rel("r"), "nope"), engine.ExecConfig{}); err == nil {
		t.Fatal("unknown attribute must fail")
	}
	// Nested poss.
	if _, _, err := db.Translate(Project(Poss(Rel("r")), "id")); err == nil {
		t.Fatal("nested poss must fail")
	}
	// Eval of a poss query.
	if _, err := db.Eval(Poss(Rel("r")), engine.ExecConfig{}); err == nil {
		t.Fatal("Eval must reject poss queries")
	}
	// Certain answers of a poss query.
	if _, err := db.CertainAnswers(Poss(Rel("r"))); err == nil {
		t.Fatal("CertainAnswers must reject poss queries")
	}
	// Union arity mismatch.
	bad := UnionOf(Project(RelAs("r", "a1"), "a1.id"),
		Project(RelAs("r", "a2"), "a2.id", "a2.type"))
	if _, _, err := db.Translate(bad); err == nil {
		t.Fatal("union arity mismatch must fail")
	}
	// Ambiguous unqualified attribute.
	amb := Select(Join(RelAs("r", "x1"), RelAs("r", "x2"), nil),
		engine.Cmp(engine.EQ, engine.Col("id"), engine.ConstInt(1)))
	if _, err := db.EvalPoss(Poss(amb), engine.ExecConfig{}); err == nil {
		t.Fatal("ambiguous attribute must fail at binding")
	}
}

// TestULayoutColumns checks the canonical D,T,A ordering.
func TestULayoutColumns(t *testing.T) {
	lay := &ULayout{
		DPairs: [][2]string{{"d0v", "d0r"}},
		TIDs:   []string{"tid1", "tid2"},
		Attrs:  []string{"a", "b"},
	}
	got := lay.Columns()
	want := []string{"d0v", "d0r", "tid1", "tid2", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestResultString renders without panicking and includes descriptors.
func TestResultString(t *testing.T) {
	db, _, _, _ := vehiclesDB(t)
	res, err := db.Eval(Project(Rel("r"), "id"), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if len(s) == 0 {
		t.Fatal("empty render")
	}
}

// TestNormalizeTouchesOnlyMentionedVariables: normalizing a result costs
// what its descriptors mention. The same result over three variables —
// alone in the world table, and between 50 000 unrelated ones — gets the
// same two fresh variables (x and y co-occur, z is on its own), the same
// rows and certain tuples, and takes the same allocations and about the
// same bytes. (When Normalize built a component for every variable of W,
// the second took 50 000 fresh variables with a domain and a probability
// vector each: megabytes, and 50 000 allocations at the least.)
//
// Both counts are read process-wide, so whatever the runtime allocates
// meanwhile lands in the window. Averaged over many runs, that noise
// truncates away from the allocation count, which is compared exactly;
// the bytes get a tolerance of 64 KiB per run, a few hundred times the
// noise and a thirtieth of the regression they guard against.
func TestNormalizeTouchesOnlyMentionedVariables(t *testing.T) {
	build := func(unrelated int) *UResult {
		w := ws.NewWorldTable()
		boolVars(w, unrelated/2)
		x := w.MustNewVar("x", 0, 1)
		y := w.MustNewVar("y", 1, 2, 3)
		z := w.MustNewVar("z", 0, 1)
		boolVars(w, unrelated/2)
		if err := w.SetProbs(y, []float64{0.5, 0.3, 0.2}); err != nil {
			t.Fatal(err)
		}
		res := &UResult{W: w, Attrs: []string{"a"}}
		add := func(val int64, as ...ws.Assignment) {
			res.Rows = append(res.Rows, UResultRow{D: ws.MustDescriptor(as...), Vals: engine.Tuple{engine.Int(val)}})
		}
		add(1, ws.A(x, 0)) // certain: x covers it, through the component of x and y
		add(1, ws.A(x, 1), ws.A(y, 1))
		add(1, ws.A(x, 1), ws.A(y, 2))
		add(1, ws.A(x, 1), ws.A(y, 3))
		add(2, ws.A(z, 0)) // certain: z covers it
		add(2, ws.A(z, 1))
		add(3, ws.A(z, 1)) // possible only
		add(3, ws.A(x, 1), ws.A(y, 2))
		return res
	}
	type outcome struct {
		fresh, rows int
		certain     string
		allocs      float64
		bytes       uint64
	}
	measure := func(res *UResult) outcome {
		norm, err := res.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		ra, err := norm.CertainTuplesRA()
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{fresh: len(norm.W.NontrivialVars()), rows: len(norm.Rows), certain: fmt.Sprint(ra.Sorted())}
		if got, _, err := res.CertainTuples(time.Time{}); err != nil || fmt.Sprint(got.Sorted()) != o.certain {
			t.Fatalf("CertainTuples gives %v, %v; Lemma 4.3 %s", got, err, o.certain)
		}
		const runs = 400
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o.allocs = testing.AllocsPerRun(runs, func() {
			if _, err := res.Normalize(); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		o.bytes = (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		return o
	}
	alone, crowded := measure(build(0)), measure(build(50000))
	t.Logf("alone in W: %+v", alone)
	t.Logf("among 50 000 unrelated variables: %+v", crowded)
	if alone.fresh != 2 || alone.rows != 3+1+1+1+1+1+1+1 || alone.certain != "[(1) (2)]" {
		t.Fatalf("normalized to %d fresh variables and %d rows, certain tuples %s", alone.fresh, alone.rows, alone.certain)
	}
	if d := float64(crowded.bytes) - float64(alone.bytes); math.Abs(d) < 64<<10 {
		crowded.bytes = alone.bytes
	}
	if crowded != alone {
		t.Fatalf("the unrelated variables of W change what normalization does:\n%+v alone,\n%+v among them", alone, crowded)
	}
}

// TestCertainPipelineProbesTheDeadline: every loop of the certain-answer
// pipeline that can run long probes the deadline — once per code of a
// component's product domain, once per valuation a descriptor expands
// to, once per batch of the Lemma 4.3 plan. Twelve chained coins: one
// component of 2¹² codes, eleven descriptors of 2¹⁰ valuations each.
func TestCertainPipelineProbesTheDeadline(t *testing.T) {
	w := ws.NewWorldTable()
	vars := boolVars(w, 12)
	var chain [][2]int
	for i := 0; i+1 < len(vars); i++ {
		chain = append(chain, [2]int{i, i + 1})
	}
	res := confResult(w, pairs(vars, chain)...)
	const codes, valuations = 1 << 12, 11 << 10
	stop := errors.New("stop")
	for _, c := range []struct {
		where string
		after int // probes that pass
		want  error
	}{
		{"the product domain", codes / 2, stop},
		{"a descriptor's expansion", codes + valuations/2, stop},
		{"the last valuation", codes + valuations - 1, stop},
		{"nowhere", codes + valuations, nil},
	} {
		probes := 0
		norm, err := res.normalize(func() error {
			if probes++; probes > c.after {
				return stop
			}
			return nil
		})
		if err != c.want || (err == nil && len(norm.Rows) != valuations) {
			t.Fatalf("stopping in %s: %v after %d probes, want %v", c.where, err, probes, c.want)
		}
	}

	expired := time.Now().Add(-time.Second)
	if _, _, err := res.CertainTuples(expired); !errors.Is(err, ErrCertainDeadline) {
		t.Fatalf("CertainTuples past its deadline: %v, want ErrCertainDeadline", err)
	}
	norm, err := res.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := norm.certainRA(expired); !errors.Is(err, ErrCertainDeadline) {
		t.Fatalf("the Lemma 4.3 plan past its deadline: %v, want ErrCertainDeadline", err)
	}
	if rel, stats, err := res.CertainTuples(time.Now().Add(time.Minute)); err != nil || rel.Len() != 0 || stats != (CertainPathStats{}) {
		t.Fatalf("within the deadline: %v, %+v, %v; a chain of conjunctions covers no variable", rel, stats, err)
	}
}
