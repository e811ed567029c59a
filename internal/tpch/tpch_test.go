package tpch

import (
	"math"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

func genSmall(t testing.TB, x, z float64) (*core.UDB, Stats) {
	t.Helper()
	p := DefaultParams(0.01, x, z)
	db, st, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return db, st
}

func TestGenerateDeterministic(t *testing.T) {
	_, s1 := genSmall(t, 0.01, 0.25)
	_, s2 := genSmall(t, 0.01, 0.25)
	if s1.Log10Worlds != s2.Log10Worlds || s1.Vars != s2.Vars ||
		s1.UncertainFields != s2.UncertainFields || s1.SizeBytes != s2.SizeBytes {
		t.Fatalf("generation must be deterministic: %+v vs %+v", s1, s2)
	}
}

func TestGenerateShape(t *testing.T) {
	db, st := genSmall(t, 0.01, 0.25)
	// All eight tables present.
	if len(db.RelNames()) != 8 {
		t.Fatalf("want 8 tables, got %v", db.RelNames())
	}
	if st.Rows["nation"] != 25 || st.Rows["region"] != 5 {
		t.Fatal("fixed tables have fixed sizes")
	}
	if st.Rows["orders"] != 150 {
		t.Fatalf("orders at scale 0.01: want 150, got %d", st.Rows["orders"])
	}
	li := st.Rows["lineitem"]
	if li < 150 || li > 150*7 {
		t.Fatalf("lineitem count out of range: %d", li)
	}
	if st.UncertainFields == 0 || st.Vars == 0 {
		t.Fatal("uncertainty must be injected at x=0.01")
	}
	if st.Log10Worlds <= 0 {
		t.Fatal("must represent multiple worlds")
	}
	if err := db.CoverageComplete(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateCertainAtXZero(t *testing.T) {
	db, st := genSmall(t, 0, 0.25)
	if st.UncertainFields != 0 || st.Vars != 0 {
		t.Fatal("x=0 must produce the one-world database")
	}
	if db.W.NumWorlds().Int64() != 1 {
		t.Fatalf("x=0: want 1 world, got %v", db.W.NumWorlds())
	}
}

func TestUncertaintyGrowsWithX(t *testing.T) {
	_, s1 := genSmall(t, 0.001, 0.25)
	_, s2 := genSmall(t, 0.01, 0.25)
	_, s3 := genSmall(t, 0.1, 0.25)
	if !(s1.UncertainFields < s2.UncertainFields && s2.UncertainFields < s3.UncertainFields) {
		t.Fatalf("uncertain fields must grow with x: %d %d %d",
			s1.UncertainFields, s2.UncertainFields, s3.UncertainFields)
	}
	if !(s1.Log10Worlds < s2.Log10Worlds && s2.Log10Worlds < s3.Log10Worlds) {
		t.Fatalf("worlds must grow with x: %g %g %g",
			s1.Log10Worlds, s2.Log10Worlds, s3.Log10Worlds)
	}
	// Figure 9's key claim: the world count explodes exponentially while
	// the database size grows only modestly.
	if float64(s3.SizeBytes) > 3.5*float64(s1.SizeBytes) {
		t.Fatalf("size should grow sub-linearly in #worlds: %d -> %d bytes",
			s1.SizeBytes, s3.SizeBytes)
	}
}

func TestCorrelationGrowsLocalWorlds(t *testing.T) {
	_, s1 := genSmall(t, 0.05, 0.1)
	_, s3 := genSmall(t, 0.05, 0.5)
	if s3.MaxLocalWorlds < s1.MaxLocalWorlds {
		t.Fatalf("higher z should produce at least as large max domains: z=.1:%d z=.5:%d",
			s1.MaxLocalWorlds, s3.MaxLocalWorlds)
	}
	if s1.MaxLocalWorlds <= 8 && s3.MaxLocalWorlds <= 8 {
		t.Fatalf("correlated variables should exceed the single-field domain cap m=8: %d/%d",
			s1.MaxLocalWorlds, s3.MaxLocalWorlds)
	}
}

func TestGeneratedDatabaseIsValidAndNormalized(t *testing.T) {
	db, _ := genSmall(t, 0.05, 0.25)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range db.RelNames() {
		for _, p := range db.Rels[name].Parts {
			if w := p.MaxDescriptorWidth(); w > 1 {
				t.Fatalf("%s: generated data must be normalized, found width %d", p.Name, w)
			}
		}
	}
}

// TestGeneratedDatabaseIsExistenceComplete: the bit Generate sets holds
// — every partition's rows of a tuple cover the same worlds — so the
// translation may read only the partitions a query needs in every
// answer mode.
func TestGeneratedDatabaseIsExistenceComplete(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := DefaultParams(0.02, 0.1, 0.25)
		p.Seed = seed
		db, _, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range db.RelNames() {
			if !db.Rels[name].ExistenceComplete {
				t.Fatalf("seed %d: %s: bit clear", seed, name)
			}
			if err := db.CheckExistenceComplete(name); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestWorldHasDbgenShape(t *testing.T) {
	// "Any world in a U-relational database shares the properties of
	// the one-world database": same relation sizes.
	db, st := genSmall(t, 0.05, 0.25)
	world := db.Instantiate(ws.Valuation{ws.TrivialVar: 0}.Clone())
	// Build a total valuation (first domain value everywhere).
	f := ws.Valuation{ws.TrivialVar: 0}
	for _, x := range db.W.NontrivialVars() {
		f[x] = db.W.Domain(x)[0]
	}
	world = db.Instantiate(f)
	for _, name := range db.RelNames() {
		if world[name].Len() != st.Rows[name] {
			t.Fatalf("%s: world has %d tuples, dbgen generated %d",
				name, world[name].Len(), st.Rows[name])
		}
	}
}

func TestQ2OnGeneratedData(t *testing.T) {
	db, _ := genSmall(t, 0.01, 0.25)
	rel, err := db.EvalPoss(Q2(), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Fatal("Q2 should match some lineitems at scale 0.01")
	}
	if rel.Sch.Len() != 1 {
		t.Fatalf("Q2 projects one attribute, got %v", rel.Sch.Names())
	}
}

func TestQ1OnGeneratedData(t *testing.T) {
	db, _ := genSmall(t, 0.01, 0.25)
	rel, err := db.EvalPoss(Q1(), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Sch.Len() != 3 {
		t.Fatalf("Q1 projects three attributes, got %v", rel.Sch.Names())
	}
	// Answer sizes grow with uncertainty (Figure 11's trend).
	db2, _ := genSmall(t, 0.1, 0.25)
	rel2, err := db2.EvalPoss(Q1(), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() < rel.Len() {
		t.Fatalf("higher x should not shrink Q1's answer: %d -> %d", rel.Len(), rel2.Len())
	}
}

func TestQ3OnGeneratedData(t *testing.T) {
	db, _ := genSmall(t, 0.05, 0.25)
	rel, err := db.EvalPoss(Q3(), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Q3's answer is {} or {(GERMANY, IRAQ)}.
	if rel.Len() > 1 {
		t.Fatalf("Q3 can have at most one answer tuple, got %d", rel.Len())
	}
	if rel.Len() == 1 {
		row := rel.Rows[0]
		if row[0].S != "GERMANY" || row[1].S != "IRAQ" {
			t.Fatalf("Q3 answer wrong: %v", row)
		}
	}
}

func TestQ1MatchesGroundTruthOnTinyWorldSet(t *testing.T) {
	// Shrink until the world-set is enumerable, then compare the
	// translation against brute force.
	p := DefaultParams(0.002, 0.004, 0.25)
	p.Seed = 7
	db, st, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.W.CountWorlds(5000); err != nil {
		t.Skipf("world-set too large for ground truth (log10=%g)", st.Log10Worlds)
	}
	for name, q := range Queries() {
		got, err := db.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := db.PossibleGroundTruth(q, 5000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("%s: translation (%d tuples) disagrees with ground truth (%d tuples)",
				name, got.Len(), want.Len())
		}
	}
}

func TestTupleLevelBlowup(t *testing.T) {
	p := DefaultParams(0.002, 0.1, 0.1)
	db, _, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := TupleLevel(db, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	attrRows := 0
	for _, part := range db.Rels["lineitem"].Parts {
		attrRows += len(part.Rows)
	}
	tlRows := len(tl.Rels["lineitem"].Parts[0].Rows)
	baseTuples := 0
	seen := map[int64]bool{}
	for _, r := range tl.Rels["lineitem"].Parts[0].Rows {
		if !seen[r.TID] {
			seen[r.TID] = true
			baseTuples++
		}
	}
	// Tuple-level must enumerate value combinations: at 10% field
	// uncertainty it is strictly larger than the base tuple count.
	if tlRows <= baseTuples {
		t.Fatalf("tuple-level should blow up: %d rows for %d tuples", tlRows, baseTuples)
	}
	t.Logf("attribute-level rows=%d tuple-level rows=%d tuples=%d", attrRows, tlRows, baseTuples)
}

func TestDFCSchedule(t *testing.T) {
	counts := dfcSchedule(1000, 0.5, 8)
	if len(counts) != 8 {
		t.Fatal("schedule length")
	}
	if counts[0] <= counts[7] {
		t.Fatalf("DFC counts must decay: %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if math.Abs(float64(total-1000)) > 10 {
		t.Fatalf("schedule should sum to ~n: %d", total)
	}
	if dfcSchedule(0, 0.5, 8) != nil {
		t.Fatal("empty pool has no schedule")
	}
}

func TestRowCounts(t *testing.T) {
	if RowCount("orders", 1) != 15000 || RowCount("customer", 1) != 1500 {
		t.Fatal("scale-1 row counts")
	}
	if RowCount("orders", 0.0001) != 1 {
		t.Fatal("row counts clamp at 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown table must panic")
		}
	}()
	RowCount("nope", 1)
}
