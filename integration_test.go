package urel_test

import (
	"strings"
	"testing"

	"urel"
	"urel/internal/bench"
	"urel/internal/bench/uldb"
	"urel/internal/bench/wsd"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/tpch"
)

// TestIntegrationFullPipeline drives the complete stack end to end on a
// tiny, fully enumerable world-set: generator -> SQL -> translation ->
// evaluation -> certain answers -> confidence, everything checked
// against brute-force world enumeration.
func TestIntegrationFullPipeline(t *testing.T) {
	p := tpch.DefaultParams(0.002, 0.004, 0.25)
	p.Seed = 7
	db, st, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.W.CountWorlds(5000); err != nil {
		t.Skipf("world-set too large to enumerate (log10=%g)", st.Log10Worlds)
	}

	// SQL -> possible answers == ground truth.
	parsed, err := sqlparse.Parse(
		"possible select o_orderkey from orders where o_totalprice > 100000")
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.EvalPoss(parsed.Query, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.PossibleGroundTruth(parsed.Query, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("SQL possible answers: %d vs ground truth %d", got.Len(), want.Len())
	}

	// Certain answers == per-world intersection.
	inner := core.StripPoss(parsed.Query)
	cert, err := db.CertainAnswers(inner)
	if err != nil {
		t.Fatal(err)
	}
	certWant, err := db.CertainGroundTruth(inner, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.EqualAsSet(certWant) {
		t.Fatalf("certain answers: %d vs ground truth %d", cert.Len(), certWant.Len())
	}

	// Confidences sum correctly against world probabilities.
	res, err := db.Eval(inner, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	confs, err := res.Confidences()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range confs {
		if c.P <= 0 || c.P > 1+1e-12 {
			t.Fatalf("confidence out of range: %+v", c)
		}
	}

	// Normalization preserves the world-set end to end.
	norm, err := db.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := db.WorldSetSignature(5000)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := norm.WorldSetSignature(40000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("normalization changed the world count: %d vs %d", len(s1), len(s2))
	}

	// Normalized database -> WSD -> back, still the same world-set.
	w, err := wsd.FromNormalizedUDB(norm)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := w.WorldSetSignature(40000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s3) != len(s1) {
		t.Fatalf("WSD conversion changed the world count: %d vs %d", len(s3), len(s1))
	}
}

// TestIntegrationTupleLevelAndULDB checks the Figure 14 representation
// chain on a tiny instance: attribute-level -> tuple-level -> ULDB all
// agree on possible answers.
func TestIntegrationTupleLevelAndULDB(t *testing.T) {
	p := tpch.DefaultParams(0.002, 0.01, 0.1)
	p.Seed = 3
	db, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Project(
		core.Select(core.Rel("customer"),
			engine.Cmp(engine.EQ, engine.Col("c_mktsegment"), engine.ConstStr("BUILDING"))),
		"c_custkey")
	attr, err := db.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tpch.TupleLevel(db, "customer")
	if err != nil {
		t.Fatal(err)
	}
	tuple, err := tl.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !attr.EqualAsSet(tuple) {
		t.Fatalf("attribute-level (%d) vs tuple-level (%d) possible answers differ",
			attr.Len(), tuple.Len())
	}
	// ULDB: select + project + minimize, same possible tuples.
	cdb := core.NewUDB()
	cdb.W = tl.W.Clone()
	// Move only the customer relation across.
	if err := copyRelation(cdb, tl, "customer"); err != nil {
		t.Fatal(err)
	}
	udb, err := bench.ULDBFromTupleLevel(cdb)
	if err != nil {
		t.Fatal(err)
	}
	ids := uldb.NewIDGen(1 << 41)
	sel, err := uldb.Select(udb.Rels["customer"],
		engine.Cmp(engine.EQ, engine.Col("c_mktsegment"), engine.ConstStr("BUILDING")), ids)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := uldb.Project(sel, []string{"c_custkey"}, ids)
	if err != nil {
		t.Fatal(err)
	}
	got := uldb.Minimize(proj).PossibleTuples()
	if !got.EqualAsSet(attr) {
		t.Fatalf("ULDB (%d) vs attribute-level (%d) possible answers differ",
			got.Len(), attr.Len())
	}
}

func copyRelation(dst, src *core.UDB, name string) error {
	rs := src.Rels[name]
	if err := dst.AddRelation(name, rs.Attrs...); err != nil {
		return err
	}
	for _, p := range rs.Parts {
		np, err := dst.AddPartition(name, p.Name, p.Attrs...)
		if err != nil {
			return err
		}
		np.Rows = append(np.Rows, p.Rows...)
	}
	return nil
}

// TestIntegrationPublicSQLToCertain uses only exported API surfaces
// plus the SQL front-end the way cmd/urquery does.
func TestIntegrationPublicSQLToCertain(t *testing.T) {
	db := urel.New()
	db.MustAddRelation("emp", "name", "dept")
	x := db.W.NewBoolVar("x")
	un := db.MustAddPartition("emp", "u_name", "name")
	ud := db.MustAddPartition("emp", "u_dept", "dept")
	un.Add(nil, 1, urel.Str("ada"))
	ud.Add(urel.D(urel.A(x, 1)), 1, urel.Str("db"))
	ud.Add(urel.D(urel.A(x, 2)), 1, urel.Str("os"))
	un.Add(nil, 2, urel.Str("bob"))
	ud.Add(nil, 2, urel.Str("db"))

	parsed, err := sqlparse.Parse("certain select name from emp where dept = 'db'")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := db.CertainAnswers(core.StripPoss(parsed.Query))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Len() != 1 || cert.Rows[0][0].S != "bob" {
		t.Fatalf("only bob is certainly in db: %s", cert)
	}
	poss, err := db.EvalPoss(urel.Poss(parsed.Query), urel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if poss.Len() != 2 {
		t.Fatalf("ada and bob are possibly in db: %d", poss.Len())
	}
	// Explain renders.
	plan, err := db.ExplainQuery(parsed.Query, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "u_dept") {
		t.Fatalf("plan should scan the dept partition:\n%s", plan)
	}
}
