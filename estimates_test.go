package urel_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/sqlparse"
	"urel/internal/tpch"
)

// estimateDriftLimit is how far a join, stitch or filter node's
// estimate may be from the rows it produced, either way.
const estimateDriftLimit = 4

// storedStats is why a node over stored data drifts: a store scan
// reports its rows and its tid's NDV and nothing else, so a range filter
// keeps a third of its partition, an equality 1/100, and an equi join
// divides by the default NDV of 100.
const storedStats = "stored partitions carry no value statistics"

// driftExceptions are the nodes that cannot keep within
// estimateDriftLimit: per statement and operator (a prefix of its
// label), the worst drift they show and why.
var driftExceptions = []struct {
	what, op string
	worst    float64
	why      string
}{
	{"Q3 at x 0.01, seed 1", "Hash Join", 27, "no supplier is in GERMANY: the build side n1 ⋈ supplier (est 1) is empty, so the join above it makes none"},
	{"Q3 at x 0.1, seed 1", "Hash Join", 33, "no supplier is in GERMANY: the build side n1 ⋈ supplier (est 1) is empty, so the join above it makes none"},
	{"Q3 at x 0.1, seed 42", "Hash Join", 5, "n2 ⋈ customer: 111 customers over 25 nations are 4.4 a nation, and IRAQ has one"},
	{servedMixShapes[0], "Filter", 10, storedStats},
	{servedMixShapes[0], "Merge Join", 29, storedStats},
	{servedMixShapes[1], "Filter", 7, storedStats},
	{servedMixShapes[1], "Merge Join", 7, storedStats},
	{servedMixShapes[2], "Filter", 13, storedStats},
	{servedMixShapes[2], "Merge Join", 48, storedStats},
	{servedMixShapes[4], "Filter", 5, storedStats},
	{servedMixShapes[4], "Hash Join", 11, storedStats},
	{selectiveJoinSQL, "Filter", 12, storedStats},
	{selectiveJoinSQL, "Merge Join", 32, storedStats},
	{selectiveJoinSQL, "Hash Join", 397, storedStats},
	{servedMixShapes[6], "Hash Join", 5, storedStats},
	{servedMixShapes[7], "Filter", 5, storedStats},
	{servedMixShapes[12], "Filter", 5, storedStats},
	{servedMixShapes[14], "Filter", 7, storedStats},
	{servedMixShapes[14], "Merge Join", 7, storedStats},
}

// TestEstimatesTrackActuals runs EXPLAIN ANALYZE of the paper's Q1–Q3
// in memory (s 0.05, x 0.01 and 0.1, seeds 1 and 42) and of every
// served_mix statement shape over the stored, indexed data, and holds
// every join, stitch and filter node that was pulled to an estimate
// within estimateDriftLimit× of the rows it makes — the numbers the join
// orderer chose the plan on — or, where driftExceptions records why it
// cannot, to the worst drift recorded there. A node a join's key list
// reached (its span reports keys_in) emits only the rows that can join,
// which no estimate of the node knows: it is held to the rows its
// subplan makes built and drained alone, with no join above it, and its
// actual rows must be no more than those. So is a node a stitch looked
// its rows up in (its span reports tids_looked_up): it makes only the
// rows of the driver's tuple ids. Scans are not held: a stitch asks the
// other inputs for the driver's tuple ids, or hands them its tid range,
// at run time, which the estimate of a scan cannot know.
func TestEstimatesTrackActuals(t *testing.T) {
	limit := func(what, op string) (worst float64, why string) {
		for _, e := range driftExceptions {
			if e.what == what && strings.HasPrefix(op, e.op) {
				return e.worst, e.why
			}
		}
		return estimateDriftLimit, "the limit"
	}
	check := func(what string, db *core.UDB, q core.Query) {
		plan, cat, root, text := analyzePlan(t, what, db, q)
		var walk func(p engine.Plan, s *obs.Span) bool
		walk = func(p engine.Plan, s *obs.Span) (pulled bool) {
			kids := planKids(t, p, s)
			pulled = s.Batches() > 0
			for i, c := range s.Children() {
				pulled = walk(kids[i], c) || pulled
			}
			if !pulled || !heldToEstimate(s.Op()) {
				return pulled
			}
			rows, held := s.Rows(), "made"
			if under := underWhat(s); under != "" {
				alone := rowsAlone(t, p, cat)
				if rows > alone {
					t.Errorf("%s: %q made %d rows %s and %d alone:\n%s", what, s.Op(), rows, under, alone, text)
				}
				t.Logf("%s: %q held to the %d rows it makes alone (%d %s)", what, s.Op(), alone, rows, under)
				rows, held = alone, "made alone"
			}
			max, why := limit(what, s.Op())
			if d := estimateDrift(s.Est(), rows); d > max {
				t.Errorf("%s: %q estimated at %.0f rows %s %d (drift %.1f×, at most %g×: %s):\n%s", what, s.Op(), s.Est(), held, rows, d, max, why, text)
			}
			return pulled
		}
		walk(plan, root)
	}
	for _, x := range []float64{0.01, 0.1} {
		for _, seed := range []int64{1, 42} {
			db := tpchDB(t, 0.05, x, seed)
			for _, name := range []string{"Q1", "Q2", "Q3"} {
				check(fmt.Sprintf("%s at x %g, seed %d", name, x, seed), db, tpch.Queries()[name])
			}
		}
	}
	_, stored, _ := indexedPlanningData(t, 0.25)
	for _, sql := range servedMixShapes {
		parsed, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		check(sql, stored, parsed.Query)
	}
}

// analyzePlan translates and optimizes q on db and runs EXPLAIN ANALYZE
// of the plan, returning it, its catalog, the span of its root and the
// annotated text.
func analyzePlan(t *testing.T, what string, db *core.UDB, q core.Query) (engine.Plan, *engine.Catalog, *obs.Span, string) {
	t.Helper()
	plan, _, err := db.Translate(q)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	cat := engine.NewCatalog()
	if plan, err = engine.Optimize(plan, cat); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	text, root, _, err := engine.ExplainAnalyze(plan, cat, engine.ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return plan, cat, root.Children()[0], text
}

// tpchDB generates the uncertain TPC-H database of one seed at scale s
// and uncertainty ratio x, correlation 0.25.
func tpchDB(tb testing.TB, s, x float64, seed int64) *core.UDB {
	tb.Helper()
	p := tpch.DefaultParams(s, x, 0.25)
	p.Seed = seed
	db, _, err := tpch.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// planKids returns the children of plan node p, whose span is s: the
// spans of a plan's nodes follow its children, one each, in order.
func planKids(t *testing.T, p engine.Plan, s *obs.Span) []engine.Plan {
	t.Helper()
	kids := p.Children()
	if len(kids) != len(s.Children()) {
		t.Fatalf("%q has %d children and its span %d", s.Op(), len(kids), len(s.Children()))
	}
	return kids
}

// rowsAlone is the rows the optimized plan node p makes built and
// drained alone, with nothing above it to hand it keys.
func rowsAlone(t *testing.T, p engine.Plan, cat *engine.Catalog) int64 {
	t.Helper()
	rel, err := engine.Run(p, cat, engine.ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatalf("%s alone: %v", p.Label(), err)
	}
	return int64(rel.Len())
}

// underWhat says what cut the rows of the node whose span is s below
// what it makes alone — a join's key list (keys_in), or a stitch that
// looked its rows up by tuple id (tids_looked_up) — or "" when nothing
// did.
func underWhat(s *obs.Span) string {
	switch {
	case s.Stat("keys_in") > 0:
		return "under its key list"
	case s.Stat("tids_looked_up") > 0:
		return "looked up by tuple id"
	}
	return ""
}

// heldToEstimate reports whether a span's operator is a join, a stitch
// or a filter.
func heldToEstimate(op string) bool {
	for _, prefix := range []string{"Hash Join", "Merge Join on tid", "Filter"} {
		if strings.HasPrefix(op, prefix) {
			return true
		}
	}
	return false
}

// estimateDrift is how far est is from actual, as a ratio of at least
// one; below one row, either counts as one.
func estimateDrift(est float64, actual int64) float64 {
	e, a := math.Max(1, est), math.Max(1, float64(actual))
	return math.Max(e/a, a/e)
}
