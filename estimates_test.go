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
// within estimateDriftLimit× of its actual rows — the numbers the join
// orderer chose the plan on — or, where driftExceptions records why it
// cannot, to the worst drift recorded there. Scans are not held: a
// stitch's driver hands the other inputs its tid range at run time,
// which the estimate of a scan cannot know.
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
		res, err := db.ExplainAnalyze(q, false, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var walk func(s *obs.Span) bool
		walk = func(s *obs.Span) (pulled bool) {
			pulled = s.Batches() > 0
			for _, c := range s.Children() {
				pulled = walk(c) || pulled
			}
			if !pulled || !heldToEstimate(s.Op()) {
				return pulled
			}
			max, why := limit(what, s.Op())
			if d := estimateDrift(s.Est(), s.Rows()); d > max {
				t.Errorf("%s: %q estimated at %.0f rows made %d (drift %.1f×, at most %g×: %s):\n%s", what, s.Op(), s.Est(), s.Rows(), d, max, why, res.Text)
			}
			return pulled
		}
		walk(res.Trace)
	}
	for _, x := range []float64{0.01, 0.1} {
		for _, seed := range []int64{1, 42} {
			p := tpch.DefaultParams(0.05, x, 0.25)
			p.Seed = seed
			db, _, err := tpch.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
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

// heldToEstimate reports whether a span's operator is a join, a stitch
// or a filter.
func heldToEstimate(op string) bool {
	for _, prefix := range []string{"Hash Join", "Nested Loop", "Merge Join on tid", "Filter"} {
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
