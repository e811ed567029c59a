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
	"urel/internal/store"
	"urel/internal/tpch"
)

// TestTranslatedPlansProjectOnce: in the optimized plans of the paper's
// Q1–Q3, by the lazy and by the full translation, no projection sits on
// another projection, an inner join or a stitch — they emit through it —
// and what EXPLAIN ANALYZE ran is that plan node for node: the same
// operators, each on the estimate EXPLAIN prints for it. (The fold is a
// plan rewrite; done while lowering it would see trace wrappers under
// EXPLAIN ANALYZE and quietly not happen.)
func TestTranslatedPlansProjectOnce(t *testing.T) {
	db := tpchDB(t, 0.02, 0.05, 1)
	cat := engine.NewCatalog()
	var checkShape func(what string, p engine.Plan) (joins int)
	checkShape = func(what string, p engine.Plan) (joins int) {
		if pr, ok := p.(*engine.ProjectPlan); ok {
			switch c := pr.Child.(type) {
			case *engine.ProjectPlan:
				t.Errorf("%s: Project %v sits on Project %v", what, pr.Names, c.Names)
			case *engine.JoinPlan:
				if c.Kind == engine.InnerJoin {
					t.Errorf("%s: Project %v sits on an inner join instead of being its Out", what, pr.Names)
				}
			case *engine.StitchPlan:
				t.Errorf("%s: Project %v sits on a stitch instead of being its Out", what, pr.Names)
			}
		}
		if j, ok := p.(*engine.JoinPlan); ok && j.Out != nil {
			joins++
		}
		if s, ok := p.(*engine.StitchPlan); ok && s.Out != nil {
			joins++
		}
		for _, c := range p.Children() {
			joins += checkShape(what, c)
		}
		return joins
	}
	var sameNodes func(what string, p engine.Plan, sp *obs.Span)
	sameNodes = func(what string, p engine.Plan, sp *obs.Span) {
		text, err := engine.Explain(p, cat, false)
		if err != nil {
			t.Fatal(err)
		}
		head := strings.SplitN(text, "\n", 2)[0]
		if !strings.Contains(head, fmt.Sprintf("(rows=%.0f)", sp.Est())) {
			t.Fatalf("%s: %q ran on est=%.0f, EXPLAIN prints its node as %q", what, sp.Op(), sp.Est(), head)
		}
		if want := engine.EstimateStats(p, cat).Rows; math.Abs(sp.Est()-want) > 1e-9*want {
			t.Fatalf("%s: %q ran on est=%g, the plan node is estimated at %g", what, sp.Op(), sp.Est(), want)
		}
		label := p.Label()
		if _, ok := p.(*engine.JoinPlan); ok {
			label = strings.TrimSpace(strings.SplitN(head, "  (", 2)[0])
		}
		if sp.Op() != label {
			t.Fatalf("%s: EXPLAIN ANALYZE ran %q where the plan has %q", what, sp.Op(), label)
		}
		kids := sp.Children()
		if len(kids) != len(p.Children()) {
			t.Fatalf("%s: %q ran with %d inputs, the plan node has %d", what, sp.Op(), len(kids), len(p.Children()))
		}
		for i, c := range p.Children() {
			sameNodes(what, c, kids[i])
		}
	}
	for name, q := range map[string]core.Query{"Q1": tpch.Q1(), "Q2": tpch.Q2(), "Q3": tpch.Q3()} {
		for _, full := range []bool{false, true} {
			what := fmt.Sprintf("%s full=%v", name, full)
			translate := db.Translate
			if full {
				q, translate = core.StripPoss(q), db.TranslateFull
			}
			plan, _, err := translate(q)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if plan, err = engine.Optimize(plan, cat); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if checkShape(what, plan) == 0 {
				t.Errorf("%s: no join of the plan emits through a projection", what)
			}
			root := obs.NewSpan("query")
			it, err := engine.Build(plan, cat, engine.ExecConfig{Trace: root})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if _, err := engine.Drain(it); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameNodes(what, plan, root.Children()[0])
		}
	}
}

// TestRowsAreMadeOnce: the plan the server runs for served_mix's
// dearest CERTAIN statement (Translate) merges the two partitions of
// orders it reads — o_orderkey's, which the selection cuts, and
// o_shippriority's — in one stitch, not all seven as the full merge
// does; and run in memory or stored the stitch gathers its output column
// by column, no more than its output rows × its output width cells: 755
// rows and 3 020 cells. (No operator makes a tuple below the sink:
// TestOneRowProtocol holds DrainLimited to be the only caller of
// ColBatch.Materialize in package engine.) These are counts: they repeat exactly, where a clock on a
// shared machine does not.
func TestRowsAreMadeOnce(t *testing.T) {
	mem, dir := savedPlanningData(t, 0.25)
	stored, err := store.OpenCached(dir, store.NewSegCache(256<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	parsed, err := sqlparse.Parse("certain select o_shippriority from orders where o_orderkey < 751")
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	for name, db := range map[string]*core.UDB{"in memory": mem, "stored": stored} {
		plan, _, err := db.Translate(parsed.Query)
		if err != nil {
			t.Fatal(err)
		}
		if plan, err = engine.Optimize(plan, cat); err != nil {
			t.Fatal(err)
		}
		root := obs.NewSpan("query")
		it, err := engine.Build(plan, cat, engine.ExecConfig{Trace: root})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := engine.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		var joins, gathered, bound int64
		var walk func(p engine.Plan, sp *obs.Span)
		walk = func(p engine.Plan, sp *obs.Span) {
			if strings.HasPrefix(sp.Op(), "Merge Join on tid") {
				sch, err := p.Schema(cat)
				if err != nil {
					t.Fatal(err)
				}
				joins++
				gathered += sp.Stat("cells_gathered")
				bound += sp.Rows() * int64(sch.Len())
			}
			for i, c := range p.Children() {
				walk(c, sp.Children()[i])
			}
		}
		walk(plan, root.Children()[0])
		t.Logf("%s: %d rows; %d stitches gathered %d cells of at most %d", name, rel.Len(), joins, gathered, bound)
		if joins != 1 || rel.Len() != 755 {
			t.Fatalf("%s: %d stitches to %d rows; the statement merges two partitions to 755", name, joins, rel.Len())
		}
		if gathered == 0 || gathered > bound {
			t.Errorf("%s: the joins gathered %d cells, their output holds %d", name, gathered, bound)
		}
	}
}
