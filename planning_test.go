package urel_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/tpch"
	"urel/internal/txn"
)

// savedPlanningData generates the benchmark's low-uncertainty TPC-H
// data at one scale and saves a copy of it into a fresh directory.
func savedPlanningData(t *testing.T, scale float64) (mem *core.UDB, dir string) {
	t.Helper()
	mem = tpchDB(t, scale, 0.01, 1)
	dir = t.TempDir()
	if err := store.Save(mem, dir); err != nil {
		t.Fatal(err)
	}
	return mem, dir
}

// openPlanningData opens a saved copy without a segment cache, closing
// it when the test ends.
func openPlanningData(t *testing.T, dir string) *core.UDB {
	t.Helper()
	stored, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stored.Close() })
	return stored
}

// planningData is savedPlanningData and its stored copy, opened without
// a segment cache.
func planningData(t *testing.T, scale float64) (mem, stored *core.UDB) {
	t.Helper()
	mem, dir := savedPlanningData(t, scale)
	return mem, openPlanningData(t, dir)
}

// spanRows sums an EXPLAIN ANALYZE span tree: rows the leaf scans
// emitted, the most any one operator emitted, and rows emitted by all
// operators together (the plan's rows processed).
func spanRows(root *obs.Span) (leaf, maxOp, processed int64) {
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		ch := s.Children()
		if len(ch) == 0 {
			leaf += s.Rows()
		}
		if s.Rows() > maxOp {
			maxOp = s.Rows()
		}
		processed += s.Rows()
		for _, c := range ch {
			walk(c)
		}
	}
	for _, c := range root.Children() { // the root is the query, not an operator
		walk(c)
	}
	return leaf, maxOp, processed
}

// leafRelations lists the logical relation behind each leaf scan of p
// (partitions are named u_<relation>_<attribute>[#alias]).
func leafRelations(p engine.Plan) []string {
	ch := p.Children()
	if len(ch) == 0 {
		name := ""
		switch n := p.(type) {
		case *store.StoreScanPlan:
			name = n.Name
		case *engine.ValuesPlan:
			name = n.Name
		}
		if parts := strings.Split(name, "_"); len(parts) >= 3 {
			return []string{parts[1]}
		}
		return []string{"?"}
	}
	var out []string
	for _, c := range ch {
		out = append(out, leafRelations(c)...)
	}
	return out
}

func oneRelation(rels []string) bool {
	for _, r := range rels {
		if r != rels[0] {
			return false
		}
	}
	return true
}

// joinOrder renders the order in which a plan joins logical relations,
// with each relation's partition merge collapsed to its name.
func joinOrder(p engine.Plan) string {
	if rels := leafRelations(p); oneRelation(rels) {
		return rels[0]
	}
	if j, ok := p.(*engine.JoinPlan); ok {
		return "(" + joinOrder(j.L) + " ⋈ " + joinOrder(j.R) + ")"
	}
	return joinOrder(p.Children()[0])
}

// mergedInput finds the subtree of p that merges n partitions of rel
// and nothing else.
func mergedInput(p engine.Plan, rel string, n int) engine.Plan {
	if rels := leafRelations(p); oneRelation(rels) && rels[0] == rel && len(rels) == n {
		return p
	}
	for _, c := range p.Children() {
		if m := mergedInput(c, rel, n); m != nil {
			return m
		}
	}
	return nil
}

// findStitch returns the first stitch in p, or nil.
func findStitch(p engine.Plan) *engine.StitchPlan {
	if s, ok := p.(*engine.StitchPlan); ok {
		return s
	}
	for _, c := range p.Children() {
		if s := findStitch(c); s != nil {
			return s
		}
	}
	return nil
}

func optimizedPoss(t *testing.T, db *core.UDB, q core.Query) engine.Plan {
	t.Helper()
	plan, _, err := db.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := engine.Optimize(plan, engine.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// checkStoredRun runs q over the stored copy under EXPLAIN ANALYZE and
// checks what the cliff broke: no operator emits more than three times
// what the leaf scans read (the ψ-only cross product of ISSUE 16 emitted
// 1.5 M rows from 37 k), and the answer is the in-memory one.
func checkStoredRun(t *testing.T, what string, mem, stored *core.UDB, q core.Query) (leaf, processed int64) {
	t.Helper()
	res, err := stored.ExplainAnalyze(q, false, engine.ExecConfig{})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	leaf, maxOp, processed := spanRows(res.Trace)
	if leaf == 0 || maxOp > 3*leaf {
		t.Errorf("%s: an operator emitted %d rows from %d scanned:\n%s", what, maxOp, leaf, res.Text)
	}
	got, err := stored.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := mem.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !got.EqualAsSet(want) {
		t.Errorf("%s: stored answer has %d tuples, in-memory %d", what, got.Len(), want.Len())
	}
	return leaf, processed
}

// TestStoredPlanningHasNoCliff sweeps Q1 over stored sources across the
// scale at which orders outgrows one 4096-row segment (s 0.4, where it
// used to go from tens of milliseconds to ten seconds), and runs Q3 at
// the stored workloads' scale — asserting on row counts, not the clock.
func TestStoredPlanningHasNoCliff(t *testing.T) {
	var prevLeaf, prevProcessed int64
	for _, s := range []float64{0.2, 0.3, 0.4, 0.5} {
		mem, stored := planningData(t, s)
		what := fmt.Sprintf("Q1 at s %g", s)
		leaf, processed := checkStoredRun(t, what, mem, stored, tpch.Q1())
		// Work grows with the data: between neighbouring scales, rows
		// processed grow no faster than three times the rows scanned.
		if prevLeaf > 0 && float64(processed)/float64(prevProcessed) > 3*float64(leaf)/float64(prevLeaf) {
			t.Errorf("%s: rows processed grew %d → %d while rows scanned grew %d → %d",
				what, prevProcessed, processed, prevLeaf, leaf)
		}
		prevLeaf, prevProcessed = leaf, processed

		if s == 0.4 {
			// The estimate EXPLAIN prints for orders' merged four-partition
			// input (three tid joins) is within 10× of what it produces;
			// each join divided by a default NDV put it five orders out.
			orders := mergedInput(optimizedPoss(t, stored, tpch.Q1()), "orders", 4)
			if orders == nil {
				t.Fatalf("%s: no merged four-partition orders input in the plan", what)
			}
			cat := engine.NewCatalog()
			est := engine.EstimateStats(orders, cat).Rows
			out, err := engine.Run(orders, cat, engine.ExecConfig{DisableOptimizer: true})
			if err != nil {
				t.Fatal(err)
			}
			if actual := float64(out.Len()); est > 10*actual || actual > 10*est {
				t.Errorf("%s: merged orders input estimated at %.0f rows, produces %.0f", what, est, actual)
			}
		}
	}

	// The stored workloads' own scale: Q1's join order is the one the
	// benchmark's stored_cold has always run; Q3 runs in proportion too.
	mem, stored := planningData(t, 0.25)
	checkStoredRun(t, "Q3 at s 0.25", mem, stored, tpch.Q3())
	if got, want := joinOrder(optimizedPoss(t, stored, tpch.Q1())), "((customer ⋈ orders) ⋈ lineitem)"; got != want {
		t.Errorf("stored Q1 at s 0.25 joins %s, want %s", got, want)
	}
}

// TestQ3NationFiltersReachTheLeafScans pins, from EXPLAIN, that Q3's two
// nation selections are pushed through the rename/merge shape the
// translation emits onto the scans of u_nation_n_name — in memory and
// over stored sources. Q3's cost is join order and row
// materialization, not a missed pushdown.
func TestQ3NationFiltersReachTheLeafScans(t *testing.T) {
	mem, stored := planningData(t, 0.05)
	for _, sel := range []struct{ alias, nation string }{{"n1", "GERMANY"}, {"n2", "IRAQ"}} {
		cond := fmt.Sprintf("%s.n_name = '%s'", sel.alias, sel.nation)
		leaf := "u_nation_n_name#" + sel.alias

		// In memory EXPLAIN fuses the filter into the scan line above it.
		text, err := mem.ExplainQuery(tpch.Q3(), true)
		if err != nil {
			t.Fatal(err)
		}
		if !adjacentLines(text, "Seq Scan on "+leaf, "Filter: "+cond) {
			t.Errorf("in memory, %s is not on the scan of %s:\n%s", cond, leaf, text)
		}
		// Stored, the filter node sits directly above the store scan,
		// which is where segment pruning (AdviseFilter) looks for it.
		text, err = stored.ExplainQuery(tpch.Q3(), true)
		if err != nil {
			t.Fatal(err)
		}
		if !adjacentLines(text, "Cond: "+cond, "->  Store Scan on "+leaf) {
			t.Errorf("stored, %s is not directly above the scan of %s:\n%s", cond, leaf, text)
		}
	}
}

// adjacentLines reports whether some line containing first is directly
// followed by a line containing second.
func adjacentLines(text, first, second string) bool {
	lines := strings.Split(text, "\n")
	for i := 0; i+1 < len(lines); i++ {
		if strings.Contains(lines[i], first) && strings.Contains(lines[i+1], second) {
			return true
		}
	}
	return false
}

// TestStoredPossibleRunsInBatches runs a `possible select … where …`
// over a stored catalog under EXPLAIN ANALYZE and checks that every
// operator of the plan, from the Distinct root poss(q) adds down to the
// segment scans, reports the batches it moved: no node under a row
// operator is driven any other way.
func TestStoredPossibleRunsInBatches(t *testing.T) {
	_, stored := planningData(t, 0.05)
	parsed, err := sqlparse.Parse("possible select c_mktsegment from customer where c_custkey < 10")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stored.ExplainAnalyze(parsed.Query, false, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("fixture query must produce rows")
	}
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if s.Rows() > 0 && s.Batches() == 0 {
			t.Errorf("%q emitted %d rows in no batch:\n%s", s.Op(), s.Rows(), res.Text)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, c := range res.Trace.Children() {
		walk(c)
	}
}

// indexedPlanningData is planningData with the benchmark's one
// secondary index, lineitem(l_orderkey), built beside the stored copy
// through the write path; dir is where it is saved.
func indexedPlanningData(t *testing.T, scale float64) (mem, stored *core.UDB, dir string) {
	t.Helper()
	mem, dir = savedPlanningData(t, scale)
	rw, err := txn.Open(dir, txn.Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Exec("create index on lineitem(l_orderkey)"); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	return mem, openPlanningData(t, dir), dir
}

// pointLookup is the benchmark's point class: two attributes of the
// lineitems of one order, found by the zone maps of the clustered
// l_orderkey (through its index where the order straddles two segments).
func pointLookup(key int64) core.Query {
	return core.Poss(core.Project(core.Select(core.Rel("lineitem"),
		engine.Eq(engine.Col("l_orderkey"), engine.ConstInt(key))), "l_extendedprice", "l_quantity"))
}

// straddlingKey is an order whose lineitems straddle a boundary of
// lineitem's l_orderkey segments: the key of the first row of a segment
// that the row before it holds too.
func straddlingKey(t *testing.T, mem *core.UDB) int64 {
	t.Helper()
	rows := sortedPart(mem, "l_orderkey")
	for i := store.DefaultSegmentRows; i < len(rows); i += store.DefaultSegmentRows {
		if k := rows[i].Vals[0].AsInt(); k == rows[i-1].Vals[0].AsInt() {
			return k
		}
	}
	t.Fatal("no order straddles a segment boundary of lineitem's l_orderkey")
	return 0
}

// sortedPart is the partition of lineitem storing attr, in tuple-id
// order: the order it is stored in.
func sortedPart(mem *core.UDB, attr string) []core.URow {
	for _, p := range mem.Rels["lineitem"].Parts {
		if p.Attrs[0] == attr {
			rows := slices.Clone(p.Rows)
			slices.SortStableFunc(rows, func(a, b core.URow) int { return cmp.Compare(a.TID, b.TID) })
			return rows
		}
	}
	return nil
}

// planLeaves lists the leaves of p, each under the filter pushed onto
// it, if any.
func planLeaves(p engine.Plan) []engine.Plan {
	if f, ok := p.(*engine.FilterPlan); ok && len(f.Child.Children()) == 0 {
		return []engine.Plan{p}
	}
	ch := p.Children()
	if len(ch) == 0 {
		return []engine.Plan{p}
	}
	var out []engine.Plan
	for _, c := range ch {
		out = append(out, planLeaves(c)...)
	}
	return out
}

// selectiveLeaf reports whether a leaf of planLeaves is cut by a
// selection: filtered (an index probe is a filtered store scan).
func selectiveLeaf(leaf engine.Plan) bool {
	_, ok := leaf.(*engine.FilterPlan)
	return ok
}

// keyTIDRows counts the rows of lineitem's partitions of the named
// attributes whose tuple ids lie between the least and the greatest
// tuple id of the lineitems of order key.
func keyTIDRows(mem *core.UDB, key int64, attrs ...string) int64 {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	parts := mem.Rels["lineitem"].Parts
	for _, p := range parts {
		if p.Attrs[0] != "l_orderkey" {
			continue
		}
		for _, r := range p.Rows {
			if r.Vals[0].AsInt() == key {
				lo, hi = min(lo, r.TID), max(hi, r.TID)
			}
		}
	}
	var n int64
	for _, p := range parts {
		for _, a := range attrs {
			if p.Attrs[0] != a {
				continue
			}
			for _, r := range p.Rows {
				if r.TID >= lo && r.TID <= hi {
					n++
				}
			}
		}
	}
	return n
}

// TestMergeStartsAtTheSelectivePartition: over stored data, the
// optimized plans of Q1, Q2 and the index point lookup merge each
// relation's partitions with one stitch driven by the one the selection
// cut — its filtered or index-probed partition, the stitch's smallest
// estimated input — and every hash join that runs builds on the side
// estimated no larger than the side it probes. What then runs is
// counted, not timed: the l_orderkey scan of the point lookup reads the
// one segment the zone maps leave it, consulting no run, and that of an
// order whose lineitems straddle a segment boundary probes its run and
// reads the two segments it locates the order's rows in; each other scan
// reads the segments of its partition that hold the order's tuple ids and
// skips the rest (the stitch hands it its driver's tid range), and of
// those serves only the window of the order's tuple ids, so the stitch
// reads exactly the rows of those tuple ids from the inputs it narrowed,
// where a merge once probed all 32 000; each scan hands over one column
// batch per segment; and a lookup of a key no order has reads at most
// the one segment the zone maps leave the l_orderkey scan, so the stitch
// reads nothing of the partitions it would have merged.
func TestMergeStartsAtTheSelectivePartition(t *testing.T) {
	mem, stored, _ := indexedPlanningData(t, 0.25)
	keys, err := mem.EvalPoss(core.Poss(core.Project(core.Rel("lineitem"), "l_orderkey")), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	present := map[int64]bool{}
	for _, row := range keys.Rows {
		present[row[0].AsInt()] = true
	}
	key := keys.Rows[len(keys.Rows)/2][0].AsInt()
	absent := key
	for present[absent] {
		absent++ // inside the key range, so no min/max refutes it
	}
	cat := engine.NewCatalog()
	straddle := straddlingKey(t, mem)
	for name, q := range map[string]core.Query{"Q1": tpch.Q1(), "Q2": tpch.Q2(), "point": pointLookup(key), "straddle": pointLookup(straddle)} {
		plan := optimizedPoss(t, stored, q)
		perRel := map[string]int{}
		for _, rel := range leafRelations(plan) {
			perRel[rel]++
		}
		for rel, n := range perRel {
			if n < 2 {
				continue
			}
			chain := mergedInput(plan, rel, n)
			if chain == nil {
				t.Fatalf("%s: %s's %d partitions are not merged in one subtree", name, rel, n)
			}
			stitch := findStitch(chain)
			if stitch == nil {
				t.Fatalf("%s: %s's %d partitions are not merged by a stitch", name, rel, n)
			}
			leaves := planLeaves(chain)
			start := planLeaves(stitch.Inputs[stitch.Driver])[0] // the stitch drains its driver first
			startRows := engine.EstimateStats(start, cat).Rows
			anySelective := false
			for _, leaf := range leaves {
				if rows := engine.EstimateStats(leaf, cat).Rows; rows < startRows {
					t.Errorf("%s: %s's merge starts at a leaf of %.0f rows, %s has %.0f", name, rel, startRows, leaf.Label(), rows)
				}
				anySelective = anySelective || selectiveLeaf(leaf)
			}
			if anySelective && !selectiveLeaf(start) {
				t.Errorf("%s: %s's merge starts at %s, not at a filtered or index-probed partition", name, rel, start.Label())
			}
		}
		res, err := stored.ExplainAnalyze(q, false, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var probed int64
		var walk func(*obs.Span)
		walk = func(s *obs.Span) {
			kids := s.Children()
			if s.Op() == "Hash Join" && kids[0].Est() > kids[1].Est() {
				t.Errorf("%s: a hash join builds on est=%.0f rows and probes est=%.0f:\n%s", name, kids[0].Est(), kids[1].Est(), res.Text)
			}
			if strings.HasPrefix(s.Op(), "Store Scan") {
				driver := strings.Contains(s.Op(), "l_orderkey")
				// A stitch asks the scans it drives once per driver batch,
				// and the straddling order's driver hands two.
				if s.Batches() != s.Stat("segments_read") && (name != "straddle" || driver) {
					t.Errorf("%s: %q read %d segments and moved %d batches:\n%s", name, s.Op(), s.Stat("segments_read"), s.Batches(), res.Text)
				}
				read, skipped, runs := s.Stat("segments_read"), s.Stat("segments_skipped_by_join"), s.Stat("index_runs_consulted")
				wantSkipped := int64(3) // by the stitch's tid range; the l_orderkey scan drives it
				if driver {
					wantSkipped = 0
				}
				switch {
				case name == "point" && (read != 1 || skipped != wantSkipped || runs != 0):
					t.Errorf("point lookup of %d: %q read %d segments, skipped %d and consulted %d runs, want 1, %d and 0:\n%s", key, s.Op(), read, skipped, runs, wantSkipped, res.Text)
				case name == "straddle" && driver && (read != 2 || skipped != 0 || runs != 1):
					t.Errorf("lookup of %d: %q read %d segments, skipped %d and consulted %d runs, want 2, 0 and 1:\n%s", straddle, s.Op(), read, skipped, runs, res.Text)
				case name == "straddle" && !driver && (read == 0 || read+skipped != 4 || runs != 0):
					t.Errorf("lookup of %d: %q read %d segments and skipped %d of 4, consulting %d runs:\n%s", straddle, s.Op(), read, skipped, runs, res.Text)
				}
			}
			for _, c := range kids {
				walk(c)
			}
		}
		walk(res.Trace.Children()[0])
		probed = probedRows(res.Trace)
		if name != "point" && name != "straddle" {
			continue
		}
		got, err := stored.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mem.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !got.EqualAsSet(want) {
			t.Fatalf("%s lookup: %d answers, in memory %d", name, got.Len(), want.Len())
		}
		k := key
		if name == "straddle" {
			k = straddle
		}
		if want := keyTIDRows(mem, k, "l_extendedprice", "l_quantity"); probed != want {
			t.Errorf("%s lookup of %d: %d probed, want %d:\n%s", name, k, probed, want, res.Text)
		}
	}

	res, err := stored.ExplainAnalyze(pointLookup(absent), false, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 {
		t.Fatalf("lookup of the absent key %d has %d answers", absent, res.Rows)
	}
	scans := 0
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if strings.HasPrefix(s.Op(), "Store Scan") {
			scans++
			most := int64(0)
			if strings.Contains(s.Op(), "l_orderkey") {
				most = 1
			}
			if n := s.Stat("segments_read"); n > most || s.Stat("index_runs_consulted") != 0 {
				t.Errorf("lookup of the absent key %d: %q read %d segments to join with nothing:\n%s", absent, s.Op(), n, res.Text)
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(res.Trace)
	if scans != 3 {
		t.Errorf("lookup of the absent key %d: %d store scans in the plan, want the selected partition and the two it drives:\n%s", absent, scans, res.Text)
	}
}

// selectiveJoinSQL is the served_mix workload's dearest statement: the
// orders below one key, joined to lineitem's merge of l_orderkey and
// l_quantity.
const selectiveJoinSQL = "possible select o_orderkey, l_quantity from orders, lineitem where o_orderkey = l_orderkey and o_orderkey < 113"

// TestSelectiveJoinNarrowsTheMergeChain: the outer hash join of
// selectiveJoinSQL hands the list of its build keys (the orders below
// 113) to lineitem's stitch, which forwards it to the input l_orderkey
// is read from — whose zone maps skip the segments that hold none — its
// driver, whose rows without a key it drops as it drains them; the
// driver's tid range then narrows l_quantity. So each lineitem scan
// reads one segment and skips three by join, and the outer join probes
// exactly the rows the stitch joined, where it probed every lineitem.
// The answers are the in-memory ones.
func TestSelectiveJoinNarrowsTheMergeChain(t *testing.T) {
	mem, stored, _ := indexedPlanningData(t, 0.25)
	parsed, err := sqlparse.Parse(selectiveJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stored.ExplainAnalyze(parsed.Query, false, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var joins, scans []*obs.Span
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		switch {
		case s.Op() == "Hash Join" || strings.HasPrefix(s.Op(), "Merge Join on tid"):
			joins = append(joins, s)
		case strings.HasPrefix(s.Op(), "Store Scan") && strings.Contains(s.Op(), "lineitem"):
			scans = append(scans, s)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(res.Trace)
	if len(joins) != 2 || len(scans) != 2 {
		t.Fatalf("want the outer join, lineitem's merge and its two scans:\n%s", res.Text)
	}
	if outer, merge := joins[0], joins[1]; outer.Stat("probe_rows") != merge.Rows() {
		t.Errorf("the outer join probed %d rows, the merge joined %d:\n%s", outer.Stat("probe_rows"), merge.Rows(), res.Text)
	}
	for _, s := range scans {
		if s.Stat("segments_read") != 1 || s.Stat("segments_skipped_by_join") != 3 {
			t.Errorf("%q read %d segments and skipped %d by join, want 1 and 3:\n%s", s.Op(), s.Stat("segments_read"), s.Stat("segments_skipped_by_join"), res.Text)
		}
	}
	got, err := stored.EvalPoss(parsed.Query, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.EvalPoss(parsed.Query, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !got.EqualAsSet(want) {
		t.Fatalf("%d answers, in memory %d", got.Len(), want.Len())
	}
	t.Logf("\n%s", res.Text)
}

// hasLeaf reports whether a leaf of p scans a partition whose name
// contains part.
func hasLeaf(p engine.Plan, part string) bool {
	for _, leaf := range planLeaves(p) {
		if strings.Contains(leaf.Label(), part) {
			return true
		}
	}
	return false
}

// TestQ3JoinsLineitemUnderASelection pins the order the join orderer
// gives the paper's Q3 in memory (s 0.05, x 0.01 and 0.1, z 0.25): at
// seed 42 lineitem is joined beneath the subtree that holds n2's
// selection, so the orders of IRAQ's customers cut lineitem before any
// join above it, and n1 ⋈ supplier, the other selection's side, is the
// build side of a join. At seed 1 no supplier is in GERMANY, so that
// build side is empty and lineitem's stitch is never read.
func TestQ3JoinsLineitemUnderASelection(t *testing.T) {
	for _, x := range []float64{0.01, 0.1} {
		for _, seed := range []int64{1, 42} {
			db := tpchDB(t, 0.05, x, seed)
			what := fmt.Sprintf("Q3 at x %g, seed %d", x, seed)
			if seed == 1 {
				res, err := db.ExplainAnalyze(tpch.Q3(), false, engine.ExecConfig{})
				if err != nil {
					t.Fatal(err)
				}
				var walk func(s *obs.Span, underLineitem bool)
				walk = func(s *obs.Span, underLineitem bool) {
					underLineitem = underLineitem || strings.Contains(s.Op(), "tid:lineitem")
					if underLineitem && s.Rows() != 0 {
						t.Errorf("%s: %q under lineitem's stitch made %d rows:\n%s", what, s.Op(), s.Rows(), res.Text)
					}
					for _, c := range s.Children() {
						walk(c, underLineitem)
					}
				}
				walk(res.Trace, false)
				continue
			}
			plan := optimizedPoss(t, db, tpch.Q3())
			underN2, n1Builds := false, false
			var walk func(q engine.Plan)
			walk = func(q engine.Plan) {
				if j, ok := q.(*engine.JoinPlan); ok {
					for _, side := range [][2]engine.Plan{{j.L, j.R}, {j.R, j.L}} {
						if rels := leafRelations(side[0]); oneRelation(rels) && rels[0] == "lineitem" {
							underN2 = hasLeaf(side[1], "#n2")
						}
					}
					if rels := leafRelations(j.L); len(rels) == 4 && hasLeaf(j.L, "#n1") && strings.Count(strings.Join(rels, " "), "supplier") == 2 {
						n1Builds = true
					}
				}
				for _, c := range q.Children() {
					walk(c)
				}
			}
			walk(plan)
			if !underN2 {
				t.Errorf("%s: lineitem is not joined beneath n2's selection: %s", what, joinOrder(plan))
			}
			if !n1Builds {
				t.Errorf("%s: n1 ⋈ supplier is no join's build side: %s", what, joinOrder(plan))
			}
		}
	}
}
