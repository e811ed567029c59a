package urel_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/tpch"
)

// servedMixShapes are the statement shapes of the served_mix workload —
// selective scans, joins, point lookups, CERTAIN, conf and conf bounds —
// at one constant each.
var servedMixShapes = []string{
	"possible select l_extendedprice from lineitem where l_quantity < 3 and l_discount < 0.02",
	"possible select o_totalprice from orders where o_orderkey < 188",
	"possible select l_extendedprice from lineitem where l_shipdate between '1994-01-01' and '1994-01-21' and l_quantity < 10",
	"possible select c_name from customer where c_acctbal < 100",
	"possible select c_name, o_totalprice from customer, orders where c_custkey = o_custkey and o_orderkey < 300",
	selectiveJoinSQL,
	"possible select n_name, c_name from nation, customer where n_nationkey = c_nationkey and c_custkey < 113",
	"possible select s_name, l_quantity from supplier, lineitem where s_suppkey = l_suppkey and l_orderkey < 75",
	"possible select l_extendedprice, l_quantity from lineitem where l_orderkey = 77",
	"certain select c_mktsegment from customer where c_custkey < 113",
	"certain select o_orderstatus from orders where o_orderkey < 376",
	"certain select o_shippriority from orders where o_orderkey < 751",
	"conf select o_orderstatus from orders where o_orderkey < 300",
	"conf select c_mktsegment from customer where c_custkey < 188",
	"conf select o_orderpriority from orders where o_orderkey < 188",
	"conf bounds select o_orderpriority from orders where o_orderkey < 450",
	"conf bounds select c_mktsegment from customer",
}

// TestChainsAreStitched pins the plan shape of the merge: in the
// optimized plans of Q1–Q3, in memory and stored, and of every statement
// shape of served_mix (over the stored, indexed data), no join has an
// equi pair of two tuple-id columns, the partitions a relation
// occurrence reads, when there are two or more, are the inputs of
// exactly one stitch, and every inner hash join builds on its smaller
// side: its L is estimated no larger than its R (engine.EstimateStats).
// Trees may be bushy; a join on another join's probe side is handed no
// keys, because HashJoinIter does not narrow (TestOneRowProtocol).
// On BenchmarkMergeChain's relations the stitch
// gathers, per output row, as many cells as the row is wide — 3k + 1
// for k partitions, linear in k — where the chain of tid hash joins
// gathered 7, 28 and 73 for 2, 4 and 7.
func TestChainsAreStitched(t *testing.T) {
	mem, stored, _ := indexedPlanningData(t, 0.25)
	cat := engine.NewCatalog()
	check := func(what string, db *core.UDB, q core.Query) {
		plan, _, err := db.Translate(q)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if plan, err = engine.Optimize(plan, cat); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		leaves := map[string]int{}     // per alias, the partitions its leaves read
		stitches := map[string][]int{} // per alias, the input count of each stitch
		var walk func(p engine.Plan)
		walk = func(p engine.Plan) {
			switch n := p.(type) {
			case *engine.JoinPlan:
				ls, _ := n.L.Schema(cat)
				rs, _ := n.R.Schema(cat)
				pairs, _ := engine.ExtractEquiJoin(n.Cond, ls, rs)
				for _, pr := range pairs {
					if strings.HasPrefix(pr.L, "tid:") && strings.HasPrefix(pr.R, "tid:") {
						t.Errorf("%s: a join on the tuple ids %s = %s", what, pr.L, pr.R)
					}
				}
				if n.Kind == engine.InnerJoin && len(pairs) > 0 {
					if l, r := engine.EstimateStats(n.L, cat).Rows, engine.EstimateStats(n.R, cat).Rows; l > r {
						t.Errorf("%s: a hash join builds on est=%.0f rows and probes est=%.0f", what, l, r)
					}
				}
			case *engine.StitchPlan:
				alias := tidAlias(n.TIDs[0])
				for _, tid := range n.TIDs {
					if tidAlias(tid) != alias {
						t.Errorf("%s: one stitch merges %v, partitions of several relations", what, n.TIDs)
					}
				}
				stitches[alias] = append(stitches[alias], len(n.Inputs))
			}
			if len(p.Children()) == 0 {
				sch, err := p.Schema(cat)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range sch.Cols {
					if strings.HasPrefix(c.Name, "tid:") {
						leaves[tidAlias(c.Name)]++
					}
				}
			}
			for _, c := range p.Children() {
				walk(c)
			}
		}
		walk(plan)
		for alias, n := range leaves {
			if want := []int{n}; n >= 2 && fmt.Sprint(stitches[alias]) != fmt.Sprint(want) {
				t.Errorf("%s: %s reads %d partitions, merged by stitches of %v inputs", what, alias, n, stitches[alias])
			}
		}
	}
	for name, q := range tpch.Queries() {
		check(name+" in memory", mem, q)
		check(name+" stored", stored, q)
	}
	for _, sql := range servedMixShapes {
		parsed, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		check(sql, stored, parsed.Query)
	}

	chainMem, chainStored := mergeChainData(t)
	for _, k := range mergeChainKs {
		for name, db := range map[string]*core.UDB{"mem": chainMem, "stored": chainStored} {
			plan, _, err := db.TranslateFull(core.Rel(fmt.Sprintf("m%d", k)))
			if err != nil {
				t.Fatal(err)
			}
			root := obs.NewSpan("merge")
			rel, err := engine.Run(plan, cat, engine.ExecConfig{Trace: root})
			if err != nil {
				t.Fatal(err)
			}
			var cells int64
			var walk func(*obs.Span)
			walk = func(s *obs.Span) {
				cells += s.Stat("cells_gathered")
				for _, c := range s.Children() {
					walk(c)
				}
			}
			walk(root)
			if width := 3*k + 1; rel.Sch.Len() != width || cells != int64(rel.Len()*width) {
				t.Errorf("%s, %d partitions: %d cells gathered for %d rows of %d columns, want %d per row", name, k, cells, rel.Len(), rel.Sch.Len(), width)
			}
		}
	}
}

// tidAlias is the relation occurrence a tuple-id column "tid:<alias>.p<j>"
// belongs to.
func tidAlias(col string) string {
	s := strings.TrimPrefix(col, "tid:")
	return s[:strings.LastIndex(s, ".p")]
}

// TestKeySetsCutTheStitch: a hash join hands its probe side the list of
// its build keys, and a stitch under it gathers only the rows that can
// join. In memory (s 0.05, x 0.01), every stitch of Q1 (seed 1) and Q3
// (seeds 1 and 42) that a list reaches gathers at most a quarter of the
// cells it gathers drained alone, with no join above it — what it
// gathered under a key range, which an in-memory scan of an unsorted
// column cannot use. At seed 1 that pins Q1's orders stitch to a quarter
// of 4 170 cells and its lineitem stitch to a quarter of 4 422.
func TestKeySetsCutTheStitch(t *testing.T) {
	for _, c := range []struct {
		query string
		seed  int64
		alone map[string]int64 // per stitch label, the cells it gathers alone
	}{
		{"Q1", 1, map[string]int64{"Merge Join on tid (driver tid:orders.p4)": 4170, "Merge Join on tid (driver tid:lineitem.p8)": 4422}},
		{"Q3", 1, nil},
		{"Q3", 42, nil},
	} {
		what := fmt.Sprintf("%s at seed %d", c.query, c.seed)
		db := tpchDB(t, 0.05, 0.01, c.seed)
		plan, cat, root, text := analyzePlan(t, what, db, tpch.Queries()[c.query])
		cut := 0
		var walk func(p engine.Plan, s *obs.Span)
		walk = func(p engine.Plan, s *obs.Span) {
			kids := planKids(t, p, s)
			for i, k := range s.Children() {
				walk(kids[i], k)
			}
			if !strings.HasPrefix(s.Op(), "Merge Join on tid") || s.Stat("keys_in") == 0 {
				return
			}
			sch, err := p.Schema(cat)
			if err != nil {
				t.Fatal(err)
			}
			alone := rowsAlone(t, p, cat) * int64(sch.Len())
			if want, ok := c.alone[s.Op()]; ok && alone != want {
				t.Errorf("%s: %q gathers %d cells alone, want %d", what, s.Op(), alone, want)
			}
			delete(c.alone, s.Op())
			cut++
			t.Logf("%s: %q gathered %d cells under %d keys, %d alone", what, s.Op(), s.Stat("cells_gathered"), s.Stat("keys_in"), alone)
			if got := s.Stat("cells_gathered"); 4*got > alone {
				t.Errorf("%s: %q gathered %d cells under its key list, over a quarter of the %d it gathers alone:\n%s", what, s.Op(), got, alone, text)
			}
		}
		walk(plan, root)
		if cut == 0 || len(c.alone) > 0 {
			t.Errorf("%s: %d stitches took a key list, and %v none:\n%s", what, cut, c.alone, text)
		}
	}
}

// TestPositionalStitchConcurrent runs Q1–Q3 from four goroutines over
// one database and holds each answer to the one the same query gives in
// memory run alone. In memory no query has encoded the partitions yet,
// so the goroutines build the images, and the value-order runs of the
// columns key lists reach, and read them shared. Stored, they share one
// opened store twice: behind a segment cache, whose decoded segments
// every lookup reads, and without one, where each scan decodes into
// pooled buffers that its lookups hold until Close hands them back. CI
// runs it under the race detector, repeated.
func TestPositionalStitchConcurrent(t *testing.T) {
	names := []string{"Q1", "Q2", "Q3"}
	serial := tpchDB(t, 0.05, 0.1, 1)
	want := map[string]*engine.Relation{}
	for _, name := range names {
		rel, err := serial.EvalPoss(tpch.Queries()[name], engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want[name] = rel
	}
	dir := t.TempDir()
	if err := store.Save(serial, dir); err != nil {
		t.Fatal(err)
	}
	cached, err := store.OpenCached(dir, store.NewSegCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	uncached, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()
	for where, shared := range map[string]*core.UDB{"in memory": tpchDB(t, 0.05, 0.1, 1), "stored, cached": cached, "stored, uncached": uncached} {
		errs := make(chan error, 4*len(names))
		for g := 0; g < 4; g++ {
			go func(g int) {
				for k := range names {
					name := names[(g+k)%len(names)]
					rel, err := shared.EvalPoss(tpch.Queries()[name], engine.ExecConfig{})
					if err == nil && !rel.EqualAsBag(want[name]) {
						err = fmt.Errorf("%s %s: %d rows, %d run alone in memory", where, name, rel.Len(), want[name].Len())
					}
					errs <- err
				}
			}(g)
		}
		for i := 0; i < cap(errs); i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}

// TestStitchFindsRowsByPosition pins how a stitch finds a tuple id's
// rows, in memory and over stored partitions alike: every stitch of
// Q1–Q3 that emits a row asks each input but the one it drives by for
// tuple ids (tids_looked_up) rather than reading it, and reads that one
// alone — the plan's driver, or in memory an input whose key list found
// its rows in a value-order run (driven_by_keys), which reads no more
// driver rows than the list found (rows_found_by_keys), as some stitch
// of Q1 and of Q3 does; and no store scan under a stitch reads more
// segments than its partition has.
func TestStitchFindsRowsByPosition(t *testing.T) {
	mem, stored, _ := indexedPlanningData(t, 0.25)
	for _, name := range []string{"Q1", "Q2", "Q3"} {
		for where, db := range map[string]*core.UDB{"in memory": mem, "stored": stored} {
			plan, _, root, text := analyzePlan(t, name, db, tpch.Queries()[name])
			stitches, byKeys := 0, 0
			var walk func(p engine.Plan, s *obs.Span, under bool)
			walk = func(p engine.Plan, s *obs.Span, under bool) {
				kids := planKids(t, p, s)
				st, ok := p.(*engine.StitchPlan)
				if ok && s.Rows() > 0 {
					stitches++
					driver := st.Driver
					if s.Stat("driven_by_keys") > 0 {
						byKeys++
						var found int64
						driver = slices.IndexFunc(s.Children(), func(c *obs.Span) bool { return c.Stat("tids_looked_up") == 0 })
						for c := s.Children()[max(driver, 0):]; len(c) > 0; c = c[0].Children() {
							found = max(found, c[0].Stat("rows_found_by_keys"))
						}
						if driver < 0 || s.Stat("driver_rows") > found {
							t.Errorf("%s %s: %q drove by input %d's keys, reading %d driver rows, and its list found %d:\n%s", name, where, s.Op(), driver, s.Stat("driver_rows"), found, text)
						}
					}
					for i, c := range s.Children() {
						if asked := c.Stat("tids_looked_up"); (asked > 0) == (i == driver) {
							t.Errorf("%s %s: %q: input %d (the driver is %d) was asked for %d tuple ids:\n%s", name, where, s.Op(), i, driver, asked, text)
						}
					}
				}
				if op := s.Op(); under && strings.HasPrefix(op, "Store Scan") {
					var unpruned, total int64
					if _, err := fmt.Sscanf(op[strings.Index(op, "(")+1:], "%d/%d segments", &unpruned, &total); err != nil {
						t.Fatal(err)
					}
					if s.Stat("segments_read") > total {
						t.Errorf("%s %s: %q read %d segments of %d:\n%s", name, where, op, s.Stat("segments_read"), total, text)
					}
				}
				for i, c := range s.Children() {
					walk(kids[i], c, under || ok)
				}
			}
			walk(plan, root, false)
			if stitches == 0 || (byKeys > 0) != (where == "in memory" && name != "Q2") {
				t.Errorf("%s %s: %d stitches emitted a row, %d driven by keys:\n%s", name, where, stitches, byKeys, text)
			}
		}
	}
}
