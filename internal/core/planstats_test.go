package core_test

import (
	"strings"
	"sync"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/tpch"
	"urel/internal/txn"
)

func genTPCH(t *testing.T, scale float64) *core.UDB {
	t.Helper()
	p := tpch.DefaultParams(scale, 0.05, 0.25)
	p.Seed = 11
	db, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// touchedPartitions counts the distinct partitions under q's leaves (a
// self-join scans one partition under two aliases).
func touchedPartitions(t *testing.T, db *core.UDB, q core.Query) int64 {
	t.Helper()
	plan, _, err := db.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string]bool{}
	var walk func(engine.Plan)
	walk = func(p engine.Plan) {
		if v, ok := p.(*engine.ValuesPlan); ok {
			name, _, _ := strings.Cut(v.Name, "#")
			parts[name] = true
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(plan)
	return int64(len(parts))
}

// scansDuring returns how many statistics scans f caused.
func scansDuring(t *testing.T, f func() error) int64 {
	t.Helper()
	before := engine.StatsScans()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return engine.StatsScans() - before
}

// TestPartitionStatisticsAreTakenOnce pins the caching contract of the
// in-memory partitions' statistics on the ComputeStats counter: one
// scan per touched partition on the first query that optimizes, none
// afterwards, none on paths that never optimize, a refresh of exactly
// the partitions whose rows a DML statement changed, and nothing shared
// with a clone.
func TestPartitionStatisticsAreTakenOnce(t *testing.T) {
	db := genTPCH(t, 0.02)
	q3 := tpch.Q3()
	touched := touchedPartitions(t, db, q3)
	if touched < 10 {
		t.Fatalf("Q3 touches %d partitions, expected its ten", touched)
	}
	eval := func(db *core.UDB, cfg engine.ExecConfig) func() error {
		return func() error { _, err := db.EvalPoss(q3, cfg); return err }
	}

	// Translating, and running without the optimizer, asks for nothing.
	if n := scansDuring(t, eval(db, engine.ExecConfig{DisableOptimizer: true})); n != 0 {
		t.Fatalf("an unoptimized run took statistics %d times", n)
	}
	if n := scansDuring(t, eval(db, engine.ExecConfig{})); n != touched {
		t.Fatalf("first optimized Q3 took statistics %d times, want once per touched partition (%d)", n, touched)
	}
	for i := 0; i < 9; i++ {
		if n := scansDuring(t, eval(db, engine.ExecConfig{})); n != 0 {
			t.Fatalf("run %d on an unchanged database took statistics %d times", i+2, n)
		}
	}
	// EXPLAIN rides on the same cache.
	if n := scansDuring(t, func() error { _, err := db.ExplainQuery(q3, true); return err }); n != 0 {
		t.Fatalf("Explain on an unchanged database took statistics %d times", n)
	}

	// A clone shares nothing: it takes its own, the original keeps its.
	clone := db.Clone()
	if n := scansDuring(t, eval(clone, engine.ExecConfig{})); n != touched {
		t.Fatalf("a clone's first Q3 took statistics %d times, want %d", n, touched)
	}
	if n := scansDuring(t, eval(db, engine.ExecConfig{})); n != 0 {
		t.Fatalf("querying a clone disturbed the original's statistics (%d scans)", n)
	}

	// An insert grows every partition of nation; Q3 reads two of them.
	st, err := sqlparse.ParseStatement("insert into nation (n_nationkey, n_name, n_regionkey) values (99, 'ATLANTIS', 1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Apply(db, st); err != nil {
		t.Fatal(err)
	}
	if n := scansDuring(t, eval(db, engine.ExecConfig{})); n != 2 {
		t.Fatalf("after an insert into nation Q3 took statistics %d times, want 2 (n_nationkey, n_name)", n)
	}
	if n := scansDuring(t, eval(db, engine.ExecConfig{})); n != 0 {
		t.Fatalf("the run after the refresh took statistics %d times", n)
	}
	if n := scansDuring(t, eval(clone, engine.ExecConfig{})); n != 0 {
		t.Fatalf("DML on the original disturbed the clone's statistics (%d scans)", n)
	}
}

// TestConcurrentEvalPossSharesStatistics: two goroutines querying one
// in-memory database race to take the same partitions' statistics; run
// under -race. Both get the serial answer, and each partition is still
// scanned once.
func TestConcurrentEvalPossSharesStatistics(t *testing.T) {
	db := genTPCH(t, 0.02)
	queries := []core.Query{tpch.Q1(), tpch.Q3()}
	want := make([]*engine.Relation, len(queries))
	ref := db.Clone()
	for i, q := range queries {
		var err error
		if want[i], err = ref.EvalPoss(q, engine.ExecConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	touched := touchedPartitions(t, db, queries[0]) + touchedPartitions(t, db, queries[1])
	before := engine.StatsScans()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for k := range queries {
					i := (k + g) % len(queries)
					got, err := db.EvalPoss(queries[i], engine.ExecConfig{})
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					if !got.EqualAsSet(want[i]) {
						t.Errorf("goroutine %d: query %d returned %d rows, want %d", g, i, got.Len(), want[i].Len())
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Q1 and Q3 share partitions (orders, customer, lineitem keys), so
	// the sum of the two is an upper bound.
	if n := engine.StatsScans() - before; n < 1 || n > touched {
		t.Fatalf("two concurrent readers took statistics %d times over at most %d partitions", n, touched)
	}
}

// TestStatisticsFollowAnEqualCountUpdate: an UPDATE through txn.Apply
// deletes k rows and appends k to the same backing array, so neither the
// partition's length nor its address shows the change. The statistics a
// leaf carries are the image's, and the image goes when the rows change:
// after an update that moves a column's maximum, the leaf reports the new
// bound and a range selection above the old one is estimated on it.
func TestStatisticsFollowAnEqualCountUpdate(t *testing.T) {
	db := core.NewUDB()
	db.MustAddRelation("t", "k", "v")
	u := db.MustAddPartition("t", "u_t", "k", "v")
	const n = 100
	for i := int64(1); i <= n; i++ {
		u.Add(nil, i, engine.Int(i), engine.Int(i))
	}
	above := core.Select(core.Rel("t"), engine.Cmp(engine.GT, engine.Col("t.v"), engine.ConstInt(500)))
	vStats := func() (max float64, estimate float64) {
		t.Helper()
		plan, _, err := db.Translate(above)
		if err != nil {
			t.Fatal(err)
		}
		var leaf *engine.ValuesPlan
		var walk func(engine.Plan)
		walk = func(p engine.Plan) {
			if v, ok := p.(*engine.ValuesPlan); ok {
				leaf = v
			}
			for _, c := range p.Children() {
				walk(c)
			}
		}
		walk(plan)
		if leaf == nil || leaf.Stats == nil {
			t.Fatal("the translated selection has no in-memory leaf with statistics")
		}
		sch, _ := leaf.Schema(nil)
		return leaf.Stats().Cols[sch.IndexOf("t.v")].Max.AsFloat(), engine.EstimateStats(plan, engine.NewCatalog()).Rows
	}
	if max, est := vStats(); max != n || est > 1 {
		t.Fatalf("before the update: max(v) = %g, %g rows estimated above 500; want %d and at most 1", max, est, n)
	}
	st, err := sqlparse.ParseStatement("update t set v = 1000 where k <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Apply(db, st); err != nil {
		t.Fatal(err)
	}
	if len(u.Rows) != n {
		t.Fatalf("the update left %d rows, want the %d it started with", len(u.Rows), n)
	}
	if max, est := vStats(); max != 1000 || est < 25 {
		t.Fatalf("after the update: max(v) = %g, %g rows estimated above 500; want 1000 and about 50", max, est)
	}
}
