package txn

import (
	"fmt"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/sqlparse"
	"urel/internal/store"
)

// noAdvice is a store scan leaf that ignores zone-map advice: the same
// leaf with pruning off.
type noAdvice struct{ *store.StoreScanPlan }

func (noAdvice) AdviseFilter(engine.Expr) {}

// TestRangeReadPrunesUnderOr is served_rw's range read on a partition
// written as served_rw writes: 64-row inserts of fresh keys, an update of
// half of them, their delete four cycles later, a flush per cycle and a
// compaction per four. The read's predicate is an OR of two ranges, one
// in the saved rows and one over the last three cycles' keys; the base
// segments past the first range and the delta layers of older cycles
// are refuted by both arms, so the scan prunes them. The answer is a
// fresh plan's with pruning off.
func TestRangeReadPrunesUnderOr(t *testing.T) {
	const n, rows, lag = 10000, 64, 4
	db := core.NewUDB()
	db.MustAddRelation("p", "k", "v")
	pk := db.MustAddPartition("p", "u_p_k", "k")
	pv := db.MustAddPartition("p", "u_p_v", "v")
	for i := int64(1); i <= n; i++ {
		pk.Add(nil, i, engine.Int(i))
		pv.Add(nil, i, engine.Int(7*i))
	}
	dir := t.TempDir()
	if err := store.Save(db, dir); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	key := func(cycle int) int { return 10_000_000 + rows*cycle }
	const cycles = 10
	for cycle := 0; cycle < cycles; cycle++ {
		k := key(cycle)
		var vals []string
		for r := 0; r < rows; r++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", k+r, r))
		}
		stmts := []string{
			"insert into p (k, v) values " + strings.Join(vals, ", "),
			fmt.Sprintf("update p set v = %d where k between %d and %d", 500000+cycle, k, k+rows/2-1),
		}
		if cycle >= lag {
			stmts = append(stmts, fmt.Sprintf("delete from p where k between %d and %d", key(cycle-lag), key(cycle-lag)+rows-1))
		}
		for _, sql := range stmts {
			if _, err := d.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		maintain := d.Flush
		if cycle%4 == 3 {
			maintain = d.Compact
		}
		if err := maintain(); err != nil {
			t.Fatal(err)
		}
	}
	// One more cycle's insert, left in the memtable.
	if _, err := d.Exec(fmt.Sprintf("insert into p (k, v) values (%d, 1), (%d, 2)", key(cycles), key(cycles)+1)); err != nil {
		t.Fatal(err)
	}

	parsed, err := sqlparse.Parse(fmt.Sprintf("possible select k, v from p where (k between 11 and 15) or (k between %d and %d)",
		key(cycles-2), key(cycles)+rows-1))
	if err != nil {
		t.Fatal(err)
	}
	q := parsed.Query
	snap := d.Snapshot()
	res, err := snap.ExplainAnalyze(q, false, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var pruned int64
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if strings.HasPrefix(s.Op(), "Store Scan") {
			pruned += s.Stat("segments_pruned")
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(res.Trace)
	if pruned == 0 {
		t.Fatalf("no segment pruned:\n%s", res.Text)
	}

	got, err := snap.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := snap.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(wrapScans(plan, func(s *store.StoreScanPlan) engine.Plan { return noAdvice{s} }), engine.NewCatalog(), engine.ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	// Five saved rows, the two cycles still flushed and the memtable's two.
	if want.Len() != 5+2*rows+2 || !got.EqualAsBag(want) {
		t.Fatalf("pruned: %d rows; pruning off: %d rows, want %d\n%s", got.Len(), want.Len(), 5+2*rows+2, res.Text)
	}
	t.Logf("%d segments pruned", pruned)
}
