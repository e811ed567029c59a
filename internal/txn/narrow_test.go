package txn

import (
	"fmt"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/store"
)

// wideOpen is a store scan leaf whose iterator hides NarrowKeys: the
// same leaf with narrowing off. It forwards lookups, which a stitch
// finds rows by.
type wideOpen struct{ *store.StoreScanPlan }

func (w wideOpen) BuildIter(cfg engine.ExecConfig) (engine.Iterator, error) {
	it, err := w.StoreScanPlan.BuildIter(cfg)
	if err != nil {
		return nil, err
	}
	return lookupOnly{it}, nil
}

// lookupOnly is a store scan that answers Next and lookups, and takes no
// keys.
type lookupOnly struct{ engine.Iterator }

func (l lookupOnly) Lookup(col int) func([]int64, []int32) (*engine.ColBatch, error) {
	return l.Iterator.(engine.RowLookup).Lookup(col)
}

// wrapScans returns p with every store scan leaf replaced by wrap's.
func wrapScans(p engine.Plan, wrap func(*store.StoreScanPlan) engine.Plan) engine.Plan {
	if s, ok := p.(*store.StoreScanPlan); ok {
		return wrap(s)
	}
	kids := p.Children()
	if len(kids) == 0 {
		return p
	}
	out := make([]engine.Plan, len(kids))
	for i, c := range kids {
		out[i] = wrapScans(c, wrap)
	}
	return p.WithChildren(out)
}

// TestMemtableBuildSideNarrowsProbe is a served read-after-write point
// query: rows inserted and not flushed, selected on a value, then merged
// on the tid with the other partition of their relation, flushed and
// compacted into segment files (which carry tid runs). The selection's
// rows live in the memtable, and the merge is a stitch driven by the
// selected partition: it hands the other scan the driver's tid range,
// which leaves every file segment unread and serves of that scan's own
// memtable only the rows in range — it reads exactly the rows that
// join. The answer is the same plan's with narrowing off. Then UPDATEs
// reinsert tuple ids inside the file layers' range — in the memtable,
// then flushed into a delta layer of their own beside the tombstones of
// the rows they replace — and the stitch over those layouts answers as
// the same plan with narrowing off and as the statements say.
func TestMemtableBuildSideNarrowsProbe(t *testing.T) {
	const n = 10000
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
	insert := func(k0, rows int) {
		t.Helper()
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, %d)", k0+i, 100+i)
		}
		if _, err := d.Exec("insert into p (k, v) values " + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	insert(n+1, 10)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	insert(n+11, 10)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// The memtable: the three rows of key 50000 between rows of other keys.
	insert(30000, 40)
	if _, err := d.Exec("insert into p (k, v) values (50000, 1), (50000, 2), (50000, 3)"); err != nil {
		t.Fatal(err)
	}
	insert(40000, 40)

	q := core.Poss(core.Project(core.Select(core.Rel("p"),
		engine.Eq(engine.Col("k"), engine.ConstInt(50000))), "v"))
	snap := d.Snapshot()
	res, err := snap.ExplainAnalyze(q, false, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var joins []*obs.Span
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if strings.Contains(s.Op(), "Join") || strings.Contains(s.Op(), "Loop") {
			joins = append(joins, s)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(res.Trace)
	if len(joins) != 1 || !strings.HasPrefix(joins[0].Op(), "Merge Join on tid (driver tid:p.p0)") {
		t.Fatalf("want one stitch merging p's partitions, driven by u_p_k:\n%s", res.Text)
	}
	join := joins[0]
	probe := join.Children()[1]
	if join.Rows() != 3 || join.Stat("driver_rows") != 3 || probe.Rows() != 3 {
		t.Fatalf("the stitch joined %d rows of %d driver rows, reading %d other rows, want 3, 3 and 3:\n%s", join.Rows(), join.Stat("driver_rows"), probe.Rows(), res.Text)
	}
	for !strings.HasPrefix(probe.Op(), "Store Scan") {
		probe = probe.Children()[0]
	}
	var unpruned, total int
	if _, err := fmt.Sscanf(probe.Op()[strings.Index(probe.Op(), "(")+1:], "%d/%d segments", &unpruned, &total); err != nil {
		t.Fatal(err)
	}
	if unpruned < 2 || probe.Stat("segments_read") != 0 || probe.Stat("segments_skipped_by_join") != int64(unpruned) {
		t.Fatalf("%q read %d segments and skipped %d, want 0 and all %d:\n%s",
			probe.Op(), probe.Stat("segments_read"), probe.Stat("segments_skipped_by_join"), unpruned, res.Text)
	}

	narrowedMatchesWide(t, snap, q, []int64{1, 2, 3})

	// UPDATEs reinsert tuple ids of the base layer: in the memtable, then
	// flushed into a delta layer, with another in the memtable above it.
	for _, sql := range []string{"update p set v = 8 where k = 5000", "update p set v = 9 where k = 6000"} {
		if _, err := d.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, flush := range []bool{false, true} {
		if flush {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Exec("update p set v = 10 where k = 7000"); err != nil {
				t.Fatal(err)
			}
		}
		for k, v := range map[int64]int64{5000: 8, 6000: 9, 4999: 7 * 4999} {
			q := core.Poss(core.Project(core.Select(core.Rel("p"), engine.Eq(engine.Col("k"), engine.ConstInt(k))), "v"))
			narrowedMatchesWide(t, d.Snapshot(), q, []int64{v})
		}
		want := map[int64]int64{5000: 8, 6000: 9}
		if flush {
			want[7000] = 10
		}
		var vs []int64
		for k := int64(1); k <= 7000; k++ {
			if v, ok := want[k]; ok {
				vs = append(vs, v)
			} else {
				vs = append(vs, 7*k)
			}
		}
		q := core.Poss(core.Project(core.Select(core.Rel("p"), engine.Cmp(engine.LE, engine.Col("k"), engine.ConstInt(7000))), "v"))
		narrowedMatchesWide(t, d.Snapshot(), q, vs)
	}
}

// narrowedMatchesWide runs q's optimized plan over snap, and the same
// plan with every scan's narrowing hidden: the two must agree, and give
// the answers want.
func narrowedMatchesWide(t *testing.T, snap *core.UDB, q core.Query, want []int64) {
	t.Helper()
	plan, _, err := snap.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	if plan, err = engine.Optimize(plan, cat); err != nil {
		t.Fatal(err)
	}
	got, err := engine.Run(plan, cat, engine.ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := engine.Run(wrapScans(plan, func(s *store.StoreScanPlan) engine.Plan { return wideOpen{s} }), cat, engine.ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsBag(wide) {
		t.Fatalf("%s: narrowed: %d rows %v; narrowing off: %d rows %v", q, got.Len(), got.Rows, wide.Len(), wide.Rows)
	}
	ref := engine.NewRelation(got.Sch)
	for _, v := range want {
		ref.Append(engine.Tuple{engine.Int(v)})
	}
	if !got.EqualAsSet(ref) {
		t.Fatalf("%s: %v, want %v", q, got.Rows, want)
	}
}
