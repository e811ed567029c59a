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

// wideOpen is a store scan leaf whose iterator hides NarrowKeyRange: the
// same leaf with narrowing off.
type wideOpen struct{ *store.StoreScanPlan }

func (w wideOpen) BuildIter(cfg engine.ExecConfig) (engine.Iterator, error) {
	it, err := w.StoreScanPlan.BuildIter(cfg)
	if err != nil {
		return nil, err
	}
	return struct{ engine.Iterator }{it}, nil
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
// rows live in the memtable, so they are the join's build side, and its
// tid keys come out of the memtable as ints: the merge is a hash join
// that hands its probe scan the keys' range, which leaves every file
// segment unread and serves of the probe side's own memtable only the
// rows in range — it probes exactly the rows that join. The answer is
// the same plan's with narrowing off.
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
	if len(joins) != 1 || joins[0].Op() != "Hash Join" {
		t.Fatalf("want one Hash Join merging p's partitions:\n%s", res.Text)
	}
	join := joins[0]
	if join.Rows() != 3 || join.Stat("probe_rows") != join.Rows() {
		t.Fatalf("the merge joined %d rows and probed %d, want 3 and 3:\n%s", join.Rows(), join.Stat("probe_rows"), res.Text)
	}
	probe := join.Children()[1]
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
	want, err := engine.Run(wrapScans(plan, func(s *store.StoreScanPlan) engine.Plan { return wideOpen{s} }), cat, engine.ExecConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 3 || !got.EqualAsBag(want) {
		t.Fatalf("narrowed: %d rows %v; narrowing off: %d rows %v", got.Len(), got.Rows, want.Len(), want.Rows)
	}
}
