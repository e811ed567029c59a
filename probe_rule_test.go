package urel_test

import (
	"fmt"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/store"
	"urel/internal/txn"
)

// TestProbeOnlyWhereZoneMapsLeaveSegments holds the probe rule on the
// stored workloads' data (s 0.25, x 0.01, z 0.25, seed 1) with
// lineitem(l_orderkey) and lineitem(l_partkey) indexed: a store scan
// probes an index only where the zone maps leave it two segments or
// more. l_orderkey ascends with the tuple ids, so a lookup of an order
// within one segment — the first, the benchmark's 77, the last, one
// absent inside the key range, one past it — consults no run, and one
// whose lineitems straddle a segment boundary probes the two segments
// the zone maps leave. l_partkey is spread over every segment, so a
// lookup of a part probes and reads only the segments its run locates
// the part's lineitems in. Every answer is the in-memory one.
func TestProbeOnlyWhereZoneMapsLeaveSegments(t *testing.T) {
	mem, dir := savedPlanningData(t, 0.25)
	rw, err := txn.Open(dir, txn.Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"l_orderkey", "l_partkey"} {
		if _, err := rw.Exec("create index on lineitem(" + col + ")"); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	stored := openPlanningData(t, dir)

	// lookup runs q over the stored copy and returns the scan of col's
	// partition, after checking the answers against memory's.
	lookup := func(q core.Query, col string) *obs.Span {
		t.Helper()
		got, err := stored.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mem.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("%s: %d answers stored, %d in memory", col, got.Len(), want.Len())
		}
		res, err := stored.ExplainAnalyze(q, false, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var scan *obs.Span
		var walk func(*obs.Span)
		walk = func(s *obs.Span) {
			if strings.HasPrefix(s.Op(), "Store Scan on u_lineitem_"+col+" ") {
				scan = s
			}
			for _, c := range s.Children() {
				walk(c)
			}
		}
		walk(res.Trace)
		if scan == nil {
			t.Fatalf("no scan of %s:\n%s", col, res.Text)
		}
		return scan
	}

	orders := sortedPart(mem, "l_orderkey")
	last := orders[len(orders)-1].Vals[0].AsInt()
	absent := orders[len(orders)/2].Vals[0].AsInt() + 1
	for _, r := range orders {
		if r.Vals[0].AsInt() == absent {
			absent++
		}
	}
	straddle := straddlingKey(t, mem)
	for _, key := range []int64{1, 77, last, absent, last + 100, straddle} {
		s := lookup(pointLookup(key), "l_orderkey")
		runs, segs := int64(0), int64(1)
		if key == straddle {
			runs, segs = 1, 2
		} else if key == last+100 {
			segs = 0
		}
		if probed := strings.Contains(s.Op(), ", index "); probed != (runs == 1) || s.Stat("index_runs_consulted") != runs || s.Stat("segments_read") > segs {
			t.Errorf("l_orderkey = %d: %q consulted %d runs and read %d segments, want %d and at most %d", key, s.Op(), s.Stat("index_runs_consulted"), s.Stat("segments_read"), runs, segs)
		}
	}

	// The part whose lineitems lie in the fewest segments, and those.
	parts := sortedPart(mem, "l_partkey")
	at := map[int64]map[int]bool{}
	for i, r := range parts {
		k := r.Vals[0].AsInt()
		if at[k] == nil {
			at[k] = map[int]bool{}
		}
		at[k][i/store.DefaultSegmentRows] = true
	}
	part := parts[0].Vals[0].AsInt()
	for k, segs := range at {
		if len(segs) < len(at[part]) || len(segs) == len(at[part]) && k < part {
			part = k
		}
	}
	q := core.Poss(core.Project(core.Select(core.Rel("lineitem"),
		engine.Eq(engine.Col("l_partkey"), engine.ConstInt(part))), "l_orderkey", "l_partkey"))
	s := lookup(q, "l_partkey")
	if !strings.Contains(s.Op(), fmt.Sprintf(", index lineitem.l_partkey = %d)", part)) || s.Stat("index_runs_consulted") != 1 || s.Stat("segments_read") != int64(len(at[part])) {
		t.Errorf("l_partkey = %d: %q consulted %d runs and read %d segments, want a probe of 1 reading the %d its run locates", part, s.Op(), s.Stat("index_runs_consulted"), s.Stat("segments_read"), len(at[part]))
	}
	t.Logf("l_partkey = %d: %s read %d segments", part, s.Op(), s.Stat("segments_read"))
}
