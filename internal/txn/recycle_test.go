package txn

import (
	"fmt"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
	"urel/internal/tpch"
)

// TestRecycledSegmentsAreNeverReadAfterDML is the store's
// TestRecycledSegmentsAreNeverRead over a catalog the write path changed:
// deletes and updates flushed into a delta layer beside the tombstones of
// the rows they removed, then more of both left in the memtable. With
// every buffer a scan hands back poisoned (store.PoisonRecycled), Q1–Q3
// and point lookups through the l_orderkey index over the writer's
// snapshot — no segment cache, so each scan owns what it decodes —
// answer as the same catalog materialized in memory.
func TestRecycledSegmentsAreNeverReadAfterDML(t *testing.T) {
	p := tpch.DefaultParams(0.25, 0.01, 0.25)
	p.Seed = 1
	gen, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(gen, dir); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	for _, sql := range []string{
		"create index on lineitem(l_orderkey)",
		"delete from lineitem where l_orderkey between 1 and 40",
		"update orders set o_shippriority = 1 where o_orderkey < 300",
		"update lineitem set l_quantity = 2 where l_orderkey between 50 and 60",
		"flush",
		"delete from lineitem where l_orderkey between 70 and 80",
		"update lineitem set l_quantity = 3 where l_orderkey between 100 and 120",
	} {
		if sql == "flush" {
			err = d.Flush()
		} else {
			_, err = d.Exec(sql)
		}
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	defer store.PoisonRecycled()()
	mem, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.Materialize(); err != nil {
		t.Fatal(err)
	}
	queries := map[string]core.Query{"Q1": tpch.Q1(), "Q2": tpch.Q2(), "Q3": tpch.Q3()}
	for _, key := range []int64{7, 77, 110, 1000} {
		queries[fmt.Sprintf("point %d", key)] = core.Poss(core.Project(core.Select(core.Rel("lineitem"),
			engine.Eq(engine.Col("l_orderkey"), engine.ConstInt(key))), "l_extendedprice", "l_quantity"))
	}
	snap := d.Snapshot()
	var layered, tombed, tail bool
	for _, p := range snap.Rels["lineitem"].Parts {
		src := p.Back.(*store.PartSource)
		layered, tombed, tail = layered || len(src.Layers) > 1, tombed || src.Tomb != nil, tail || len(src.Mem) > 0
	}
	if !layered || !tombed || !tail {
		t.Fatalf("lineitem: delta layer %v, tombstones %v, memtable rows %v; want all three", layered, tombed, tail)
	}
	for name, q := range queries {
		want, err := mem.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("%s in memory: %v", name, err)
		}
		got, err := snap.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.EqualAsSet(want) {
			t.Errorf("%s: %d answers, in memory %d", name, got.Len(), want.Len())
		}
	}
}
