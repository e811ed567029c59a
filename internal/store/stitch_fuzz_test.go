package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// FuzzStoredStitch holds the stitch over stored partitions, whose scans
// it asks for rows by tuple id (StoreScanIter's lookup), to the same
// live rows stitched in memory and to the chain of tid hash joins, each
// step filtered by ψ. It draws two to four partitions of one relation
// over the tuple ids 1…n, each saved in one or two file layers (the
// second reinserting tuple ids of the first) cut into segments of a
// drawn size — with up to three alternatives per tuple id, so a tuple's
// rows straddle segment boundaries — with a run of its value column,
// tombstone batches and an in-memory delta. Each input is read under a
// drawn filter, an equality on its value column among them, which the
// scan serves as an index probe where the zone maps leave two segments or
// more; the driver is drawn too. Half of the
// time the stitch is the probe side of a hash join whose build keys —
// on a partition's value column or tuple id — it receives as a list.
// Every buffer a scan hands back is poisoned (PoisonRecycled). Run it
// with
//
//	go test -run=NONE -fuzz='^FuzzStoredStitch$' -fuzztime=10s -fuzzminimizetime=1s ./internal/store
func FuzzStoredStitch(f *testing.F) {
	defer PoisonRecycled()()
	f.Add(int64(1), uint8(0), uint16(60), uint8(4))   // two partitions, small segments
	f.Add(int64(2), uint8(1), uint16(300), uint8(17)) // three partitions
	f.Add(int64(3), uint8(2), uint16(500), uint8(64)) // four partitions, large segments
	f.Add(int64(7), uint8(0), uint16(9), uint8(1))    // a segment per row
	f.Fuzz(func(t *testing.T, seed int64, k uint8, n uint16, seg uint8) {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		nparts, ntids, segRows := 2+int(k%3), 1+int64(n%600), 1+int(seg%80)
		type part struct {
			src   *PartSource
			live  []core.URow
			width int
			sch   engine.Schema
			cond  engine.Expr
			probe bool // cond is an equality the scan serves by its index
		}
		parts := make([]part, nparts)
		for p := range parts {
			pt := &parts[p]
			pt.src = storedPartition(t, rng, dir, p, ntids, segRows)
			live, err := pt.src.Load()
			if err != nil {
				t.Fatal(err)
			}
			pt.live, pt.width = live, pt.src.DescriptorWidth()
			var cols []engine.Column
			for d := 0; d < pt.width; d++ {
				cols = append(cols, engine.Column{Name: fmt.Sprintf("p%d.d%dv", p, d), Kind: engine.KindInt},
					engine.Column{Name: fmt.Sprintf("p%d.d%dr", p, d), Kind: engine.KindInt})
			}
			pt.sch = engine.NewSchema(append(cols, engine.Column{Name: fmt.Sprintf("tid:p%d", p), Kind: engine.KindInt},
				engine.Column{Name: fmt.Sprintf("p%d.a", p), Kind: engine.KindInt})...)
			switch a := engine.Col(fmt.Sprintf("p%d.a", p)); rng.Intn(4) {
			case 0:
				pt.cond = engine.Cmp(engine.LT, a, engine.ConstInt(int64(rng.Intn(12))))
			case 1:
				pt.cond, pt.probe = engine.Eq(a, engine.ConstInt(int64(rng.Intn(12)))), true
			}
		}
		stored := func(p int) engine.Iterator {
			pt := &parts[p]
			plan := pt.src.ScanPlan(pt.sch, pt.width, []int{0}, fmt.Sprintf("u_p%d", p)).(*StoreScanPlan)
			if pt.cond != nil {
				plan.AdviseFilter(pt.cond)
			}
			if (plan.probe != nil) != (pt.probe && segmentsLeft(pt.src.Layers, plan.pruned) > 1) {
				t.Fatalf("partition %d under %v: probe %v", p, pt.cond, plan.probe)
			}
			it, err := plan.BuildIter(engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if pt.cond != nil {
				it = engine.NewFilter(it, pt.cond)
			}
			return it
		}
		inMemory := func(p int) engine.Iterator {
			pt := &parts[p]
			cols := core.EncodeRows(pt.live, pt.width, 1)
			leaf := &engine.ValuesPlan{Batch: &engine.ColBatch{Sch: pt.sch, Cols: cols, N: len(pt.live)}, Sorted: fmt.Sprintf("tid:p%d", p)}
			var plan engine.Plan = leaf
			if pt.cond != nil {
				plan = engine.Filter(leaf, pt.cond)
			}
			it, err := engine.Build(plan, engine.NewCatalog(), engine.ExecConfig{DisableOptimizer: true})
			if err != nil {
				t.Fatal(err)
			}
			return it
		}
		var tids []string
		var psi, all []engine.Expr
		for p := range parts {
			tids = append(tids, fmt.Sprintf("tid:p%d", p))
			var step []engine.Expr
			for q := 0; q < p; q++ {
				for i := 0; i < parts[q].width; i++ {
					for j := 0; j < parts[p].width; j++ {
						step = append(step, engine.Or(
							engine.Cmp(engine.NE, engine.Col(fmt.Sprintf("p%d.d%dv", q, i)), engine.Col(fmt.Sprintf("p%d.d%dv", p, j))),
							engine.Cmp(engine.EQ, engine.Col(fmt.Sprintf("p%d.d%dr", q, i)), engine.Col(fmt.Sprintf("p%d.d%dr", p, j)))))
					}
				}
			}
			all = append(all, step...)
			psi = append(psi, nil)
			if len(step) > 0 {
				psi[p] = engine.And(step...)
			}
		}
		var cond engine.Expr
		if len(all) > 0 {
			cond = engine.And(all...)
		}
		driver := rng.Intn(nparts)
		stitch := func(input func(int) engine.Iterator) engine.Iterator {
			ins := make([]engine.Iterator, nparts)
			for p := range ins {
				ins[p] = input(p)
			}
			return engine.NewStitch(ins, tids, cond, driver, nil)
		}
		chain := func() engine.Iterator { // its inputs narrow nothing
			ref := engine.Iterator(struct{ engine.Iterator }{inMemory(0)})
			for p := 1; p < nparts; p++ {
				ref = engine.NewHashJoin(ref, struct{ engine.Iterator }{inMemory(p)}, []engine.EquiPair{{L: tids[0], R: tids[p]}}, nil, nil)
				if psi[p] != nil {
					ref = engine.NewFilter(ref, psi[p])
				}
			}
			return ref
		}
		drain := func(it engine.Iterator) *engine.Relation {
			rel, err := engine.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			return rel
		}
		what := fmt.Sprintf("%d partitions over %d tuple ids in segments of %d rows, driver %d", nparts, ntids, segRows, driver)
		if rng.Intn(2) == 0 {
			got, mem, want := drain(stitch(stored)), drain(stitch(inMemory)), drain(chain())
			if !got.EqualAsBag(mem) || !got.EqualAsBag(want) {
				t.Fatalf("%s: the stored stitch gives %d rows, in memory %d, the hash chain %d", what, got.Len(), mem.Len(), want.Len())
			}
			return
		}
		key := fmt.Sprintf("p%d.a", rng.Intn(nparts))
		if rng.Intn(3) == 0 {
			key = tids[rng.Intn(nparts)]
		}
		var keys []int64
		var nulls []bool
		for i := rng.Intn(10); i > 0; i-- {
			x := int64(rng.Intn(12))
			if key[0] == 't' {
				x = 1 + rng.Int63n(ntids)
			}
			keys, nulls = append(keys, x), append(nulls, rng.Intn(8) == 0)
		}
		join := func(probe engine.Iterator) *engine.Relation {
			build := &engine.ValuesPlan{Batch: &engine.ColBatch{
				Sch:  engine.NewSchema(engine.Column{Name: "b.k", Kind: engine.KindInt}),
				Cols: []engine.ColVec{engine.IntVec(keys, nulls)},
				N:    len(keys),
			}}
			it, err := engine.Build(build, engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return drain(engine.NewHashJoin(it, probe, []engine.EquiPair{{L: "b.k", R: key}}, nil, nil))
		}
		got, mem, want := join(stitch(stored)), join(stitch(inMemory)), join(chain())
		if !got.EqualAsBag(mem) || !got.EqualAsBag(want) {
			t.Fatalf("%s, keys %v (nulls %v) on %s: the join over the stored stitch gives %d rows, in memory %d, over the hash chain %d", what, keys, nulls, key, got.Len(), mem.Len(), want.Len())
		}
	})
}

// storedPartition saves partition p of a relation over the tuple ids
// 1…n in dir: a base file layer of none to three alternatives per tuple
// id — descriptors over three variables, a value from 0…11 or NULL —
// and half of the time a delta layer reinserting some tuple ids, each
// layer with the run of its value column and in segments of segRows
// rows, or a drawn size half of the time; half of the time a layer is
// under a tombstone batch, and now and then rows sit in the in-memory
// delta.
func storedPartition(t *testing.T, rng *rand.Rand, dir string, p int, n int64, segRows int) *PartSource {
	t.Helper()
	row := func(tid int64) core.URow {
		r := core.URow{TID: tid, Vals: []engine.Value{engine.Int(int64(rng.Intn(12)))}}
		if rng.Intn(10) == 0 {
			r.Vals[0] = engine.Null()
		}
		if rng.Intn(2) == 0 {
			r.D = ws.MustDescriptor(ws.A(ws.Var(1+rng.Intn(3)), ws.Val(1+rng.Intn(2))))
		}
		return r
	}
	layers := [][]core.URow{nil}
	for tid := int64(1); tid <= n; tid++ {
		for alts := rng.Intn(4); alts > 0; alts-- {
			layers[0] = append(layers[0], row(tid))
		}
	}
	if rng.Intn(2) == 0 {
		var delta []core.URow
		for i := rng.Intn(12); i > 0; i-- {
			delta = append(delta, row(1+rng.Int63n(n)))
		}
		layers = append(layers, delta)
	}
	src := &PartSource{IdxCols: []int{0}}
	var batches []TombBatch
	for li, rows := range layers {
		if len(rows) == 0 {
			continue
		}
		file := fmt.Sprintf("p%d_l%d.useg", p, li)
		size := segRows
		if rng.Intn(2) == 0 {
			size = 1 + rng.Intn(2*segRows)
		}
		if _, err := WritePartition(filepath.Join(dir, file), rows, 1, size); err != nil {
			t.Fatal(err)
		}
		if err := WritePartIndexes(dir, file, rows, []int{0}, size); err != nil {
			t.Fatal(err)
		}
		h, err := OpenPart(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		src.Layers = append(src.Layers, h)
		if rng.Intn(2) == 0 {
			var tombs []WALTomb
			for i := 1 + rng.Intn(8); i > 0; i-- {
				r := rows[rng.Intn(len(rows))]
				tombs = append(tombs, WALTomb{TID: r.TID, D: r.D, Wild: rng.Intn(2) == 0})
			}
			batches = append(batches, NewTombBatch(tombs, len(src.Layers)))
		}
	}
	if len(batches) > 0 {
		src.Tomb = NewTombView(batches)
	}
	for i := rng.Intn(6) - 2; i > 0; i-- {
		src.Mem = append(src.Mem, row(1+rng.Int63n(n+3)))
	}
	return src
}
