package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/tpch"
	"urel/internal/ws"
)

// TestRecycledSegmentsAreNeverRead runs the stored workloads' queries on
// the s 0.25 directory with every buffer a scan hands back overwritten
// (PoisonRecycled): Q1–Q3, point lookups without the l_orderkey index
// and with it, a join without an equi pair over store scans (the hash
// join on the empty key), and the same over a segment cache, twice.
// Each answer must be the in-memory one, and the indexed point lookups
// must skip segments by the stitch's keys:
// no cell of a segment is read after the scan that owns it recycled it,
// and no segment a cache keeps is recycled. A scan opened again before
// it is closed must keep the batches it served: a consumer may hold
// them until it closes the scan.
func TestRecycledSegmentsAreNeverRead(t *testing.T) {
	defer PoisonRecycled()()
	p := tpch.DefaultParams(0.25, 0.01, 0.25)
	p.Seed = 1
	mem, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]core.Query{"Q1": tpch.Q1(), "Q2": tpch.Q2(), "Q3": tpch.Q3(),
		"keyless join": core.Poss(core.Project(core.Join(core.Rel("nation"),
			core.Select(core.Rel("orders"), engine.Cmp(engine.LT, engine.Col("o_orderkey"), engine.ConstInt(200))),
			engine.Cmp(engine.LT, engine.Col("n_nationkey"), engine.Col("o_custkey"))), "n_name", "o_orderkey"))}
	for _, key := range []int64{1, 77, 1000, 3000} {
		queries[fmt.Sprintf("point %d", key)] = pointLookup(key)
	}
	want := map[string]*engine.Relation{}
	for name, q := range queries {
		if want[name], err = mem.EvalPoss(q, engine.ExecConfig{}); err != nil {
			t.Fatalf("%s in memory: %v", name, err)
		}
	}
	check := func(layout string, db *core.UDB) {
		t.Helper()
		for name, q := range queries {
			got, err := db.EvalPoss(q, engine.ExecConfig{})
			if err != nil {
				t.Fatalf("%s over %s: %v", name, layout, err)
			}
			if !got.EqualAsSet(want[name]) {
				t.Errorf("%s over %s: %d answers, in memory %d", name, layout, got.Len(), want[name].Len())
			}
		}
	}
	open := func(dir string, cache *SegCache) *core.UDB {
		t.Helper()
		db, err := OpenCached(dir, cache)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}

	dir := t.TempDir()
	if err := Save(mem, dir); err != nil {
		t.Fatal(err)
	}
	check("unindexed files", open(dir, nil))
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range m.Relations {
		if m.Relations[ri].Name == "lineitem" {
			m.Relations[ri].Indexes = []string{"l_orderkey"}
		}
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	buildOrderKeyRun(t, dir)
	db := open(dir, nil)
	check("indexed files", db)
	var skipped int64
	for _, key := range []int64{1, 77, 1000, 3000} {
		res, err := db.ExplainAnalyze(pointLookup(key), false, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		skipped += skippedByJoin(res.Trace)
	}
	if skipped == 0 {
		t.Error("no indexed point lookup skipped a segment by a join's keys")
	}
	cached := open(dir, NewSegCache(256<<20))
	check("a segment cache", cached)
	check("a warm segment cache", cached)

	src := db.Rels["orders"].Parts[0].Back.(*PartSource)
	w := src.DescriptorWidth()
	it := &StoreScanIter{Src: src, Sch: widthSchema(w), Width: w, AttrIdx: []int{0}}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	var held []engine.ColBatch
	var first []engine.Tuple
	for {
		cb, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		held = append(held, engine.ColBatch{Sch: cb.Sch, Cols: append([]engine.ColVec(nil), cb.Cols...), N: cb.N, Sel: append([]int32(nil), cb.Sel...)})
		first = cb.Materialize(first)
	}
	read := it.SegmentsRead
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	var again []engine.Tuple
	for _, cb := range held {
		again = cb.Materialize(again)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if read == 0 || len(again) != len(first) {
		t.Fatalf("the scan read %d segments, its batches held %d rows of %d", read, len(again), len(first))
	}
	for i := range first {
		for c := range first[i] {
			if engine.Compare(first[i][c], again[i][c]) != 0 {
				t.Fatalf("row %d of a scan opened again changed: %v, served as %v", i, again[i], first[i])
			}
		}
	}
}

// buildOrderKeyRun builds the run of l_orderkey beside its partition
// file in dir.
func buildOrderKeyRun(t *testing.T, dir string) {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range m.Relations {
		for _, mp := range mr.Parts {
			for ai, a := range mp.Attrs {
				if a != "l_orderkey" {
					continue
				}
				h, err := OpenPart(filepath.Join(dir, mp.File))
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				if err := BuildLayerIndex(h, ai); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Fatal("no l_orderkey partition")
}

// pointLookup is the stored workloads' point class: two attributes of
// the lineitems of one order, found through the l_orderkey index.
func pointLookup(key int64) core.Query {
	return core.Poss(core.Project(core.Select(core.Rel("lineitem"),
		engine.Eq(engine.Col("l_orderkey"), engine.ConstInt(key))), "l_extendedprice", "l_quantity"))
}

// skippedByJoin sums segments_skipped_by_join over a span tree.
func skippedByJoin(s *obs.Span) int64 {
	n := s.Stat("segments_skipped_by_join")
	for _, c := range s.Children() {
		n += skippedByJoin(c)
	}
	return n
}

// TestWholeFileReadsKeepNoPooledBytes opens one directory from four
// goroutines at once, with every read buffer poisoned when it goes back
// to the pool (PoisonRecycled). The directory holds an index run, a live
// WAL and a world table with a named variable, a distribution and a
// domain that is not 1..k. Every manifest, world table and run the
// goroutines decode must still equal the file it was read from, read
// afresh: no decoder keeps a byte of the pooled buffer. CI runs it under
// -race, ten times.
func TestWholeFileReadsKeepNoPooledBytes(t *testing.T) {
	dir, run := savedTPCH(t, 0.05)
	w, err := ReadWorldTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendVar("guard", []ws.Val{3, 1, 2}, []float64{0.5, 0.25, 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(filepath.Join(dir, WorldsName), EncodeWorldTable(w)); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	mr := m.Relations[0]
	src, err := OpenPartLayers(dir, mr.Parts[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := src.Load()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	row.TID = mr.MaxTID + 1
	m.WAL = WALFileName(1)
	wal, err := CreateWAL(filepath.Join(dir, m.WAL))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(EncodeWALRecord([]WALOp{{Rel: mr.Name, Rows: []core.URow{row}}})); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	file := func(name string) []byte {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wantMan, err := ParseManifest(file(filepath.Join(dir, CatalogName)))
	if err != nil {
		t.Fatal(err)
	}
	worlds, runFile := file(filepath.Join(dir, WorldsName)), file(run)

	defer PoisonRecycled()()
	type decoded struct {
		m *Manifest
		w *ws.WorldTable
		r *idxRun
	}
	got := make([][]decoded, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				db, err := Open(dir)
				if err != nil {
					t.Error(err)
					return
				}
				db.Close()
				m, err := ReadManifest(dir)
				if err != nil {
					t.Error(err)
					return
				}
				r, err := readFile(run, decodeRun)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], decoded{m, db.W, r})
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for _, d := range got[g] {
			if !reflect.DeepEqual(d.m, wantMan) {
				t.Fatalf("goroutine %d: a manifest changed after its read buffer went back to the pool", g)
			}
			if !bytes.Equal(EncodeWorldTable(d.w), worlds) {
				t.Fatalf("goroutine %d: a world table changed after its read buffer went back to the pool", g)
			}
			if !bytes.Equal(d.r.encode(), runFile) {
				t.Fatalf("goroutine %d: a run changed after its read buffer went back to the pool", g)
			}
		}
	}
}
