package store

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// indexedLayer writes rows as a partition file with the run of
// attribute 0 beside it and opens a path-backed handle, so the lazy run
// loading in indexRun works.
func indexedLayer(t *testing.T, dir, file string, rows []core.URow, segRows int) *PartHandle {
	t.Helper()
	if _, err := WritePartition(filepath.Join(dir, file), rows, 1, segRows); err != nil {
		t.Fatal(err)
	}
	if err := WritePartIndexes(dir, file, rows, []int{0}, segRows); err != nil {
		t.Fatal(err)
	}
	h, err := OpenPart(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func intRows(keys []int64, tidBase int64) []core.URow {
	rows := make([]core.URow, len(keys))
	for i, k := range keys {
		rows[i] = core.URow{TID: tidBase + int64(i), Vals: []engine.Value{engine.Int(k)}}
	}
	return rows
}

func shuffledKeys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		// Odd multiplier coprime to n: a bijection, so keys are unique
		// and segment min/max stats are useless for pruning.
		keys[i] = int64((i * 2654435761) % n)
	}
	return keys
}

// probeScan runs Filter(col = k) over a fresh scan of src at descriptor
// width w, advised as Optimize advises it, and returns the answer and the
// scan that served it: a probe when src declares an index on the column
// and every layer has its run.
func probeScan(t *testing.T, src *PartSource, w int, col string, k engine.Value) (*engine.Relation, *StoreScanIter) {
	t.Helper()
	cond := engine.Eq(engine.Col(col), engine.Const(k))
	p := src.ScanPlan(widthSchema(w), w, []int{0}, "u_r_a").(*StoreScanPlan)
	p.AdviseFilter(cond)
	it, err := p.BuildIter(engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := engine.Drain(engine.NewFilter(it, cond))
	if err != nil {
		t.Fatal(err)
	}
	return rel, it.(*StoreScanIter)
}

// segmentsLeft is the number of file segments of layers that pruned
// leaves a scan to read, summed over the layers: a scan probes its index
// only where it is more than one.
func segmentsLeft(layers []*PartHandle, pruned [][]bool) int {
	n := -numPruned(pruned)
	for _, h := range layers {
		n += h.NumSegments()
	}
	return n
}

// relKeys is the sorted column col of rel.
func relKeys(rel *engine.Relation, col int) []int64 {
	out := make([]int64, 0, rel.Len())
	for _, r := range rel.Rows {
		out = append(out, r[col].I)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestIndexLookupMatchesScan compares the probed scan against the
// scan of the same layers without an index declared, over a
// multi-layer source with a memtable on top: every key must return the
// same rows. Where the zone maps leave two segments or more the scan
// probes, reading only the segments its runs locate rows in; where they
// leave one or none (900 and 901 lie past the base layer's bounds) it
// consults no run.
func TestIndexLookupMatchesScan(t *testing.T) {
	dir := t.TempDir()
	h1 := indexedLayer(t, dir, "l1.useg", intRows(shuffledKeys(500), 0), 64)
	h2 := indexedLayer(t, dir, "l2.useg", intRows([]int64{0, 3, 3, 7, 900}, 500), 64)
	src := &PartSource{
		Layers:   []*PartHandle{h1, h2},
		Mem:      intRows([]int64{3, 901}, 600),
		MemWidth: 0,
		IdxCols:  []int{0},
	}
	plain := &PartSource{Layers: src.Layers, Mem: src.Mem}
	for _, k := range []int64{0, 3, 7, 250, 499, 900, 901, 12345} {
		got, it := probeScan(t, src, 0, "r.a", engine.Int(k))
		want, _ := probeScan(t, plain, 0, "r.a", engine.Int(k))
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("k=%d: probe %v, scan %v", k, got.Rows, want.Rows)
		}
		if left := segmentsLeft(it.Src.Layers, it.Pruned); left < 2 {
			if it.Probe != nil || it.RunsConsulted != 0 || k < 900 {
				t.Fatalf("k=%d: %d segments left, probe %v consulted %d runs", k, left, it.Probe, it.RunsConsulted)
			}
		} else if it.Probe == nil || it.RunsConsulted != 2 || it.SegmentsRead > got.Len() {
			t.Fatalf("k=%d: probe %v consulted %d runs and read %d segments for %d rows", k, it.Probe, it.RunsConsulted, it.SegmentsRead, got.Len())
		}
	}
	// The tuple-id column has no run: an equality on it scans.
	if _, it := probeScan(t, src, 0, "tid:r.p0", engine.Int(502)); it.Probe != nil {
		t.Fatalf("an equality on the tuple id probed %v", it.Probe)
	}
}

// TestIndexProbeFromFilter: an equality on an indexed column in a
// filter over a store scan — the constant on either side, beside other
// conjuncts — makes the optimized scan a probe, shown on its EXPLAIN
// line, while the whole filter stays above it; the answers are the
// filter's over the scan of the same layer without the index.
func TestIndexProbeFromFilter(t *testing.T) {
	h := indexedLayer(t, t.TempDir(), "l.useg", intRows(shuffledKeys(500), 0), 64)
	plan := func(idx []int) engine.Plan {
		src := &PartSource{Layers: []*PartHandle{h}, IdxCols: idx}
		return engine.Filter(src.ScanPlan(scanSchema(), 0, []int{0}, "u_r_a"),
			engine.And(engine.Cmp(engine.NE, engine.Col("tid:r.p0"), engine.ConstInt(5)), engine.Eq(engine.ConstInt(7), engine.Col("r.a"))))
	}
	cat := engine.NewCatalog()
	text, err := engine.Explain(plan([]int{0}), cat, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Store Scan on u_r_a (5/8 segments, index r.a = 7)") || !strings.Contains(text, "Cond: (tid:r.p0 <> 5 AND 7 = r.a)") {
		t.Fatalf("the filter did not make the scan a probe under the whole of it:\n%s", text)
	}
	got, err := engine.Run(plan([]int{0}), cat, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(plan(nil), cat, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 1 || !got.EqualAsBag(want) {
		t.Fatalf("probe: %v, the filter over a scan %v", got.Rows, want.Rows)
	}
}

// TestIndexLookupRespectsTombstones asserts DML correctness: rows
// masked by a tombstone layer must not surface through the index path.
func TestIndexLookupRespectsTombstones(t *testing.T) {
	dir := t.TempDir()
	h := indexedLayer(t, dir, "l1.useg", intRows([]int64{1, 2, 3, 2}, 0), 2)
	src := &PartSource{
		Layers:  []*PartHandle{h},
		Tomb:    tombOf(map[int64]bool{1: true}), // tid 1 (key 2) dead
		IdxCols: []int{0},
	}
	rel, it := probeScan(t, src, 0, "r.a", engine.Int(2))
	if it.Probe == nil || rel.Len() != 1 || rel.Rows[0][0].I != 3 {
		t.Fatalf("tombstoned row leaked through the index: %v", rel.Rows)
	}
}

// tombOf deletes a fixed tid set from every layer (wildcards: any
// descriptor is deleted).
func tombOf(dead map[int64]bool) *TombView {
	var tombs []WALTomb
	for tid := range dead {
		tombs = append(tombs, WALTomb{TID: tid, Wild: true})
	}
	return NewTombView([]TombBatch{NewTombBatch(tombs, math.MaxInt32)})
}

// TestStaleIndexFallsBackToScan corrupts runs in both detectable ways —
// wrong segment count at load, wrong keys at probe — and requires the
// lookup to fall back to scanning with unchanged answers.
func TestStaleIndexFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	keys := shuffledKeys(300)
	rows := intRows(keys, 0)

	probe := func(h *PartHandle, k int64) []int64 {
		t.Helper()
		rel, _ := probeScan(t, &PartSource{Layers: []*PartHandle{h}, IdxCols: []int{0}}, 0, "r.a", engine.Int(k))
		return relKeys(rel, 1)
	}

	// Wrong segment count: runs built for 32-row segments, file written
	// with 64-row segments.
	if _, err := WritePartition(filepath.Join(dir, "a.useg"), rows, 1, 64); err != nil {
		t.Fatal(err)
	}
	if err := WritePartIndexes(dir, "a.useg", rows, []int{0}, 32); err != nil {
		t.Fatal(err)
	}
	h, err := OpenPart(filepath.Join(dir, "a.useg"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := probe(h, keys[17]); len(got) != 1 || got[0] != keys[17] {
		t.Fatalf("segment-count-stale lookup = %v, want [%d]", got, keys[17])
	}

	// Right shape, wrong contents: runs describe shifted keys, so the
	// per-row check at probe time must reject them, and the layer is
	// scanned whole.
	wrong := make([]int64, len(keys))
	for i, k := range keys {
		wrong[i] = k + 1
	}
	if _, err := WritePartition(filepath.Join(dir, "b.useg"), rows, 1, 64); err != nil {
		t.Fatal(err)
	}
	if err := WritePartIndexes(dir, "b.useg", intRows(wrong, 0), []int{0}, 64); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenPart(filepath.Join(dir, "b.useg"))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := probe(h2, keys[17]); len(got) != 1 || got[0] != keys[17] {
		t.Fatalf("content-stale lookup = %v, want [%d]", got, keys[17])
	}
	if _, it := probeScan(t, &PartSource{Layers: []*PartHandle{h2}, IdxCols: []int{0}}, 0, "r.a", engine.Int(keys[17])); it.StaleRuns != 1 || it.FallbackLayers != 1 || it.SegmentsRead < h2.NumSegments() {
		t.Fatalf("content-stale probe: %d stale runs, %d fallback layers, %d segments read of %d", it.StaleRuns, it.FallbackLayers, it.SegmentsRead, h2.NumSegments())
	}

	// A missing run file degrades silently too.
	os.Remove(IdxFileName(filepath.Join(dir, "b.useg"), IdxKeyAttr(0)))
	h3, err := OpenPart(filepath.Join(dir, "b.useg"))
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	if got := probe(h3, keys[17]); len(got) != 1 || got[0] != keys[17] {
		t.Fatalf("missing-run lookup = %v, want [%d]", got, keys[17])
	}
}

// TestIndexLookupSpeedup is the performance acceptance gate: a point
// lookup through the index must beat the zone-map-pruned full scan of
// the same layer without the index declared by at least 10× on a
// catalog whose keys are shuffled (so min/max stats prune nothing). The
// bench suite measures the same ratio at 1M rows; this regression gate
// runs at 200k to stay fast under -race.
func TestIndexLookupSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	dir := t.TempDir()
	const n = 200_000
	keys := shuffledKeys(n)
	h := indexedLayer(t, dir, "big.useg", intRows(keys, 0), DefaultSegmentRows)
	src := &PartSource{Layers: []*PartHandle{h}, IdxCols: []int{0}}
	plain := &PartSource{Layers: []*PartHandle{h}}

	scanOnce := func(k int64) {
		if rel, it := probeScan(t, plain, 0, "r.a", engine.Int(k)); rel.Len() != 1 || it.Probe != nil {
			t.Fatalf("scan k=%d: %d rows", k, rel.Len())
		}
	}
	lookupOnce := func(k int64) {
		if rel, it := probeScan(t, src, 0, "r.a", engine.Int(k)); rel.Len() != 1 || it.Probe == nil {
			t.Fatalf("lookup k=%d: %d rows", k, rel.Len())
		}
	}

	// Warm both paths (file cache, lazily loaded runs).
	scanOnce(keys[1])
	lookupOnce(keys[2])

	const probes = 20
	start := time.Now()
	for i := 0; i < probes; i++ {
		scanOnce(keys[100+i*97])
	}
	scanTime := time.Since(start)
	start = time.Now()
	for i := 0; i < probes; i++ {
		lookupOnce(keys[100+i*97])
	}
	lookupTime := time.Since(start)

	if lookupTime*10 > scanTime {
		t.Fatalf("index lookup not ≥10× faster: scan %v vs lookup %v (%.1fx)",
			scanTime, lookupTime, float64(scanTime)/float64(lookupTime))
	}
	t.Logf("point lookup speedup: %.0fx (scan %v, lookup %v, %d probes)",
		float64(scanTime)/float64(lookupTime), scanTime, lookupTime, probes)
}

// FuzzIndexProbe holds the probed scan to the scan of the same layers
// without their runs: Filter(r.a = k, scan) returns the same rows, in the
// same tid order, whether the scan reads only the rows the runs locate or
// every row, and it probes exactly when k is not NULL, every layer has its
// run and the zone maps leave two segments or more. The fuzz bytes draw one to three layers, each with its own
// segment size, keys from a small domain with duplicates, NULLs and
// floats equal to ints, tuple ids that repeat within and across layers,
// descriptors, tombstone batches scoped to some layers, memtable rows and
// the probe key; some layers' runs locate each key one row off, so they
// point at rows without it and miss rows with it. Every buffer a scan
// hands back is poisoned (PoisonRecycled). Run it with
//
//	go test -run=NONE -fuzz='^FuzzIndexProbe$' -fuzztime=10s -fuzzminimizetime=1s ./internal/store
func FuzzIndexProbe(f *testing.F) {
	defer PoisonRecycled()()
	f.Add([]byte{2, 40, 7, 3, 1, 2, 5, 9, 4, 3, 3, 0, 1, 2, 8, 6, 3, 2, 1, 1, 4, 0, 5, 3, 2})
	f.Add([]byte{3, 20, 2, 1, 9, 3, 3, 3, 0, 2, 4, 7, 1, 30, 5, 1, 6, 2, 8, 8, 3, 1, 0, 4, 2, 2, 6, 1, 3})
	f.Add([]byte{1, 60, 15, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 1, 3, 3})
	// Two layers holding key 3 in most segments, so the scan probes; the
	// second layer's run is off by a row, and a tombstone batch and the
	// delta hold the key too.
	f.Add([]byte{1, 3, 2, 12, 0, 0, 2, 1, 3, 1, 2, 1, 6, 2, 2, 1, 9, 3, 2, 1, 12, 4, 2, 1, 15, 5, 2, 1,
		18, 0, 2, 1, 21, 1, 2, 1, 24, 2, 2, 1, 27, 3, 2, 1, 30, 4, 2, 1, 33, 5, 2, 1, 3, 1, 6, 0, 3, 2, 0,
		1, 0, 7, 4, 2, 0, 1, 0, 14, 5, 2, 0, 1, 0, 21, 0, 2, 0, 1, 0, 28, 1, 2, 0, 1, 0, 35, 2, 2, 0, 1,
		0, 1, 0, 1, 2, 5, 3, 2, 1, 0, 9, 3, 2, 1, 1, 0, 2, 4, 3, 2, 1, 11, 1, 2, 1})
	// One layer in ascending keys: key 5 lies in its last segment only,
	// so the scan reads that segment and consults no run.
	f.Add([]byte{0, 5, 2, 9, 0, 0, 2, 1, 1, 1, 2, 1, 2, 1, 2, 1, 3, 2, 2, 1, 4, 2, 2, 1, 5, 3, 2, 1,
		6, 4, 2, 1, 7, 5, 2, 1, 8, 5, 2, 1, 2, 1, 0, 1, 5, 5, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		key := func() engine.Value {
			switch v := int64(next(6)); next(8) {
			case 0:
				return engine.Null()
			case 1:
				return engine.Float(float64(v))
			default:
				return engine.Int(v)
			}
		}
		row := func() core.URow {
			r := core.URow{TID: int64(next(40)), Vals: []engine.Value{key()}}
			if next(3) == 0 {
				r.D = ws.Descriptor{ws.A(ws.Var(1+next(2)), ws.Val(1+next(2)))}
			}
			return r
		}
		dir := t.TempDir()
		nl := 1 + next(3)
		probe := key()
		src := &PartSource{IdxCols: []int{0}}
		for li := 0; li < nl; li++ {
			rows := make([]core.URow, next(60))
			for i := range rows {
				rows[i] = row()
			}
			segRows := 1 + next(16)
			file := fmt.Sprintf("l%d.useg", li)
			if _, err := WritePartition(filepath.Join(dir, file), rows, 1, segRows); err != nil {
				t.Fatal(err)
			}
			indexed := rows
			if next(3) == 0 {
				// A run that locates a key at the row before each row that
				// has it, in storage order, within each segment: in a
				// segment whose rows do not all carry the key, it points
				// at a row without it and misses one with it.
				indexed = slices.Clone(rows)
				slices.SortStableFunc(indexed, func(a, b core.URow) int { return cmp.Compare(a.TID, b.TID) })
				for lo := 0; lo < len(indexed); lo += segRows {
					seg := indexed[lo:min(lo+segRows, len(indexed))]
					first := seg[0].Vals
					for i := range seg {
						if i+1 < len(seg) {
							seg[i].Vals = seg[i+1].Vals
						} else {
							seg[i].Vals = first
						}
					}
				}
			}
			if err := WritePartIndexes(dir, file, indexed, []int{0}, segRows); err != nil {
				t.Fatal(err)
			}
			h, err := OpenPart(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { h.Close() })
			src.Layers = append(src.Layers, h)
		}
		var batches []TombBatch
		for nb := next(3); nb > 0; nb-- {
			var tombs []WALTomb
			for ne := next(6); ne > 0; ne-- {
				r := row()
				tombs = append(tombs, WALTomb{TID: r.TID, D: r.D, Wild: next(2) == 0})
			}
			batches = append(batches, NewTombBatch(tombs, 1+next(nl)))
		}
		slices.SortStableFunc(batches, func(a, b TombBatch) int { return a.Gen - b.Gen })
		src.Tomb = NewTombView(batches)
		for i := next(6); i > 0; i-- {
			src.Mem = append(src.Mem, row())
		}
		plain := &PartSource{Layers: src.Layers, Mem: src.Mem, Tomb: src.Tomb}
		w := src.DescriptorWidth()
		got, it := probeScan(t, src, w, "r.a", probe)
		want, _ := probeScan(t, plain, w, "r.a", probe)
		// The same rows in the same tid order; rows sharing a tuple id come
		// in an order that depends on which segments a scan reads.
		inTIDOrder := slices.IsSortedFunc(got.Rows, func(a, b engine.Tuple) int { return cmp.Compare(a[2*w].I, b[2*w].I) })
		if !inTIDOrder || !got.EqualAsBag(want) {
			t.Fatalf("probe of r.a = %v (%d stale runs): %v, without the runs %v", probe, it.StaleRuns, got.Rows, want.Rows)
		}
		runs := !slices.ContainsFunc(src.Layers, func(h *PartHandle) bool { return h.indexRun(IdxKeyAttr(0)) == nil })
		left := segmentsLeft(src.Layers, it.Pruned)
		if rule := !probe.IsNull() && runs && left >= 2; rule != (it.Probe != nil) || it.Probe == nil && it.RunsConsulted != 0 {
			t.Fatalf("probe of r.a = %v over %d segments left (runs on every layer: %v) planned %v and consulted %d runs", probe, left, runs, it.Probe, it.RunsConsulted)
		}
	})
}
