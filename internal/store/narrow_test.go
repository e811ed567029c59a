package store

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// unnarrowed is a scan without NarrowKeys: the same plan with
// narrowing off. It forwards lookups, which a stitch finds rows by.
type unnarrowed struct{ engine.Iterator }

func (u unnarrowed) Lookup(col int) func([]int64, []int32) (*engine.ColBatch, error) {
	if l, ok := u.Iterator.(engine.RowLookup); ok {
		return l.Lookup(col)
	}
	return nil
}

// narrowCounts is what the narrowed scans of some layouts skipped — of
// those rows, the ones a key list on the value column dropped — how
// many joins whose build side held in-memory delta rows narrowed their
// probe, the segments and rows the scans of the stitched chains skipped,
// and how often the chains' layouts were drawn (chainLayouts).
type narrowCounts struct {
	segments, rows, listRows, memBuilds, chainSegments, chainRows int64
	layouts                                                       chainLayouts
}

// chainLayouts counts the stitched chains whose partitions held several
// file layers, a memtable tail reinserting tuple ids inside a file
// layer's range, tombstones, and a tuple whose alternatives straddle a
// segment boundary.
type chainLayouts struct{ severalLayers, tailReinserts, tombs, straddles int }

// add counts the layouts of src into c.
func (c *chainLayouts) add(t *testing.T, src *PartSource) {
	t.Helper()
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	straddles := 0
	for _, h := range src.Layers {
		last := int64(math.MinInt64)
		for i := 0; i < h.NumSegments(); i++ {
			seg, err := h.ReadSegment(i)
			if err != nil {
				t.Fatal(err)
			}
			if seg.n > 0 && seg.tid[0] == last {
				straddles = 1
			}
			if seg.n > 0 {
				last, lo, hi = seg.tid[seg.n-1], min(lo, seg.tid[0]), max(hi, seg.tid[seg.n-1])
			}
		}
	}
	if len(src.Layers) > 1 {
		c.severalLayers++
	}
	if slices.ContainsFunc(src.Mem, func(r core.URow) bool { return r.TID >= lo && r.TID <= hi }) {
		c.tailReinserts++
	}
	if src.Tomb != nil {
		c.tombs++
	}
	c.straddles += straddles
}

// TestNarrowedJoinsMatchUnnarrowed draws random layered partitions —
// base and delta files written from rows out of tid order, under
// tombstones inside and outside the joins' tid range, with an in-memory delta, NULL keys and
// the odd float among the ints — and joins each with a small build side
// of keys from one window of tuple ids or values, on the tid column and
// on the value column. The build side is a batch of keys, or, half of
// the time, the tid column of a stored partition whose rows are the keys,
// some or all of them in its in-memory delta. The ends of the tid window are tuple ids with
// several alternatives when the layout has such, so a segment's tid
// window starts and ends on runs of equal tids. The inner hash join
// (serial, partitioned, and over the scan's rows instead of its
// columns) and the semi join must give the same rows
// with the probe scan narrowed as with narrowing off, and as the join
// evaluated row by row over the partition's live rows. Each layout is
// also the build side of a two-level case (checkChain): a selective
// value-column build joined to its tid-merge with a second stored
// partition, whose scans must skip segments over the seeds. Every buffer
// a scan hands back is poisoned (PoisonRecycled) meanwhile.
func TestNarrowedJoinsMatchUnnarrowed(t *testing.T) {
	defer PoisonRecycled()()
	var total narrowCounts
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := checkNarrowLayout(t, rand.New(rand.NewSource(seed)))
			total.segments += c.segments
			total.rows += c.rows
			total.listRows += c.listRows
			total.memBuilds += c.memBuilds
			total.chainSegments += c.chainSegments
			total.chainRows += c.chainRows
			l := &total.layouts
			l.severalLayers += c.layouts.severalLayers
			l.tailReinserts += c.layouts.tailReinserts
			l.tombs += c.layouts.tombs
			l.straddles += c.layouts.straddles
		})
	}
	t.Logf("narrowed scans skipped %d segments and %d rows of segments read and of deltas, %d of them by a key list on the value column; %d joins built on delta rows narrowed; stitched chains skipped %d segments and %d rows; stitched chain layouts %+v",
		total.segments, total.rows, total.listRows, total.memBuilds, total.chainSegments, total.chainRows, total.layouts)
	if total.segments == 0 || total.rows == 0 || total.listRows == 0 {
		t.Errorf("the joins skipped %d segments and %d rows of segments read, %d by a list: narrowing was never exercised", total.segments, total.rows, total.listRows)
	}
	if total.chainSegments == 0 || total.chainRows == 0 {
		t.Errorf("the scans of the merge chains skipped %d segments and %d rows: the keys never reached them through the merge", total.chainSegments, total.chainRows)
	}
	if total.memBuilds == 0 {
		t.Error("no join whose build side held delta rows narrowed its probe side")
	}
	if l := total.layouts; l.severalLayers == 0 || l.tailReinserts == 0 || l.tombs == 0 || l.straddles == 0 {
		t.Errorf("a layout of the stitched chains was never drawn: %+v", l)
	}
}

// checkNarrowLayout builds one random partition and checks every join
// kind against it; it returns what the narrowed scans skipped.
func checkNarrowLayout(t *testing.T, rng *rand.Rand) narrowCounts {
	dir := t.TempDir()
	value := func() engine.Value {
		switch k := int64(rng.Intn(40)); {
		case rng.Intn(10) == 0:
			return engine.Null()
		case rng.Intn(30) == 0:
			return engine.Float(float64(k))
		default:
			return engine.Int(k)
		}
	}
	row := func(tid int64) core.URow {
		var d ws.Descriptor
		if rng.Intn(3) == 0 {
			d = ws.MustDescriptor(ws.A(ws.Var(1+rng.Intn(3)), ws.Val(1+rng.Intn(2))))
		}
		return core.URow{D: d, TID: tid, Vals: []engine.Value{value()}}
	}
	var layers [][]core.URow
	maxTID := int64(0)
	for nl := 1 + rng.Intn(4); nl > 0; nl-- {
		var rows []core.URow
		for i := 20 + rng.Intn(200); i > 0; i-- {
			if maxTID > 0 && rng.Intn(3) == 0 {
				rows = append(rows, row(1+rng.Int63n(maxTID))) // an alternative or a reinsert
			} else {
				maxTID++
				rows = append(rows, row(maxTID))
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		layers = append(layers, rows)
	}
	// The tid window, ending on tuple ids with alternatives in one layer
	// half of the time.
	var dups []int64
	for _, rows := range layers {
		n := map[int64]int{}
		for _, r := range rows {
			if n[r.TID]++; n[r.TID] == 2 {
				dups = append(dups, r.TID)
			}
		}
	}
	sort.Slice(dups, func(i, j int) bool { return dups[i] < dups[j] })
	wlo := 1 + rng.Int63n(maxTID)
	whi := wlo + rng.Int63n(12)
	if len(dups) > 0 && rng.Intn(2) == 0 {
		i := rng.Intn(len(dups))
		wlo, whi = dups[i], dups[min(len(dups)-1, i+rng.Intn(3))]
	}
	src := &PartSource{}
	var batches []TombBatch
	var counts narrowCounts
	for li, rows := range layers {
		path := filepath.Join(dir, fmt.Sprintf("l%d.useg", li))
		if _, err := WritePartition(path, rows, 1, 4+rng.Intn(40)); err != nil {
			t.Fatal(err)
		}
		h, err := OpenPart(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		src.Layers = append(src.Layers, h)
		if rng.Intn(2) == 0 {
			// Tombstones anywhere, half of them in the tid window, or all
			// of them in it past its first tuple id.
			inWindow, all := []core.URow{}, rng.Intn(3) == 0
			for _, r := range rows {
				if r.TID >= wlo && r.TID <= whi && (!all || r.TID > wlo) {
					inWindow = append(inWindow, r)
				}
			}
			var tombs []WALTomb
			for i := 1 + rng.Intn(8); i > 0; i-- {
				r := rows[rng.Intn(len(rows))]
				if len(inWindow) > 0 && (all || rng.Intn(2) == 0) {
					r = inWindow[rng.Intn(len(inWindow))]
				}
				tombs = append(tombs, WALTomb{TID: r.TID, D: r.D, Wild: rng.Intn(2) == 0})
			}
			batches = append(batches, NewTombBatch(tombs, li+1))
		}
	}
	if len(batches) > 0 {
		src.Tomb = NewTombView(batches)
	}
	for i := rng.Intn(6); i > 0; i-- {
		src.Mem = append(src.Mem, row(1+rng.Int63n(maxTID+5)))
	}
	live, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	w := src.DescriptorWidth()
	sch := widthSchema(w)

	for _, on := range []struct {
		col string
		key func(core.URow) engine.Value
	}{
		{"tid:r.p0", func(r core.URow) engine.Value { return engine.Int(r.TID) }},
		{"r.a", func(r core.URow) engine.Value { return r.Vals[0] }},
	} {
		// Build keys from one window, a NULL now and then, sometimes none:
		// on the tid column both ends of the tid window and tuple ids
		// between them, on the value column values from a window of its
		// own.
		var keys []int64
		var nulls []bool
		key := func(k int64) {
			keys = append(keys, k)
			nulls = append(nulls, rng.Intn(8) == 0)
		}
		n := rng.Intn(8)
		if on.col == "tid:r.p0" {
			if n > 0 {
				key(wlo)
				key(whi)
			}
			for ; n > 2; n-- {
				key(wlo + rng.Int63n(whi-wlo+1))
			}
		} else {
			lo := rng.Int63n(41)
			for ; n > 0; n-- {
				key(lo + rng.Int63n(1+rng.Int63n(12)))
			}
		}
		memBuild := false
		bk, bw, buildPlan := "b.k", 1, engine.Plan(&engine.ValuesPlan{Batch: &engine.ColBatch{
			Sch:  engine.NewSchema(engine.Column{Name: "b.k", Kind: engine.KindInt}),
			Cols: []engine.ColVec{engine.IntVec(keys, nulls)},
			N:    len(keys),
		}, Name: "b"})
		if rng.Intn(2) == 0 {
			// A tid has no NULL: the stored build side holds the other keys.
			bsrc, stored := &PartSource{}, []core.URow{}
			for i, k := range keys {
				r := core.URow{TID: k, Vals: []engine.Value{engine.Int(k)}}
				switch {
				case nulls[i]:
				case rng.Intn(2) == 0:
					stored = append(stored, r)
				default:
					bsrc.Mem = append(bsrc.Mem, r)
				}
			}
			if len(stored) > 0 {
				path := filepath.Join(dir, fmt.Sprintf("b%s.useg", on.col[:1]))
				if _, err := WritePartition(path, stored, 1, 4); err != nil {
					t.Fatal(err)
				}
				h, err := OpenPart(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { h.Close() })
				bsrc.Layers = []*PartHandle{h}
			}
			bsch := engine.NewSchema(engine.Column{Name: "b.tid", Kind: engine.KindInt}, engine.Column{Name: "b.a", Kind: engine.KindInt})
			bk, bw, buildPlan = "b.tid", bsch.Len(), bsrc.ScanPlan(bsch, 0, []int{0}, "b")
			memBuild = len(bsrc.Mem) > 0
		}
		build := func() engine.Iterator {
			it, err := engine.Build(buildPlan, engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return it
		}
		// matches counts the build keys a probe row's key equals.
		matches := func(r core.URow) int {
			v, n := on.key(r), 0
			for i, k := range keys {
				if !nulls[i] && !v.IsNull() && engine.Compare(engine.Int(k), v) == 0 {
					n++
				}
			}
			return n
		}
		var wantInner, wantSemi []string
		for _, r := range live {
			n := matches(r)
			for i := 0; i < n; i++ {
				wantInner = append(wantInner, uRowKey(r))
			}
			if n > 0 {
				wantSemi = append(wantSemi, uRowKey(r))
			}
		}

		for _, kind := range []string{"inner", "semi"} {
			want := map[string][]string{"inner": wantInner, "semi": wantSemi}[kind]
			sort.Strings(want)
			for _, narrow := range []bool{true, false} {
				scan, err := src.ScanPlan(sch, w, []int{0}, "u_r_a").(*StoreScanPlan).BuildIter(engine.ExecConfig{})
				if err != nil {
					t.Fatal(err)
				}
				probe := scan
				if !narrow {
					probe = unnarrowed{scan}
				}
				var join engine.Iterator
				probeCols := 0 // where the probe row starts in an output row
				switch kind {
				case "inner":
					join = engine.NewHashJoin(build(), probe, []engine.EquiPair{{L: bk, R: on.col}}, nil, nil)
					probeCols = bw
				default:
					join = engine.NewSemiJoin(probe, build(), []engine.EquiPair{{L: on.col, R: bk}}, nil)
				}
				rel, err := engine.Drain(join)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, out := range rel.Rows {
					got = append(got, tupleKey(t, out[probeCols:], w))
				}
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s join on %s, keys %v (nulls %v), narrowed %v: %d rows, row by row %d:\n%v\n%v",
						kind, on.col, keys, nulls, narrow, len(got), len(want), got, want)
				}
				if s := scan.(*StoreScanIter); narrow {
					counts.segments += s.SegmentsSkippedByJoin
					counts.rows += s.RowsSkippedByJoin
					if on.col == "r.a" {
						counts.listRows += s.RowsSkippedByJoin
					}
					if memBuild && s.SegmentsSkippedByJoin+s.RowsSkippedByJoin > 0 {
						counts.memBuilds++
					}
				}
			}
		}
	}
	counts.layouts.add(t, src)
	counts.chainSegments, counts.chainRows = checkChain(t, rng, dir, src, live, w, maxTID, &counts.layouts)
	return counts
}

// checkChain joins a selective build side — keys from a window of three
// values, with duplicates, a NULL now and then, or none at all — on r.a
// or on s.b to the stitch, with ψ, of src and a second stored partition
// over its tuple ids: the outer join hands the stitch the list of its
// keys, which the stitch forwards to the scan of the partition that
// owns the column — the driver's or the other's, as the driver is drawn
// — and the driver's tid range then narrows the other scan. The rows
// must be those of the same plan with narrowing hidden and of the join
// evaluated row by row; it returns the segments and rows the stitch's
// two scans skipped, and counts the second partition's layout into
// layouts.
func checkChain(t *testing.T, rng *rand.Rand, dir string, src *PartSource, live []core.URow, w int, maxTID int64, layouts *chainLayouts) (int64, int64) {
	t.Helper()
	// The other partition, s.b: one or two alternatives per tuple id, in
	// one or two layers, under wildcard tombstones half of the time, and
	// a memtable tail.
	val := func() []engine.Value { return []engine.Value{engine.Int(rng.Int63n(50))} }
	layers := make([][]core.URow, 1+rng.Intn(2))
	for tid := int64(1); tid <= maxTID; tid++ {
		li := rng.Intn(len(layers))
		if rng.Intn(5) > 0 {
			layers[li] = append(layers[li], core.URow{TID: tid, Vals: val()})
			continue
		}
		x := ws.Var(1 + rng.Intn(3))
		for v := 1; v <= 2; v++ {
			layers[li] = append(layers[li], core.URow{D: ws.MustDescriptor(ws.A(x, ws.Val(v))), TID: tid, Vals: val()})
		}
	}
	src2 := &PartSource{}
	for li, rows := range layers {
		if len(rows) == 0 {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("s%d.useg", li))
		if _, err := WritePartition(path, rows, 1, 4+rng.Intn(30)); err != nil {
			t.Fatal(err)
		}
		h, err := OpenPart(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		src2.Layers = append(src2.Layers, h)
	}
	if rng.Intn(2) == 0 {
		var tombs []WALTomb
		for i := 1 + rng.Intn(6); i > 0; i-- {
			tombs = append(tombs, WALTomb{TID: 1 + rng.Int63n(maxTID), Wild: true})
		}
		src2.Tomb = NewTombView([]TombBatch{NewTombBatch(tombs, len(src2.Layers))})
	}
	for i := rng.Intn(4); i > 0; i-- {
		src2.Mem = append(src2.Mem, core.URow{TID: 1 + rng.Int63n(maxTID+3), Vals: val()})
	}
	live2, err := src2.Load()
	if err != nil {
		t.Fatal(err)
	}
	layouts.add(t, src2)
	w2 := src2.DescriptorWidth()
	var cols2 []engine.Column
	for k := 0; k < w2; k++ {
		cols2 = append(cols2, engine.Column{Name: fmt.Sprintf("e.v%d", k), Kind: engine.KindInt},
			engine.Column{Name: fmt.Sprintf("e.r%d", k), Kind: engine.KindInt})
	}
	sch2 := engine.NewSchema(append(cols2, engine.Column{Name: "tid:s.p0", Kind: engine.KindInt},
		engine.Column{Name: "s.b", Kind: engine.KindInt})...)
	var psi []engine.Expr
	for a := 0; a < w; a++ {
		for b := 0; b < w2; b++ {
			psi = append(psi, engine.Or(
				engine.Cmp(engine.NE, engine.Col(fmt.Sprintf("d.v%d", a)), engine.Col(fmt.Sprintf("e.v%d", b))),
				engine.Cmp(engine.EQ, engine.Col(fmt.Sprintf("d.r%d", a)), engine.Col(fmt.Sprintf("e.r%d", b)))))
		}
	}
	var residual engine.Expr
	if len(psi) > 0 {
		residual = engine.And(psi...)
	}

	lo := rng.Int63n(41)
	var keys []int64
	var nulls []bool
	onB := rng.Intn(2) == 0
	for n := rng.Intn(5); n > 0; n-- {
		keys = append(keys, lo+rng.Int63n(3))
		nulls = append(nulls, rng.Intn(8) == 0)
	}
	buildPlan := &engine.ValuesPlan{Batch: &engine.ColBatch{
		Sch:  engine.NewSchema(engine.Column{Name: "b.k", Kind: engine.KindInt}),
		Cols: []engine.ColVec{engine.IntVec(keys, nulls)},
		N:    len(keys),
	}, Name: "b"}
	matches := func(v engine.Value) int {
		n := 0
		for i, k := range keys {
			if !nulls[i] && !v.IsNull() && engine.Compare(engine.Int(k), v) == 0 {
				n++
			}
		}
		return n
	}
	var want []string
	for _, a := range live {
		for _, b := range live2 {
			n := matches(a.Vals[0])
			if onB {
				n = matches(b.Vals[0])
			}
			if n > 0 && b.TID == a.TID && a.D.ConsistentWith(b.D) {
				for i := 0; i < n; i++ {
					want = append(want, uRowKey(a)+" ⋈ "+uRowKey(b))
				}
			}
		}
	}
	sort.Strings(want)

	var skipped, rows int64
	driver, key := rng.Intn(2), "r.a"
	if onB {
		key = "s.b"
	}
	for _, narrow := range []bool{true, false} {
		scan := func(s *PartSource, sch engine.Schema, width int, name string) *StoreScanIter {
			it, err := s.ScanPlan(sch, width, []int{0}, name).(*StoreScanPlan).BuildIter(engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return it.(*StoreScanIter)
		}
		hide := func(it engine.Iterator) engine.Iterator {
			if narrow {
				return it
			}
			return unnarrowed{it}
		}
		a, b := scan(src, widthSchema(w), w, "u_r_a"), scan(src2, sch2, w2, "u_s_b")
		merge := engine.NewStitch([]engine.Iterator{hide(a), hide(b)}, []string{"tid:r.p0", "tid:s.p0"}, residual, driver, nil)
		build, err := engine.Build(buildPlan, engine.NewCatalog(), engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := engine.Drain(engine.NewHashJoin(build, hide(merge), []engine.EquiPair{{L: "b.k", R: key}}, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range rel.Rows {
			got = append(got, tupleKey(t, row[1:], w)+" ⋈ "+tupleKey(t, row[2*w+3:], w2))
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("chain on %s, keys %v (nulls %v), driver %d, narrowed %v: %d rows, row by row %d:\n%v\n%v", key, keys, nulls, driver, narrow, len(got), len(want), got, want)
		}
		if narrow {
			skipped, rows = a.SegmentsSkippedByJoin+b.SegmentsSkippedByJoin, a.RowsSkippedByJoin+b.RowsSkippedByJoin
		}
	}
	return skipped, rows
}

// TestScanKeepsEveryRange: a scan handed keys on two columns skips
// every segment either holds no key of, and one handed keys twice on one
// column serves only the rows both let through — as a probe scan is
// handed a value list from above and then its own join's tid range, and
// the second must not erase the first. A list skips the segments between its keys and
// serves only the rows that hold one. The partition holds tuple ids
// 1…400 in segments of 50, with r.a equal to the tid.
func TestScanKeepsEveryRange(t *testing.T) {
	var rows []core.URow
	for tid := int64(1); tid <= 400; tid++ {
		rows = append(rows, core.URow{D: ws.MustDescriptor(ws.A(1, ws.Val(1+tid%2))), TID: tid, Vals: []engine.Value{engine.Int(tid)}})
	}
	path := filepath.Join(t.TempDir(), "p.useg")
	if _, err := WritePartition(path, rows, 1, 50); err != nil {
		t.Fatal(err)
	}
	h, err := OpenPart(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	src := &PartSource{Layers: []*PartHandle{h}}
	const tid, val = 2, 3 // the columns of widthSchema(1)
	list := func(xs ...int64) engine.Keys { return engine.Keys{Lo: xs[0], Hi: xs[len(xs)-1], List: xs} }
	for _, c := range []struct {
		name         string
		cols         []int         // the columns keys are handed down on…
		keys         []engine.Keys // …and the keys, in that order
		lo, hi       int64         // the tuple ids every range lets through
		read, served int
	}{
		{"two columns", []int{val, tid}, []engine.Keys{{Lo: 1, Hi: 200}, {Lo: 151, Hi: 400}}, 151, 200, 1, 50},
		{"one column twice", []int{tid, tid}, []engine.Keys{{Lo: 1, Hi: 220}, {Lo: 180, Hi: 400}}, 180, 220, 2, 41},
		{"a list and a range", []int{val, tid}, []engine.Keys{list(120, 130, 380), {Lo: 1, Hi: 200}}, 120, 130, 1, 2},
		{"a list with every key of its range", []int{val}, []engine.Keys{list(150, 151, 152)}, 150, 152, 2, 3},
		{"two lists on one column", []int{val, val}, []engine.Keys{list(5, 120, 130, 380), list(120, 130, 380, 390)}, 120, 380, 2, 3},
	} {
		it, err := src.ScanPlan(widthSchema(1), 1, []int{0}, "u_r_a").(*StoreScanPlan).BuildIter(engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		s := it.(*StoreScanIter)
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		for i, col := range c.cols {
			s.NarrowKeys(col, c.keys[i])
		}
		served, in := 0, 0
		for {
			cb, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for _, row := range cb.Materialize(nil) {
				served++
				if x := row[tid].I; x >= c.lo && x <= c.hi {
					in++
				}
			}
		}
		s.Close()
		if in != min(int(c.hi-c.lo+1), c.served) || served != c.served || s.SegmentsRead != c.read || s.SegmentsSkippedByJoin != int64(8-c.read) {
			t.Errorf("%s: served %d rows, %d of tuple ids %d…%d, read %d segments and skipped %d; want %d rows, all inside, %d read and %d skipped",
				c.name, served, in, c.lo, c.hi, s.SegmentsRead, s.SegmentsSkippedByJoin, c.served, c.read, 8-c.read)
		}
	}
}
