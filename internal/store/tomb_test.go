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

// widthSchema is the scan schema of a one-attribute partition at
// descriptor width w: w (var, rng) pairs, the tuple id, r.a.
func widthSchema(w int) engine.Schema {
	var cols []engine.Column
	for k := 0; k < w; k++ {
		cols = append(cols, engine.Column{Name: fmt.Sprintf("d.v%d", k), Kind: engine.KindInt},
			engine.Column{Name: fmt.Sprintf("d.r%d", k), Kind: engine.KindInt})
	}
	cols = append(cols, engine.Column{Name: "tid:r.p0", Kind: engine.KindInt},
		engine.Column{Name: "r.a", Kind: engine.KindInt})
	return engine.NewSchema(cols...)
}

// tupleKey renders a scanned tuple as its (descriptor, tid, value)
// identity, collapsing the padding as segDescriptor does.
func tupleKey(t *testing.T, row engine.Tuple, w int) string {
	t.Helper()
	var as []ws.Assignment
	seen := map[ws.Var]bool{}
	for k := 0; k < w; k++ {
		x := ws.Var(row[2*k].I)
		if x == ws.TrivialVar || seen[x] {
			continue
		}
		seen[x] = true
		as = append(as, ws.A(x, ws.Val(row[2*k+1].I)))
	}
	d, err := ws.NewDescriptor(as...)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s|%d|%s", d, row[2*w].I, row[2*w+1])
}

func uRowKey(r core.URow) string { return fmt.Sprintf("%s|%d|%s", r.D, r.TID, r.Vals[0]) }

// refDeleted is the per-row reference filter: whether some batch of f
// deletes the row (tid, d).
func refDeleted(f TombFilter, tid int64, d ws.Descriptor) bool {
	for i := range f {
		if f[i].Matches(tid, d) {
			return true
		}
	}
	return false
}

// refLive returns src's live rows by the per-row reference: every
// stored row, its descriptor rebuilt by segDescriptor, against every
// batch that filters its layer, and then the in-memory delta.
func refLive(t *testing.T, src *PartSource) []core.URow {
	t.Helper()
	var out []core.URow
	for li, h := range src.Layers {
		f := src.Tomb.Layer(li)
		for i := 0; i < h.NumSegments(); i++ {
			seg, err := h.ReadSegment(i)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < seg.n; r++ {
				if d := segDescriptor(seg, h.Width(), r); !refDeleted(f, seg.tid[r], d) {
					out = append(out, core.URow{D: d, TID: seg.tid[r], Vals: []engine.Value{seg.cols[0].Value(r)}})
				}
			}
		}
	}
	return append(out, src.Mem...)
}

// scanKeys drains a fresh scan of src at descriptor width w through
// Next — narrowed to the tuple ids [win[0], win[1]] when win is
// not nil — and returns the live rows' keys, sorted, with the scan for
// its counters. The scan must serve its rows in tid order.
func scanKeys(t *testing.T, src *PartSource, w int, win *[2]int64) ([]string, *StoreScanIter) {
	t.Helper()
	it, err := src.ScanPlan(widthSchema(w), w, []int{0}, "u_r_a").(*StoreScanPlan).BuildIter(engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := it.(*StoreScanIter)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if win != nil {
		s.NarrowKeys(2*w, engine.Keys{Lo: win[0], Hi: win[1]})
	}
	var keys []string
	last := int64(math.MinInt64)
	for {
		cb, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, row := range cb.Materialize(nil) {
			if row[2*w].I < last {
				t.Fatalf("the scan served tuple id %d after %d", row[2*w].I, last)
			}
			last = row[2*w].I
			if win == nil || row[2*w].I >= win[0] && row[2*w].I <= win[1] {
				keys = append(keys, tupleKey(t, row, w))
			}
		}
	}
	sort.Strings(keys)
	return keys, s
}

// TestTombstonesCheckOnlyTheirSegments: a tombstone is looked up only
// in the segments its tuple id falls in. A three-segment base with
// deletes confined to its middle segment checks that segment's rows and
// no others (every row was checked against every batch before), and a
// segment no tombstone falls in is skipped whole: the probe of a key of
// the first and last segments skips both, and a key of the middle one
// alone is read by the scan, which consults no run. The property leg
// draws random layouts (checkTombLayout) and holds the scan, the index
// probe and Load to the per-row reference.
func TestTombstonesCheckOnlyTheirSegments(t *testing.T) {
	dir := t.TempDir()
	base := make([]int64, 192)
	for i := range base {
		base[i] = int64(i % 128) // keys 0…63 in the first and last segments
	}
	h := indexedLayer(t, dir, "base.useg", intRows(base, 1), 64) // tids 1..192, 64 per segment
	src := &PartSource{Layers: []*PartHandle{h}, IdxCols: []int{0}, Tomb: NewTombView([]TombBatch{
		NewTombBatch([]WALTomb{{TID: 70, Wild: true}, {TID: 75}}, 1),
		NewTombBatch([]WALTomb{{TID: 100}, {TID: 90, Wild: true}}, 1),
	})}
	keys, s := scanKeys(t, src, 0, nil)
	if len(keys) != 188 {
		t.Fatalf("scan kept %d rows, want 188", len(keys))
	}
	if s.TombRowsChecked != 64 || s.TombSegmentsSkipped != 2 {
		t.Fatalf("tomb_rows_checked=%d tomb_segments_skipped=%d, want 64 and 2", s.TombRowsChecked, s.TombSegmentsSkipped)
	}
	if got, it := probeScan(t, src, 0, "r.a", engine.Int(3)); got.Len() != 2 || it.Probe == nil || it.TombSegmentsSkipped != 2 || it.TombRowsChecked != 0 {
		t.Fatalf("probe of a key in untouched segments: %v, %+v", got.Rows, it)
	}
	if got, it := probeScan(t, src, 0, "r.a", engine.Int(99)); got.Len() != 0 || it.Probe != nil || it.RunsConsulted != 0 || it.TombRowsChecked != 64 {
		t.Fatalf("lookup of a deleted key in the middle segment: %v, %+v", got.Rows, it)
	}

	var total tombCounts
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := checkTombLayout(t, rand.New(rand.NewSource(seed)))
			total.repeatedVars += c.repeatedVars
			total.splitTIDs += c.splitTIDs
			total.unindexed += c.unindexed
			total.cutWindows += c.cutWindows
		})
	}
	t.Logf("%d stored rows repeated a variable, %d tombstones deleted one alternative of a tid and kept another, %d delta layers had no run, %d narrowed scans cut a segment",
		total.repeatedVars, total.splitTIDs, total.unindexed, total.cutWindows)
	if total.repeatedVars == 0 || total.splitTIDs == 0 || total.unindexed == 0 || total.cutWindows == 0 {
		t.Errorf("a case was never drawn: %+v", total)
	}
}

// tombCounts is how often the layouts drew the cases checkTombLayout
// exists for.
type tombCounts struct{ repeatedVars, splitTIDs, unindexed, cutWindows int }

// collapse is a stored row's descriptor as segDescriptor reads it: the
// trivial variable and a repeated variable dropped (the first
// assignment counts), the rest sorted.
func collapse(d ws.Descriptor) ws.Descriptor {
	var as []ws.Assignment
	for i, a := range d {
		if a.Var != ws.TrivialVar && !slices.ContainsFunc(d[:i], func(b ws.Assignment) bool { return b.Var == a.Var }) {
			as = append(as, a)
		}
	}
	return ws.MustDescriptor(as...)
}

// checkTombLayout builds one random layered, tombstoned partition and
// compares every read path with the per-row reference (refLive). The
// layouts hold: an ascending base whose tuple ids have one or two
// alternatives; deltas in the unsorted order UPDATE reinserts leave,
// some without their run, whose layers a probe scans whole; stored
// descriptors that repeat a variable, with the same value or
// another; batches of mixed gens with wildcard tombstones, tombstones of
// stored rows and of no row, and ones that delete one alternative of a
// tuple id but not another. Each layout is scanned at its width and a
// wider one, whole and narrowed to a tid window that ends on a tuple id
// with alternatives or inside a tombstone batch, and read by Load and
// by index probes.
func checkTombLayout(t *testing.T, rng *rand.Rand) tombCounts {
	dir := t.TempDir()
	var counts tombCounts
	desc := func() ws.Descriptor {
		var as []ws.Assignment
		for x := ws.Var(1); x <= 3; x++ {
			if rng.Intn(3) == 0 {
				as = append(as, ws.A(x, ws.Val(1+rng.Intn(3))))
			}
		}
		return ws.MustDescriptor(as...)
	}
	row := func(tid int64) core.URow {
		d := desc()
		if len(d) > 0 && rng.Intn(4) == 0 {
			// Repeat a variable, in front or behind, with any value.
			a := ws.A(d[rng.Intn(len(d))].Var, ws.Val(1+rng.Intn(3)))
			if rng.Intn(2) == 0 {
				d = append(ws.Descriptor{a}, d...)
			} else {
				d = append(d, a)
			}
			counts.repeatedVars++
		}
		return core.URow{D: d, TID: tid, Vals: []engine.Value{engine.Int(int64(rng.Intn(12)))}}
	}
	var layers [][]core.URow
	var basis []core.URow
	for tid := int64(1); tid <= int64(40+rng.Intn(300)); tid++ {
		for alt := 0; alt <= rng.Intn(2); alt++ {
			basis = append(basis, row(tid))
		}
	}
	maxTID := basis[len(basis)-1].TID
	layers = append(layers, basis)
	for nd := rng.Intn(4); nd > 0; nd-- {
		var delta []core.URow
		for i := rng.Intn(120); i > 0; i-- {
			if rng.Intn(2) == 0 {
				delta = append(delta, row(1+rng.Int63n(maxTID))) // an UPDATE's reinsert
			} else {
				maxTID++
				delta = append(delta, row(maxTID))
			}
		}
		rng.Shuffle(len(delta), func(i, j int) { delta[i], delta[j] = delta[j], delta[i] })
		layers = append(layers, delta)
	}

	var batches []TombBatch
	var tombTIDs []int64
	gen := 1
	for nb := 1 + rng.Intn(10); nb > 0; nb-- {
		gen += rng.Intn(len(layers) + 1 - gen)
		// Deletes in a window of tuple ids, as a range DELETE leaves them.
		lo := 1 + rng.Int63n(maxTID)
		hi := lo + rng.Int63n(30)
		var tombs []WALTomb
		for i := 1 + rng.Intn(6); i > 0; i-- {
			tid := lo + rng.Int63n(hi-lo+1)
			switch rng.Intn(5) {
			case 0:
				tombs = append(tombs, WALTomb{TID: tid, Wild: true})
			case 1:
				tombs = append(tombs, WALTomb{TID: tid, D: desc()})
			case 2:
				// One alternative of a tuple id whose alternatives differ.
				ls := layers[rng.Intn(gen)]
				if len(ls) < 2 {
					continue
				}
				j := rng.Intn(len(ls) - 1)
				a, b := ls[j], ls[j+1]
				if a.TID == b.TID && !DescriptorEqual(collapse(a.D), collapse(b.D)) {
					tombs = append(tombs, WALTomb{TID: a.TID, D: collapse(a.D)})
					counts.splitTIDs++
				}
			default:
				// An existing row of a covered layer: its stored descriptor,
				// or, half of the time, the one it was written with, which
				// deletes nothing when it repeats a variable.
				ls := layers[rng.Intn(gen)]
				if len(ls) == 0 {
					continue
				}
				r := ls[rng.Intn(len(ls))]
				d := r.D
				if rng.Intn(2) == 0 {
					d = collapse(d)
				}
				tombs = append(tombs, WALTomb{TID: r.TID, D: d})
			}
		}
		for _, tb := range tombs {
			tombTIDs = append(tombTIDs, tb.TID)
		}
		batches = append(batches, NewTombBatch(tombs, gen))
	}

	src := &PartSource{IdxCols: []int{0}, Tomb: NewTombView(batches)}
	for li, rows := range layers {
		file := fmt.Sprintf("l%d.useg", li)
		segRows := 8 + rng.Intn(40)
		if li == 0 || rng.Intn(3) > 0 {
			src.Layers = append(src.Layers, indexedLayer(t, dir, file, rows, segRows))
			continue
		}
		// A delta without its run: a layout with such a layer is
		// scanned, not probed.
		path := filepath.Join(dir, file)
		if _, err := WritePartition(path, rows, 1, segRows); err != nil {
			t.Fatal(err)
		}
		h, err := OpenPart(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		src.Layers = append(src.Layers, h)
		counts.unindexed++
	}
	for i := rng.Intn(5); i > 0; i-- {
		maxTID++
		src.Mem = append(src.Mem, core.URow{D: desc(), TID: maxTID, Vals: []engine.Value{engine.Int(int64(rng.Intn(12)))}})
	}
	live := refLive(t, src)
	w := src.DescriptorWidth()

	// keysIn renders the reference's live rows with a tid in [lo, hi].
	keysIn := func(lo, hi int64) []string {
		var keys []string
		for _, r := range live {
			if r.TID >= lo && r.TID <= hi {
				keys = append(keys, uRowKey(r))
			}
		}
		sort.Strings(keys)
		return keys
	}
	same := func(path string, got, want []string) {
		t.Helper()
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %d rows, the per-row filter keeps %d:\n%v\n%v", path, len(got), len(want), got, want)
		}
	}
	all := keysIn(math.MinInt64, math.MaxInt64)

	loaded, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range loaded {
		got = append(got, uRowKey(r))
	}
	same("Load", got, all)

	// The window's ends: tuple ids with alternatives, or tuple ids inside
	// the batches.
	var ends []int64
	for i := 1; i < len(basis); i++ {
		if basis[i].TID == basis[i-1].TID {
			ends = append(ends, basis[i].TID)
		}
	}
	if len(ends) == 0 || rng.Intn(2) == 0 {
		ends = append(tombTIDs, 1)
	}
	slices.Sort(ends)
	i := rng.Intn(len(ends))
	win := [2]int64{ends[i], ends[min(len(ends)-1, i+rng.Intn(4))]}

	for _, sw := range []int{w, w + 1 + rng.Intn(2)} {
		scanned, s := scanKeys(t, src, sw, nil)
		same(fmt.Sprintf("scan at width %d", sw), scanned, all)
		if s.TombRowsChecked > int64(src.NumRows()-len(src.Mem)) {
			t.Fatalf("checked %d rows of %d", s.TombRowsChecked, src.NumRows())
		}
		windowed, s := scanKeys(t, src, sw, &win)
		same(fmt.Sprintf("scan at width %d of tuple ids %v", sw, win), windowed, keysIn(win[0], win[1]))
		if s.RowsSkippedByJoin > 0 {
			counts.cutWindows++
		}

		got = got[:0]
		for v := int64(0); v < 12; v++ {
			rel, _ := probeScan(t, src, sw, "r.a", engine.Int(v))
			for _, row := range rel.Rows {
				got = append(got, tupleKey(t, row, sw))
			}
		}
		same(fmt.Sprintf("index probe at width %d", sw), got, all)
	}
	return counts
}

// FuzzTombstoneFilter holds the merged tombstone pass (tombWindow) to
// the per-row reference, segDescriptor and TombBatch.Matches, on a
// segment and batches built from the fuzz bytes: descriptor columns that
// repeat a variable with any value, trivial and negative variables,
// tuple ids that ascend, as a decoded segment's do, and entries that are
// wildcards, a row's own descriptor, or any descriptor at all,
// normalized or not. Each row is checked in row order over the whole
// segment and over a window of rows.
func FuzzTombstoneFilter(f *testing.F) {
	f.Add([]byte{2, 12, 1, 3, 1, 2, 0, 0, 1, 4, 3, 2, 2, 1, 1, 1, 0, 5, 3, 2, 1, 0, 2, 7, 4, 1, 2, 0, 3, 1, 1})
	f.Add([]byte{3, 40, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12, 13, 14, 15, 4, 6, 1, 2, 3, 0, 1, 5, 6, 7, 2, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		width, n := next(4), next(48)
		seg := &segment{n: n, tid: make([]int64, n)}
		if width > 0 {
			seg.dvar, seg.drng = make([][]int64, width), make([][]int64, width)
			for k := 0; k < width; k++ {
				seg.dvar[k], seg.drng[k] = make([]int64, n), make([]int64, n)
			}
		}
		for r := 0; r < n; r++ {
			seg.tid[r] = int64(next(16) - 2)
			for k := 0; k < width; k++ {
				seg.dvar[k][r], seg.drng[k][r] = int64(next(5)-1), int64(next(3))
			}
		}
		slices.Sort(seg.tid)
		seg.tidLo, seg.tidHi, _ = tidBounds(seg.tid)

		var tf TombFilter
		for nb := next(5); nb > 0; nb-- {
			var tombs []WALTomb
			for ne := next(8); ne > 0; ne-- {
				switch tid := int64(next(16) - 2); next(4) {
				case 0:
					tombs = append(tombs, WALTomb{TID: tid, Wild: true})
				case 1:
					if n > 0 {
						r := next(n)
						tombs = append(tombs, WALTomb{TID: seg.tid[r], D: segDescriptor(seg, width, r)})
					}
				default:
					var d ws.Descriptor
					for k := next(4); k > 0; k-- {
						d = append(d, ws.A(ws.Var(next(5)-1), ws.Val(next(3))))
					}
					tombs = append(tombs, WALTomb{TID: tid, D: d})
				}
			}
			tf = append(tf, NewTombBatch(tombs, 1))
		}

		check := func(order []int) {
			if len(order) == 0 {
				return
			}
			lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
			for _, r := range order {
				lo, hi = min(lo, seg.tid[r]), max(hi, seg.tid[r])
			}
			var tw tombWindow
			hit := tw.reset(tf, lo, hi)
			for _, r := range order {
				want := refDeleted(tf, seg.tid[r], segDescriptor(seg, width, r))
				if want && !hit {
					t.Fatalf("row %d (tid %d) is deleted, but no tombstone falls in [%d, %d]", r, seg.tid[r], lo, hi)
				}
				if got := hit && tw.dead(seg, width, r); got != want {
					t.Fatalf("row %d (tid %d, descriptor %v) of order %v: dead %v, the reference says %v; batches %+v",
						r, seg.tid[r], segDescriptor(seg, width, r), order, got, want, tf)
				}
			}
		}
		rows := make([]int, n)
		for r := range rows {
			rows[r] = r
		}
		check(rows)
		a := next(n + 1)
		check(rows[a : a+next(n-a+1)])
	})
}
