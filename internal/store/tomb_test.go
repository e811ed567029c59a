package store

import (
	"fmt"
	"math/rand"
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

// scanKeys drains a fresh scan of src through NextColBatch and returns
// the live rows' keys, sorted, with the scan for its counters.
func scanKeys(t *testing.T, src *PartSource, w int) ([]string, *StoreScanIter) {
	t.Helper()
	it, err := src.ScanPlan(widthSchema(w), w, []int{0}, "u_r_a").(*StoreScanPlan).BuildIter(engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := it.(*StoreScanIter)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for {
		cb, ok, err := s.NextColBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, row := range cb.Materialize(nil) {
			keys = append(keys, tupleKey(t, row, w))
		}
	}
	sort.Strings(keys)
	return keys, s
}

// TestTombstonesCheckOnlyTheirSegments: a tombstone is looked up only
// in the segments whose tuple ids its batch meets. A three-segment base
// with deletes confined to its middle segment checks that segment's
// rows and no others (every row was checked against every batch
// before), and a segment no batch meets is skipped whole. The property
// leg draws random layouts — an ascending base, deltas in the unsorted
// order UPDATE reinserts leave, batches of mixed gens, wildcard
// tombstones — and holds the narrowed scan, the index lookup and Load
// to the unnarrowed per-row filter.
func TestTombstonesCheckOnlyTheirSegments(t *testing.T) {
	dir := t.TempDir()
	base := make([]int64, 192)
	for i := range base {
		base[i] = int64(i)
	}
	h := indexedLayer(t, dir, "base.useg", intRows(base, 1), 64) // tids 1..192, 64 per segment
	src := &PartSource{Layers: []*PartHandle{h}, IdxCols: []int{0}, Tomb: NewTombView([]TombBatch{
		NewTombBatch([]WALTomb{{TID: 70, Wild: true}, {TID: 75}}, 1),
		NewTombBatch([]WALTomb{{TID: 100}, {TID: 90, Wild: true}}, 1),
	})}
	keys, s := scanKeys(t, src, 0)
	if len(keys) != 188 {
		t.Fatalf("scan kept %d rows, want 188", len(keys))
	}
	if s.TombRowsChecked != 64 || s.TombSegmentsSkipped != 2 {
		t.Fatalf("tomb_rows_checked=%d tomb_segments_skipped=%d, want 64 and 2", s.TombRowsChecked, s.TombSegmentsSkipped)
	}
	li, err := src.ScanPlan(widthSchema(0), 0, []int{0}, "u_r_a").(*StoreScanPlan).LookupEq("r.a", engine.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := drainKeys(t, li, 1); len(got) != 1 || li.(*IndexLookupIter).TombSegmentsSkipped != 1 || li.(*IndexLookupIter).TombRowsChecked != 0 {
		t.Fatalf("lookup of a key in an untouched segment: %v, %+v", got, li)
	}

	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkTombLayout(t, rand.New(rand.NewSource(seed))) })
	}
}

// checkTombLayout builds one random layered, tombstoned partition and
// compares every read path with the unnarrowed per-row filter.
func checkTombLayout(t *testing.T, rng *rand.Rand) {
	dir := t.TempDir()
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
		return core.URow{D: desc(), TID: tid, Vals: []engine.Value{engine.Int(int64(rng.Intn(12)))}}
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
	gen := 1
	for nb := 1 + rng.Intn(10); nb > 0; nb-- {
		gen += rng.Intn(len(layers) + 1 - gen)
		// Deletes in a window of tuple ids, as a range DELETE leaves them.
		lo := 1 + rng.Int63n(maxTID)
		hi := lo + rng.Int63n(30)
		var tombs []WALTomb
		for i := 1 + rng.Intn(6); i > 0; i-- {
			tid := lo + rng.Int63n(hi-lo+1)
			switch rng.Intn(4) {
			case 0:
				tombs = append(tombs, WALTomb{TID: tid, Wild: true})
			case 1:
				tombs = append(tombs, WALTomb{TID: tid, D: desc()})
			default:
				// An existing row of a covered layer, matched exactly.
				ls := layers[rng.Intn(gen)]
				if len(ls) == 0 {
					continue
				}
				r := ls[rng.Intn(len(ls))]
				tombs = append(tombs, WALTomb{TID: r.TID, D: r.D})
			}
		}
		batches = append(batches, NewTombBatch(tombs, gen))
	}
	view := NewTombView(batches)

	src := &PartSource{IdxCols: []int{0}, Tomb: view}
	var want []string
	for li, rows := range layers {
		file := fmt.Sprintf("l%d.useg", li)
		src.Layers = append(src.Layers, indexedLayer(t, dir, file, rows, 8+rng.Intn(40)))
		f := view.Layer(li) // every row against every batch of its layer
		for _, r := range rows {
			if !f.Has(r.TID, r.D) {
				want = append(want, uRowKey(r))
			}
		}
	}
	for i := rng.Intn(5); i > 0; i-- {
		maxTID++
		r := row(maxTID)
		src.Mem = append(src.Mem, r)
		want = append(want, uRowKey(r))
	}
	sort.Strings(want)
	w := src.DescriptorWidth()

	same := func(path string, got []string) {
		t.Helper()
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %d rows, the per-row filter keeps %d:\n%v\n%v", path, len(got), len(want), got, want)
		}
	}
	scanned, s := scanKeys(t, src, w)
	same("narrowed scan", scanned)
	if s.TombRowsChecked > int64(src.NumRows()-len(src.Mem)) {
		t.Fatalf("checked %d rows of %d", s.TombRowsChecked, src.NumRows())
	}

	loaded, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range loaded {
		got = append(got, uRowKey(r))
	}
	same("Load", got)

	got = got[:0]
	for v := int64(0); v < 12; v++ {
		li, err := src.ScanPlan(widthSchema(w), w, []int{0}, "u_r_a").(*StoreScanPlan).LookupEq("r.a", engine.Int(v))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := engine.Drain(li)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rel.Rows {
			got = append(got, tupleKey(t, row, w))
		}
	}
	same("index lookup", got)
}
