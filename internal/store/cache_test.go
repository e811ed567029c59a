package store

import (
	"sync"
	"sync/atomic"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// drainScan runs a full scan over the handle and returns the tuples.
func drainScan(t *testing.T, h *PartHandle, pruned []bool) []engine.Tuple {
	t.Helper()
	it := &StoreScanIter{Src: srcOf(h), Sch: scanSchema(), Width: 0, AttrIdx: []int{0}, Pruned: [][]bool{pruned}}
	rel, err := engine.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return rel.Rows
}

// TestCachedRescanZeroReadAt is the acceptance-criteria proof: with a
// segment cache attached, re-scanning a partition issues zero ReadAt
// calls — every segment is served decoded from memory — and the cache
// reports the hits.
func TestCachedRescanZeroReadAt(t *testing.T) {
	tr, h := sortedPartition(t)
	cache := NewSegCache(64 << 20)
	h.SetCache(cache)

	tr.reset()
	cold := drainScan(t, h, nil)
	if len(cold) != 1000 {
		t.Fatalf("cold scan returned %d rows, want 1000", len(cold))
	}
	coldReads := len(tr.reads())
	if coldReads == 0 {
		t.Fatal("cold scan issued no reads")
	}

	tr.reset()
	warm := drainScan(t, h, nil)
	if len(warm) != 1000 {
		t.Fatalf("warm scan returned %d rows, want 1000", len(warm))
	}
	if got := tr.reads(); len(got) != 0 {
		t.Fatalf("warm scan issued %d ReadAt calls, want 0: %v", len(got), got)
	}
	st := cache.Stats()
	if st.Hits < 10 {
		t.Fatalf("cache reports %d hits, want >= 10 (one per segment)", st.Hits)
	}
	if st.Misses != 10 {
		t.Fatalf("cache reports %d misses, want 10", st.Misses)
	}
}

// TestCachedFilteredRescan covers the full repeated-selection path: the
// second identical filtered query prunes the same segments from the
// footer statistics and reads the survivors from the segment cache
// (zero ReadAt).
func TestCachedFilteredRescan(t *testing.T) {
	tr, h := sortedPartition(t)
	cache := NewSegCache(64 << 20)
	h.SetCache(cache)
	cond := engine.Cmp(engine.LT, engine.Col("r.a"), engine.ConstInt(250))

	run := func() int {
		plan := &StoreScanPlan{Src: srcOf(h), Sch: scanSchema(), Width: 0, AttrIdx: []int{0}, Name: "u_r_a"}
		plan.AdviseFilter(cond)
		if est := int(plan.EstimateRowCount()); est != 300 {
			t.Fatalf("EstimateRowCount = %d, want 300 (3 surviving segments)", est)
		}
		it, err := plan.BuildIter(engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := engine.Drain(engine.NewFilter(it, cond))
		if err != nil {
			t.Fatal(err)
		}
		return rel.Len()
	}

	if n := run(); n != 250 {
		t.Fatalf("first run returned %d rows, want 250", n)
	}

	tr.reset()
	if n := run(); n != 250 {
		t.Fatalf("second run returned %d rows, want 250", n)
	}
	if got := tr.reads(); len(got) != 0 {
		t.Fatalf("repeated query issued %d ReadAt calls, want 0 (segment cache)", len(got))
	}
}

// TestSegCacheEviction checks the byte budget is honored LRU-wise.
func TestSegCacheEviction(t *testing.T) {
	_, h := sortedPartition(t)
	// Each 100-row segment costs 100 * (2*0+1) * 8 = 800 bytes for the
	// tid column plus the int values; budget two segments' worth.
	seg0, err := h.ReadSegment(0)
	if err != nil {
		t.Fatal(err)
	}
	per := segmentCost(seg0)
	cache := NewSegCache(2 * per)
	h.SetCache(cache)

	for i := 0; i < 4; i++ {
		if _, err := h.ReadSegment(i); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2 (budget %d, per-segment %d)", st.Entries, 2*per, per)
	}
	if st.Evictions != 2 {
		t.Fatalf("cache evicted %d, want 2", st.Evictions)
	}
	if st.Bytes > st.CapBytes {
		t.Fatalf("cache holds %d bytes over budget %d", st.Bytes, st.CapBytes)
	}
	// Segment 3 is resident (most recent); reading it again is a hit.
	before := cache.Stats().Hits
	if _, err := h.ReadSegment(3); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != before+1 {
		t.Fatal("expected a hit on the most recently inserted segment")
	}
}

// TestSegCacheSingleflight proves concurrent cold misses on one
// segment decode it once: N goroutines race on an empty cache and the
// underlying reader sees exactly one payload fetch per segment.
func TestSegCacheSingleflight(t *testing.T) {
	tr, h := sortedPartition(t)
	cache := NewSegCache(64 << 20)
	h.SetCache(cache)
	tr.reset()

	const goroutines = 32
	var wg sync.WaitGroup
	var failures atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < h.NumSegments(); i++ {
				seg, err := h.ReadSegment(i)
				if err != nil || seg.n != 100 {
					failures.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatal("concurrent reads failed")
	}
	if got := len(tr.reads()); got != h.NumSegments() {
		t.Fatalf("%d ReadAt calls for %d segments under %d concurrent scans, want one decode per segment",
			got, h.NumSegments(), goroutines)
	}
	st := cache.Stats()
	if int(st.Misses) != h.NumSegments() {
		t.Fatalf("%d misses, want %d", st.Misses, h.NumSegments())
	}
}

// TestSegCacheCloseDuringLoad: a load in flight while its handle
// closes must not be inserted afterwards — handle ids are never
// reused, so the entry could never be hit again and would pin its
// bytes in a long-lived shared cache.
func TestSegCacheCloseDuringLoad(t *testing.T) {
	_, h := sortedPartition(t)
	cache := NewSegCache(64 << 20)
	h.SetCache(cache)

	seg, err := h.readSegment(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Emulate the race deterministically: invalidate (as Close does)
	// while a load result is about to be published.
	cache.invalidateHandle(h.id)
	cache.mu.Lock()
	cache.insert(segKey{handle: h.id, seg: 0}, seg)
	cache.mu.Unlock()
	if st := cache.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("closed handle's segment was retained: %+v", st)
	}
}

// TestSegCacheDisabled checks a zero-budget cache passes through.
func TestSegCacheDisabled(t *testing.T) {
	tr, h := sortedPartition(t)
	h.SetCache(NewSegCache(0))
	tr.reset()
	drainScan(t, h, nil)
	drainScan(t, h, nil)
	if len(tr.reads()) == 0 {
		t.Fatal("disabled cache should not retain segments")
	}
}

// TestSegmentCost pins what the cache charges for one decoded segment
// holding a column of each kind: three rows of descriptor width 1.
func TestSegmentCost(t *testing.T) {
	d := ws.MustDescriptor(ws.A(ws.Var(1), ws.Val(1)))
	rows := []core.URow{
		{D: d, TID: 1, Vals: []engine.Value{engine.Int(1), engine.Float(0.5), engine.Str("a"), engine.Bool(true), engine.Int(7), engine.Null()}},
		{D: d, TID: 2, Vals: []engine.Value{engine.Null(), engine.Float(1), engine.Str("bc"), engine.Bool(false), engine.Str("xyz"), engine.Null()}},
		{D: d, TID: 3, Vals: []engine.Value{engine.Int(3), engine.Float(2), engine.Str(""), engine.Bool(true), engine.Null(), engine.Null()}},
	}
	kinds := deriveKinds(rows, 6)
	want := []byte{byte(engine.KindInt), byte(engine.KindFloat), byte(engine.KindString), byte(engine.KindBool), kindMixed, byte(engine.KindNull)}
	if string(kinds) != string(want) {
		t.Fatalf("column kinds %v, want %v", kinds, want)
	}
	b, sm := encodeSegment(nil, rowSeq{rows: rows}, 1, kinds)
	seg, err := decodeSegment(b, &sm, 1, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The slab 3·(2·1+1)·8 = 72; the int column 3·8 and 3 null marks;
	// the float column 3·8; the string column 3·16 and 3 bytes; the bool
	// column 3·8; the mixed column three 40-byte Values and 3 bytes; the
	// all-null column 3 null marks.
	if got := segmentCost(seg); got != 72+27+24+51+24+123+3 {
		t.Errorf("segmentCost = %d, want %d", got, 72+27+24+51+24+123+3)
	}
}
