package store

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"urel/internal/engine"
)

// StoreScanPlan is the leaf plan over one stored partition (all of its
// file layers plus the source's in-memory delta). It implements
// engine.SourcePlan (so Build lowers it and the estimator costs it
// without the engine importing this package) and engine.FilterAdvisor:
// a selection evaluated directly above the scan prunes file segments
// whose footer min/max statistics refute it (refutes), and the
// surviving row count is what EstimateRowCount reports — so every
// choice made above the scan sees post-pruning cardinality. In-memory
// delta rows carry no statistics and are never pruned (they flow
// through the filter above), and tombstones are orthogonal to pruning:
// a pruned segment only loses rows the filter would reject anyway. The
// same advice may make the scan an index probe (indexProbe).
type StoreScanPlan struct {
	Src     *PartSource
	Sch     engine.Schema
	Width   int   // target descriptor width (>= stored width)
	AttrIdx []int // stored value-column index per schema attr column
	Name    string

	advised bool        // AdviseFilter ran: the plan is advised once
	pruned  [][]bool    // per layer, per segment; nil until pruning bites
	probe   *indexProbe // the equality the layers' runs serve; nil = none
	eq      *indexProbe // the probe's, or an unprobed int equality; nil = none
}

// indexProbe is an equality conjunct Col = Key of the filter on a scan
// whose stored column Ai has a run on every file layer: the scan reads
// of each layer only the rows its run locates. The filter stays above
// the scan, so the probe only decides which rows are read.
type indexProbe struct {
	Col string // the column's schema name
	Ai  int    // its stored value ordinal
	Key engine.Value
}

// Schema returns the scan's output schema.
func (p *StoreScanPlan) Schema(*engine.Catalog) (engine.Schema, error) { return p.Sch, nil }

// Children returns nil: the scan is a leaf.
func (p *StoreScanPlan) Children() []engine.Plan { return nil }

// WithChildren copies the node (leaves have no children to replace).
func (p *StoreScanPlan) WithChildren([]engine.Plan) engine.Plan { c := *p; return &c }

// Label renders the node for EXPLAIN, including the pruning outcome
// and any delta layers.
func (p *StoreScanPlan) Label() string {
	total := 0
	for _, h := range p.Src.Layers {
		total += h.NumSegments()
	}
	lbl := fmt.Sprintf("Store Scan on %s (%d/%d segments", p.Name, total-numPruned(p.pruned), total)
	if len(p.Src.Layers) > 1 {
		lbl += fmt.Sprintf(", %d layers", len(p.Src.Layers))
	}
	if n := len(p.Src.Mem); n > 0 {
		lbl += fmt.Sprintf(", +%d delta rows", n)
	}
	if n := p.Src.Tomb.Len(); n > 0 {
		lbl += fmt.Sprintf(", %d tombstones", n)
	}
	if p.probe != nil {
		lbl += fmt.Sprintf(", index %s = %s", p.probe.Col, p.probe.Key.Quoted())
	}
	return lbl + ")"
}

func numPruned(pruned [][]bool) int {
	n := 0
	for _, layer := range pruned {
		for _, sk := range layer {
			if sk {
				n++
			}
		}
	}
	return n
}

// EstimateRowCount sums the rows of the surviving segments plus the
// in-memory delta. A probe reads what its runs locate: per layer, its
// rows over its distinct keys, exactly from the run, and a guess of a
// hundredth of the unindexed delta.
func (p *StoreScanPlan) EstimateRowCount() float64 {
	if p.probe != nil {
		est := float64(len(p.Src.Mem)) / 100
		for _, h := range p.Src.Layers {
			if run := h.indexRun(IdxKeyAttr(p.probe.Ai)); run != nil && run.ndv > 0 {
				est += float64(len(run.locs)) / float64(run.ndv)
			}
		}
		return math.Max(1, est)
	}
	rows := len(p.Src.Mem)
	for li, h := range p.Src.Layers {
		for i := 0; i < h.NumSegments(); i++ {
			if p.pruned == nil || p.pruned[li] == nil || !p.pruned[li][i] {
				rows += h.SegmentRows(i)
			}
		}
	}
	return float64(rows)
}

// SourceStats reports what the scan knows without reading a segment
// (engine.StatsSource): its row count, and that the tuple-id column is
// close to a key — one row per tuple and alternative — so a tid-merge of
// two partitions of one relation is estimated as the key join it is,
// not divided by a default NDV. A probed column holds one value, so the
// equality above a probe selects every row the probe reads; an int
// column an equality leaves to the zone maps holds, in each surviving
// segment, at most min(non-nulls, max − min + 1) values.
func (p *StoreScanPlan) SourceStats() *engine.TableStats {
	rows := p.EstimateRowCount()
	n := 2*p.Width + 1 // up to the tuple id, the last column known…
	if p.eq != nil {
		n = max(n, p.Sch.IndexOf(p.eq.Col)+1) // …or the equality's
	}
	cols := make([]engine.ColStats, n)
	cols[2*p.Width].NDV = math.Max(1, rows)
	if p.eq != nil {
		ndv := 0.0 // under a probe, 1: it reads only the key's rows
		for li, h := range p.Src.Layers {
			for i := range h.meta.Segs {
				if st := h.meta.Segs[i].Stats[p.eq.Ai]; p.probe == nil && (p.pruned == nil || p.pruned[li] == nil || !p.pruned[li][i]) && st.NonNull > 0 {
					ndv += math.Min(float64(st.NonNull), float64(st.Max.I)-float64(st.Min.I)+1)
				}
			}
		}
		cols[p.Sch.IndexOf(p.eq.Col)].NDV = math.Max(1, ndv)
	}
	return &engine.TableStats{Rows: rows, Cols: cols}
}

// BuildIter lowers the scan to its physical iterator.
func (p *StoreScanPlan) BuildIter(engine.ExecConfig) (engine.Iterator, error) {
	return &StoreScanIter{Src: p.Src, Sch: p.Sch, Width: p.Width, AttrIdx: p.AttrIdx, Pruned: p.pruned, Probe: p.probe}, nil
}

// AdviseFilter marks the segments that provably produce no row
// satisfying a predicate applied directly above the scan (refutes). The
// advice is safe because a comparison over NULL evaluates to false
// (engine.CmpExpr), so min/max over the non-null values — ordered by
// engine.Compare, the evaluator's own order — bound every row that
// could pass, and an OR none of whose arms can be TRUE is not TRUE.
// The first conjunct col = k (k not NULL) on a declared index column
// becomes the scan's probe where the zone maps leave it more than one
// segment, summed over the layers, and every layer has a run. Where they
// leave one, a probe would read that segment after decoding a whole run,
// so the scan reads it without one (a clustered key never probes), and
// the zone maps bound its int column's NDV for the estimate (eq).
// The plan takes advice once (engine.FilterAdvisor): a later call, such
// as the Build of a plan Optimize advised, reads nothing and writes
// nothing, so concurrent executions share the plan and the bitmaps it
// holds.
func (p *StoreScanPlan) AdviseFilter(cond engine.Expr) {
	if p.advised {
		return
	}
	p.advised = true
	left := 0
	for li, h := range p.Src.Layers {
		for i := range h.meta.Segs {
			if !p.refutes(cond, h.meta.Segs[i].Stats) {
				left++
				continue
			}
			if p.pruned == nil {
				p.pruned = make([][]bool, len(p.Src.Layers))
			}
			if p.pruned[li] == nil {
				p.pruned[li] = make([]bool, len(h.meta.Segs))
			}
			p.pruned[li][i] = true
		}
	}
	for _, c := range engine.SplitConjuncts(cond) {
		if cmp, ok := c.(*engine.CmpExpr); ok && cmp.Op == engine.EQ {
			col, cst, _, ok := engine.NormalizeColCmp(cmp)
			if ai, indexed := p.indexedAttr(col, left > 1); ok && indexed && !cst.IsNull() {
				eq := &indexProbe{Col: p.Sch.Cols[p.Sch.IndexOf(col)].Name, Ai: ai, Key: cst}
				if left > 1 {
					p.probe, p.eq = eq, eq
				} else if p.Sch.Cols[p.Sch.IndexOf(col)].Kind == engine.KindInt {
					p.eq = eq
				}
				break
			}
		}
	}
}

// indexedAttr resolves a value column of the scan to its stored ordinal
// when the relation declares an index on it, the scan has a file layer
// and, if runs is set, every layer carries its run (which loads them).
func (p *StoreScanPlan) indexedAttr(col string, runs bool) (int, bool) {
	a := p.Sch.IndexOf(col) - (2*p.Width + 1)
	if a < 0 || a >= len(p.AttrIdx) || len(p.Src.Layers) == 0 || !slices.Contains(p.Src.IdxCols, p.AttrIdx[a]) {
		return 0, false
	}
	for _, h := range p.Src.Layers {
		if runs && h.indexRun(IdxKeyAttr(p.AttrIdx[a])) == nil {
			return 0, false
		}
	}
	return p.AttrIdx[a], true
}

// refutes reports whether no row of a segment with column statistics
// stats can satisfy e: a comparison of a value column with a constant
// that segmentRefutes, an AND with a refuted conjunct, or an OR whose
// every arm is refuted. Nothing else is refuted.
func (p *StoreScanPlan) refutes(e engine.Expr, stats []colStats) bool {
	switch e := e.(type) {
	case *engine.CmpExpr:
		col, cst, op, ok := engine.NormalizeColCmp(e)
		attrStart := 2*p.Width + 1 // descriptor pairs, then tid, then attrs
		si := p.Sch.IndexOf(col)
		return ok && si >= attrStart && si < p.Sch.Len() && segmentRefutes(stats[p.AttrIdx[si-attrStart]], op, cst)
	case *engine.LogicExpr:
		refuted := func(a engine.Expr) bool { return p.refutes(a, stats) }
		switch e.Op {
		case engine.AndOp:
			return slices.ContainsFunc(e.Args, refuted)
		case engine.OrOp:
			return !slices.ContainsFunc(e.Args, func(a engine.Expr) bool { return !refuted(a) })
		}
	}
	return false
}

// segmentRefutes reports whether no row of a segment can satisfy
// "col op cst" given the column's statistics.
func segmentRefutes(st colStats, op engine.CmpOp, cst engine.Value) bool {
	if st.NonNull == 0 {
		// Every value is NULL; NULL satisfies no comparison.
		return true
	}
	switch op {
	case engine.EQ:
		return engine.Compare(cst, st.Min) < 0 || engine.Compare(cst, st.Max) > 0
	case engine.NE:
		return engine.Compare(st.Min, st.Max) == 0 && engine.Compare(st.Min, cst) == 0
	case engine.LT:
		return engine.Compare(st.Min, cst) >= 0
	case engine.LE:
		return engine.Compare(st.Min, cst) > 0
	case engine.GT:
		return engine.Compare(st.Max, cst) <= 0
	case engine.GE:
		return engine.Compare(st.Max, cst) < 0
	default:
		return false
	}
}

// StoreScanIter is the cold-scan physical operator. Every file layer is
// one run in tid order, and so is the source's in-memory delta, a
// segment encoded once per source (PartSource.memSegment). Next serves
// one run a segment per batch and merges several by tid, each batch a
// window of the run with the least tuple id up to the next run's; a
// stitch asks the scan for the rows of tuple ids instead (Lookup). The
// decoded vectors are served zero-copy behind a selection vector of the
// live rows: a probed scan (indexProbe) reads of each layer only the
// segments its run locates rows in and selects only those rows, and
// tombstones drop rows in one pass beside the tombstones in their tuple
// ids (tombWindow), so a segment none of them touched pays nothing per
// row. Keys handed down (NarrowKeys) leave unread the segments whose
// bounds hold none, narrow a segment read to the window of the tid
// column's range and drop the rows whose key a list leaves out.
type StoreScanIter struct {
	Src     *PartSource
	Sch     engine.Schema
	Width   int
	AttrIdx []int
	Pruned  [][]bool    // per layer, segments to skip (nil = scan everything)
	Probe   *indexProbe // read only the rows the runs locate (nil = all)

	// SegmentsRead counts file segments actually fetched and decoded;
	// tests and EXPLAIN ANALYZE-style introspection read it after a
	// scan. CacheHits counts how many of those were served from the
	// shared decoded-segment cache; BytesDecoded is the encoded size of
	// the segments this scan itself fetched and decoded (misses only).
	SegmentsRead int
	CacheHits    int64
	BytesDecoded int64
	// TombRowsChecked counts rows looked up against some tombstone
	// batch; TombSegmentsSkipped counts segments of a tombstoned layer
	// that no batch's tuple ids meet, which cost no per-row work.
	TombRowsChecked     int64
	TombSegmentsSkipped int64
	// SegmentsSkippedByJoin counts file segments none of whose rows the
	// keys an operator above handed down let through: left unread
	// because their bounds hold no key, or read and found to serve no
	// row. RowsSkippedByJoin counts the rows of the segments read, and
	// of the delta, that a tid window or a key list left out.
	SegmentsSkippedByJoin int64
	RowsSkippedByJoin     int64
	// A probe's effects: runs looked up and rejected by their bloom
	// filters, layers scanned whole instead (no run, or a stale one), and
	// runs found pointing at a row without the key.
	RunsConsulted   int64
	BloomRejections int64
	FallbackLayers  int64
	StaleRuns       int64

	keys    []engine.ColKeys // the keys handed down (NarrowKeys)
	started bool             // runs is set up
	runs    []scanRun
	ids     []int32 // 0, 1, 2, …: the selection of a window of a run without one
	cb      engine.ColBatch
	pad     []int64  // shared zero column for width padding
	owned   recycler // the buffers of the segments it decoded for itself

	// Lookups answered, and the last one's pieces laid out as batches,
	// rows found, the vectors it gathered them into and its selection.
	calls int
	bats  []engine.ColBatch
	refs  []engine.RowRef
	found []engine.ColVec
	sel   []int32
}

// scanRun is one run of rows in tid order that a scan merges: segments
// [next, end) of a file layer still to read, or of hits — a probed
// layer's, or the delta (layer = len(Layers), one segment). Its rows are
// served from a piece — a window of a segment — whose vectors cols hold
// n rows, sel the live ones (nil = all), pos the next live one to serve.
type scanRun struct {
	layer, next, end int
	hits             []probeHit // segments in memory: a probe's, read and checked, or the delta
	tombs            tombWindow // the layer's tombstones in the piece's tuple ids
	keyed            []int32    // reused selection of the rows a key list keeps
	cols             []engine.ColVec
	sel              []int32
	n, pos           int
	held             []piece // by lookup: the segments read that ids still to come may lie in
}

// piece is a segment a lookup read: the tuple ids of its rows — of a
// probed segment the located ones — from at, the first that no id asked
// has passed, and its layer's tombstones in those tuple ids.
type piece struct {
	seg     *segment
	fw      int
	tids    []int64 // of its rows
	located []int32 // nil: every row
	at      int
	tombs   tombWindow
	dead    bool  // tombs holds some
	stamp   int   // the lookup that last found a row in it…
	batch   int32 // …and its batch in that lookup's answer
}

func (r *scanRun) rows() int {
	if r.sel != nil {
		return len(r.sel)
	}
	return r.n
}

// tid is the tuple id of live row k of the piece; the tid column sits
// after the width descriptor pairs.
func (r *scanRun) tid(width, k int) int64 {
	if r.sel != nil {
		k = int(r.sel[k])
	}
	return r.cols[2*width].Ints[k]
}

var (
	_ engine.KeyNarrower = (*StoreScanIter)(nil)
	_ engine.RowLookup   = (*StoreScanIter)(nil)
)

// probeHit is a segment in memory, stored at descriptor width fw: one a
// probe's run locates rows in, and those rows in ascending order, or the
// delta (rows nil: all of them).
type probeHit struct {
	seg  *segment
	fw   int
	rows []int32
}

// Open resets the scan to the first segment.
func (s *StoreScanIter) Open() error {
	s.release()
	s.started, s.runs = false, s.runs[:0]
	s.SegmentsRead, s.CacheHits, s.BytesDecoded = 0, 0, 0
	s.TombRowsChecked, s.TombSegmentsSkipped, s.SegmentsSkippedByJoin, s.RowsSkippedByJoin = 0, 0, 0, 0
	s.RunsConsulted, s.BloomRejections, s.FallbackLayers, s.StaleRuns = 0, 0, 0, 0
	s.keys, s.calls = s.keys[:0], 0
	return nil
}

// NarrowKeys (engine.KeyNarrower) makes the scan skip every file
// segment whose bounds on column col hold no key — the footer's tid
// bounds for the tuple-id column, the zone map of a value column its
// layer stores as ints, searched in a list by binary search — serve of a
// segment read, and of the delta, only the window of rows with a tid in
// the keys' range, and drop the rows whose int key a list leaves out.
// Other columns skip nothing; the operator above drops what does not
// match. The scan keeps every key it is handed.
func (s *StoreScanIter) NarrowKeys(col int, keys engine.Keys) {
	s.keys = append(s.keys, engine.ColKeys{Col: col, Keys: keys})
}

// missesKeys reports whether segment i of h holds no row whose key
// column holds a key handed down.
func (s *StoreScanIter) missesKeys(h *PartHandle, i int) bool {
	sm := &h.meta.Segs[i]
	for _, k := range s.keys {
		switch a := k.Col - (2*s.Width + 1); {
		case a == -1:
			if !k.Meets(sm.TidLo, sm.TidHi) {
				return true
			}
		case a >= 0 && a < len(s.AttrIdx) && h.meta.Kinds[s.AttrIdx[a]] == byte(engine.KindInt):
			if st := &sm.Stats[s.AttrIdx[a]]; st.NonNull == 0 || !k.Meets(st.Min.I, st.Max.I) {
				return true
			}
		}
	}
	return false
}

// startRuns sets the scan's runs up: one per file layer (of a probed
// layer, over the segments its run locates) and one for the delta.
func (s *StoreScanIter) startRuns() error {
	s.started = true
	if s.Probe != nil {
		idxLookupsTotal.Inc()
	}
	for li, h := range s.Src.Layers {
		if s.Probe != nil {
			hits, ok, err := s.probe(li, h)
			if err != nil {
				return err
			}
			if ok {
				if len(hits) > 0 {
					s.runs = append(s.runs, scanRun{layer: li, hits: hits, end: len(hits)})
				}
				continue
			}
		}
		s.runs = append(s.runs, scanRun{layer: li, end: h.NumSegments()})
	}
	if len(s.Src.Mem) > 0 {
		delta := []probeHit{{seg: s.Src.memSegment(), fw: s.Src.memWidth()}}
		s.runs = append(s.runs, scanRun{layer: len(s.Src.Layers), hits: delta, end: 1})
	}
	return nil
}

// skips reports whether the scan leaves segment i of layer li unread:
// pruned by the filter's zone maps, or holding no key handed down.
func (s *StoreScanIter) skips(li, i int) bool {
	if s.Pruned != nil && s.Pruned[li] != nil && s.Pruned[li][i] {
		return true
	}
	if s.missesKeys(s.Src.Layers[li], i) {
		s.SegmentsSkippedByJoin++
		return true
	}
	return false
}

// readSeg fetches and decodes segment i of h, counting it. Without a
// cache that keeps it the scan owns the segment: it decodes into pooled
// buffers, which Close hands back.
func (s *StoreScanIter) readSeg(h *PartHandle, i int) (*segment, error) {
	seg, hit, err := h.ReadSegmentStats(i, &s.owned)
	if err != nil {
		return nil, err
	}
	s.SegmentsRead++
	if hit {
		s.CacheHits++
	} else {
		s.BytesDecoded += h.SegmentBytes(i)
	}
	return seg, nil
}

// probe looks the probed key up in layer li's run, then reads each
// segment the run locates rows in and the scan does not skip, and checks
// that every located row carries the key. ok is false when the layer is
// to be scanned whole instead: it has no run, or its run points at a row
// without the key — debris of an interrupted rewrite, recorded on the
// handle so the next compaction rewrites the layer. The index can cost
// time, never an answer.
func (s *StoreScanIter) probe(li int, h *PartHandle) (hits []probeHit, ok bool, err error) {
	key := IdxKeyAttr(s.Probe.Ai)
	run := h.indexRun(key)
	if run == nil {
		s.FallbackLayers++
		return nil, false, nil
	}
	locs, rejected := run.lookup(s.Probe.Key)
	s.RunsConsulted++
	if rejected {
		s.BloomRejections++
		idxBloomMissesTotal.Inc()
	} else {
		idxBloomHitsTotal.Inc()
	}
	for len(locs) > 0 {
		i, k := int(locs[0].seg), 1
		for k < len(locs) && locs[k].seg == locs[0].seg {
			k++
		}
		at := locs[:k]
		locs = locs[k:]
		if i >= h.NumSegments() {
			return s.stale(h, key)
		}
		if s.skips(li, i) {
			continue
		}
		seg, err := s.readSeg(h, i)
		if err != nil {
			return nil, false, err
		}
		rows := make([]int32, len(at))
		for j, l := range at {
			if int(l.row) >= seg.n || engine.Compare(seg.cols[s.Probe.Ai].Value(int(l.row)), s.Probe.Key) != 0 {
				return s.stale(h, key)
			}
			rows[j] = int32(l.row)
		}
		hits = append(hits, probeHit{seg: seg, fw: h.Width(), rows: rows})
	}
	return hits, true, nil
}

// stale records a run found pointing at a row without its key, and has
// its layer scanned whole.
func (s *StoreScanIter) stale(h *PartHandle, key string) ([]probeHit, bool, error) {
	idxStaleTotal.Inc()
	h.markRunStale(key)
	s.StaleRuns++
	s.FallbackLayers++
	return nil, false, nil
}

// load makes the run's next segment with a live row that the pruning,
// the probe and the keys let through its piece; a run without one is
// left empty.
func (s *StoreScanIter) load(r *scanRun) error {
	r.n, r.sel, r.pos = 0, nil, 0
	for r.next < r.end {
		r.next++
		seg, fw, located, err := s.fetch(r, r.next-1)
		if err != nil {
			return err
		}
		if seg == nil || seg.n == 0 {
			continue
		}
		lo, hi := s.tidWindow(seg)
		if lo >= hi {
			if r.layer < len(s.Src.Layers) {
				s.SegmentsSkippedByJoin++
			}
			continue
		}
		sel := s.liveSel(r, seg, fw, lo, hi, located)
		if sel != nil && len(sel) == 0 {
			continue
		}
		r.cols = s.segCols(r.cols, seg, fw, lo, hi)
		sel, dropped := engine.SelectKeyed(s.keys, r.cols, hi-lo, sel, &r.keyed)
		if s.RowsSkippedByJoin += int64(dropped); sel != nil && len(sel) == 0 {
			if r.layer < len(s.Src.Layers) {
				s.SegmentsSkippedByJoin++
			}
			continue
		}
		r.n, r.sel = hi-lo, sel
		return nil
	}
	return nil
}

// fetch reads segment i of the run — the delta, a probed segment and
// the rows its run located, or a file segment — and gives its
// descriptor width; nil when the scan skips it.
func (s *StoreScanIter) fetch(r *scanRun, i int) (seg *segment, fw int, located []int32, err error) {
	switch {
	case r.hits != nil:
		return r.hits[i].seg, r.hits[i].fw, r.hits[i].rows, nil
	case s.skips(r.layer, i):
		return nil, 0, nil, nil
	}
	h := s.Src.Layers[r.layer]
	seg, err = s.readSeg(h, i)
	return seg, h.Width(), nil, err
}

// tidWindow returns the rows of a decoded segment to serve: all of
// them, or, when keys were handed down on the tid column, those from the
// first with a tid ≥ the greatest low end of their ranges to the first
// with a tid > the least high end.
func (s *StoreScanIter) tidWindow(seg *segment) (lo, hi int) {
	klo, khi := s.tidRange()
	tid := seg.tid
	lo = sort.Search(len(tid), func(i int) bool { return tid[i] >= klo })
	hi = lo + sort.Search(len(tid)-lo, func(i int) bool { return tid[lo+i] > khi })
	s.RowsSkippedByJoin += int64(seg.n - (hi - lo))
	return lo, hi
}

// tidRange is the range of tuple ids every key handed down on the tid
// column lets through.
func (s *StoreScanIter) tidRange() (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, k := range s.keys {
		if k.Col == 2*s.Width {
			lo, hi = max(lo, k.Lo), min(hi, k.Hi)
		}
	}
	return lo, hi
}

// tombs sets w to layer li's tombstones in the tuple ids [lo, hi] and
// reports whether there are any, counting a tombstoned layer's segment
// without any as skipped. The delta is never filtered: commits remove
// deleted memtable rows eagerly.
func (s *StoreScanIter) tombs(li int, w *tombWindow, lo, hi int64) bool {
	if li == len(s.Src.Layers) || s.Src.Tomb.Layer(li) == nil {
		return false
	}
	if w.reset(s.Src.Tomb.Layer(li), lo, hi) {
		return true
	}
	s.TombSegmentsSkipped++
	return false
}

// liveSel builds the selection vector of the rows of window [lo, hi) of
// a decoded segment of the run's layer to serve — of a probed segment
// only its located rows — in one pass beside the layer's tombstones that
// fall in those rows' tuple ids, or nil when every row of the window is
// served. The selection counts from lo.
func (s *StoreScanIter) liveSel(run *scanRun, seg *segment, width, lo, hi int, located []int32) []int32 {
	tombs := s.tombs(run.layer, &run.tombs, seg.tid[lo], seg.tid[hi-1])
	if located != nil {
		// The located rows are the scan's own: select in place.
		sel := located[:0]
		for _, r := range located {
			if int(r) < lo || int(r) >= hi {
				continue
			}
			if tombs {
				s.TombRowsChecked++
				if run.tombs.dead(seg, width, int(r)) {
					continue
				}
			}
			sel = append(sel, r-int32(lo))
		}
		return sel
	}
	if !tombs {
		return nil
	}
	s.TombRowsChecked += int64(hi - lo)
	if run.tombs.sel == nil {
		// Non-nil even when empty: an all-dead segment must yield an
		// empty selection, not the nil "select everything".
		run.tombs.sel = make([]int32, 0, hi-lo)
	}
	sel := run.tombs.sel[:0]
	for r := lo; r < hi; r++ {
		if !run.tombs.dead(seg, width, r) {
			sel = append(sel, int32(r-lo))
		}
	}
	run.tombs.sel = sel
	if len(sel) == hi-lo {
		return nil
	}
	return sel
}

// Next serves the rows of the run with the least tuple id, up to the
// least tuple id of another run: with one run, a whole piece — a file
// segment's window, or the delta — per batch. Decoded segments are
// immutable and shared (see SegCache), so their vectors are served
// zero-copy, as windows when a join narrowed the scan to a tid range;
// tombstones and the merge only narrow the batch's selection vector.
func (s *StoreScanIter) Next() (*engine.ColBatch, bool, error) {
	if !s.started {
		if err := s.startRuns(); err != nil {
			return nil, false, err
		}
	}
	best, bt, other := -1, int64(0), int64(math.MaxInt64)
	for i := range s.runs {
		r := &s.runs[i]
		if r.pos >= r.rows() {
			if err := s.load(r); err != nil {
				return nil, false, err
			}
			if r.rows() == 0 {
				continue
			}
		}
		switch t := r.tid(s.Width, r.pos); {
		case best < 0:
			best, bt = i, t
		case t < bt:
			best, bt, other = i, t, min(other, bt)
		default:
			other = min(other, t)
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	r := &s.runs[best]
	end := r.rows()
	if r.tid(s.Width, end-1) > other {
		end = r.pos + sort.Search(end-r.pos, func(k int) bool { return r.tid(s.Width, r.pos+k) > other })
	}
	sel := r.sel
	switch {
	case r.pos == 0 && end == r.rows():
	case sel != nil:
		sel = sel[r.pos:end]
	default:
		for len(s.ids) < end {
			s.ids = append(s.ids, int32(len(s.ids)))
		}
		sel = s.ids[r.pos:end]
	}
	r.pos = end
	s.cb = engine.ColBatch{Sch: s.Sch, Cols: r.cols, N: r.n, Sel: sel}
	return &s.cb, true, nil
}

// Lookup (engine.RowLookup) answers on the tuple-id column.
func (s *StoreScanIter) Lookup(col int) func([]int64, []int32) (*engine.ColBatch, error) {
	if col != 2*s.Width {
		return nil
	}
	return s.lookup
}

// lookup finds the rows of the ids asked in each run (find), dropping,
// as Next does, those outside the keys' tid range, the deleted ones and
// those a key list leaves out. They come back as a selection over the
// vectors of the one piece holding them all, or else gathered in tid
// order — an id's rows run by run — into vectors the scan reuses.
func (s *StoreScanIter) lookup(keys []int64, of []int32) (*engine.ColBatch, error) {
	if !s.started {
		if err := s.startRuns(); err != nil {
			return nil, err
		}
	}
	s.calls++
	s.bats, s.refs = s.bats[:0], slices.Grow(s.refs[:0], len(of))
	klo, khi := s.tidRange()
	for k, i := range of {
		if t := keys[i]; (k == 0 || t != keys[of[k-1]]) && t >= klo && t <= khi {
			for ri := range s.runs {
				if err := s.find(&s.runs[ri], t); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(s.refs) == 0 {
		return nil, nil
	}
	cb, sel := s.bats[0], slices.Grow(s.sel[:0], len(s.refs))
	for k, ref := range s.refs {
		if len(s.bats) > 1 {
			ref.Row = int32(k)
		}
		sel = append(sel, ref.Row)
	}
	if s.sel = sel; len(s.bats) > 1 {
		s.found = engine.GatherRows(s.found, s.bats, s.refs)
		cb = engine.ColBatch{Cols: s.found, N: len(s.refs)}
	}
	sel, dropped := engine.SelectKeyed(s.keys, cb.Cols, cb.N, sel, &s.sel)
	if s.RowsSkippedByJoin += int64(dropped); len(sel) == 0 {
		return nil, nil
	}
	s.cb = engine.ColBatch{Sch: s.Sch, Cols: cb.Cols, N: cb.N, Sel: sel}
	return &s.cb, nil
}

// find adds the live rows of tuple id t in run r to the answer. The ids
// ascend across calls, so the run walks forward beside them: it lets go
// of the held pieces whose tuple ids end below t, reads — at most once —
// the segments whose footer's tid bounds hold t, leaving those that end
// below it unread, and finds t's rows in each piece that may hold them by
// galloping search from where the id before stopped (engine.Gallop).
func (s *StoreScanIter) find(r *scanRun, t int64) error {
	for len(r.held) > 0 && r.held[0].seg.tidHi < t {
		r.held[0].tombs.release()
		r.held = append(r.held[:0], r.held[1:]...)
	}
	for r.next < r.end {
		lo, hi := s.bounds(r, r.next)
		if lo > t {
			break
		}
		if r.next++; hi < t {
			s.pass(r, r.next-1)
		} else if err := s.hold(r, r.next-1); err != nil {
			return err
		}
	}
	for j := 0; j < len(r.held) && r.held[j].seg.tidLo <= t; j++ {
		p := &r.held[j]
		p.at = engine.Gallop(p.tids, p.at, len(p.tids), t)
		for k := p.at; k < len(p.tids) && p.tids[k] == t; k++ {
			row := int32(k) // the segment's row
			if p.located != nil {
				row = p.located[k]
			}
			if p.dead {
				if s.TombRowsChecked++; p.tombs.dead(p.seg, p.fw, int(row)) {
					continue
				}
			}
			if p.stamp != s.calls { // the first row found in it: lay it out
				p.stamp, p.batch = s.calls, int32(len(s.bats))
				s.bats = slices.Grow(s.bats, 1)[:p.batch+1]
				b := &s.bats[p.batch]
				b.Cols, b.N = s.segCols(b.Cols, p.seg, p.fw, 0, p.seg.n), p.seg.n
			}
			s.refs = append(s.refs, engine.RowRef{Batch: p.batch, Row: row})
		}
	}
	return nil
}

// pass counts file segment i of the run, which a lookup leaves unread
// because its tuple ids hold no id asked, as skipped by the join, unless
// the filter pruned it.
func (s *StoreScanIter) pass(r *scanRun, i int) {
	if r.hits == nil && (s.Pruned == nil || s.Pruned[r.layer] == nil || !s.Pruned[r.layer][i]) {
		s.SegmentsSkippedByJoin++
	}
}

// bounds are the tuple ids segment i of the run holds at most: its
// footer's, or of a segment already read, its own.
func (s *StoreScanIter) bounds(r *scanRun, i int) (lo, hi int64) {
	if r.hits != nil {
		return r.hits[i].seg.tidLo, r.hits[i].seg.tidHi
	}
	sm := &s.Src.Layers[r.layer].meta.Segs[i]
	return sm.TidLo, sm.TidHi
}

// hold reads segment i of the run, unless the scan skips it (pruned,
// or holding no key handed down), and holds it as a piece.
func (s *StoreScanIter) hold(r *scanRun, i int) error {
	seg, fw, located, err := s.fetch(r, i)
	if err != nil || seg == nil || seg.n == 0 {
		return err
	}
	p := piece{seg: seg, fw: fw, tids: seg.tid, located: located}
	if located != nil {
		p.tids = make([]int64, len(located))
		for k, row := range located {
			p.tids[k] = seg.tid[row]
		}
	}
	p.dead = s.tombs(r.layer, &p.tombs, seg.tidLo, seg.tidHi)
	r.held = append(r.held, p)
	return nil
}

// segCols lays rows [lo, hi) of a decoded segment stored at descriptor
// width fw out in cols as the scan's columns, sharing the segment's
// vectors: descriptor and tid columns as typed int vectors (a short
// descriptor padded as ws.Descriptor.Pad pads it), value columns as
// their decoded typed vectors.
func (s *StoreScanIter) segCols(cols []engine.ColVec, seg *segment, fw, lo, hi int) []engine.ColVec {
	cols = slices.Grow(cols[:0], s.Sch.Len())[:s.Sch.Len()]
	for k := 0; k < s.Width; k++ {
		src := k
		if src >= fw {
			src = 0
		}
		if fw == 0 {
			z := s.zeroPad(hi - lo)
			cols[2*k] = engine.IntVec(z, nil)
			cols[2*k+1] = engine.IntVec(z, nil)
		} else {
			cols[2*k] = engine.IntVec(seg.dvar[src][lo:hi:hi], nil)
			cols[2*k+1] = engine.IntVec(seg.drng[src][lo:hi:hi], nil)
		}
	}
	cols[2*s.Width] = engine.IntVec(seg.tid[lo:hi:hi], nil)
	for j, ai := range s.AttrIdx {
		cols[2*s.Width+1+j] = seg.cols[ai].Slice(lo, hi)
	}
	return cols
}

// zeroPad returns a shared all-zero int column of length n (only used
// for databases stored with descriptor width zero).
func (s *StoreScanIter) zeroPad(n int) []int64 {
	if len(s.pad) < n {
		s.pad = make([]int64, n)
	}
	return s.pad[:n]
}

// Close releases the scan's references (the shared handles stay open)
// and recycles the buffers of the segments it owns — not Open: a
// consumer may keep a scan's vectors until it closes the scan. The stat
// counters survive Close so tracing can collect them.
func (s *StoreScanIter) Close() error {
	for i := range s.runs { // by lookup, the segments past the last id asked
		for r := &s.runs[i]; s.calls > 0 && r.next < r.end; r.next++ {
			s.pass(r, r.next)
		}
	}
	s.release()
	for b := s.owned; b != nil; b = b.recycle() {
	}
	s.owned = nil
	return nil
}

// release returns the runs' and their pieces' tombstone buffers.
func (s *StoreScanIter) release() {
	for i := range s.runs {
		r := &s.runs[i]
		for j := range r.held {
			r.held[j].tombs.release()
		}
		r.tombs.release()
	}
}

// OperatorStats reports the scan's store-side effects to a trace span
// (engine.OperatorStats): segments fetched, segments skipped by
// min/max pruning, shared-cache hits, bytes this scan fetched and
// decoded itself, the segments and rows a join's keys skipped, when keys were handed down,
// over a tombstoned partition the tombstone filter's work, and a
// probe's runs, bloom rejections and degraded layers.
func (s *StoreScanIter) OperatorStats(emit func(key string, v int64)) {
	emit("segments_read", int64(s.SegmentsRead))
	emit("cache_hits", s.CacheHits)
	emit("bytes_decoded", s.BytesDecoded)
	if len(s.keys) > 0 || s.calls > 0 {
		emit("segments_skipped_by_join", s.SegmentsSkippedByJoin)
	}
	if len(s.keys) > 0 {
		emit("rows_skipped_by_join", s.RowsSkippedByJoin)
	}
	if s.Src.Tomb != nil {
		emit("tomb_rows_checked", s.TombRowsChecked)
		emit("tomb_segments_skipped", s.TombSegmentsSkipped)
	}
	emit("segments_pruned", int64(numPruned(s.Pruned)))
	if s.Probe != nil {
		emit("index_runs_consulted", s.RunsConsulted)
		emit("index_bloom_rejections", s.BloomRejections)
		if s.FallbackLayers > 0 {
			emit("index_fallback_layers", s.FallbackLayers)
		}
		if s.StaleRuns > 0 {
			emit("index_stale_runs", s.StaleRuns)
		}
	}
}

// Schema returns the scan's output schema.
func (s *StoreScanIter) Schema() engine.Schema { return s.Sch }
