package store

import (
	"cmp"
	"fmt"
	"slices"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/index"
)

// StoreScanPlan also implements engine.IndexedSource: the optimizer
// rewrites an equality filter on an indexed column into an index probe
// through these methods, still without the engine importing this
// package.
var _ engine.IndexedSource = (*StoreScanPlan)(nil)

// SourceName names the partition for EXPLAIN.
func (p *StoreScanPlan) SourceName() string { return p.Name }

// idxTarget resolves a schema column to its run key and stored value
// ordinal (-1 for the tuple-id column). ok is false for descriptor
// columns and unknown names.
func (p *StoreScanPlan) idxTarget(col string) (key string, ai int, ok bool) {
	si := p.Sch.IndexOf(col)
	if si < 0 {
		return "", 0, false
	}
	if si == 2*p.Width {
		return IdxKeyTID, -1, true
	}
	attrStart := 2*p.Width + 1
	if si >= attrStart && si < p.Sch.Len() {
		ai := p.AttrIdx[si-attrStart]
		return IdxKeyAttr(ai), ai, true
	}
	return "", 0, false
}

// layersHaveRuns reports whether every file layer carries a usable run
// for key. Zero layers is vacuously true (the in-memory delta is
// scanned linearly either way); any layer missing its run makes the
// column unusable for planning, so the optimizer never picks an index
// strategy that would degrade to full fallback scans.
func (p *StoreScanPlan) layersHaveRuns(key string) bool {
	for _, h := range p.Src.Layers {
		if !h.hasIndexRun(key) {
			return false
		}
	}
	return true
}

// IndexedCols returns the canonical schema names of the columns with a
// usable equality index: the tuple-id column (runs are built beside
// every new layer) and the declared value columns, each only when all
// layers actually carry the run.
func (p *StoreScanPlan) IndexedCols() []string {
	var out []string
	if p.layersHaveRuns(IdxKeyTID) {
		out = append(out, p.Sch.Cols[2*p.Width].Name)
	}
	attrStart := 2*p.Width + 1
	for j, ai := range p.AttrIdx {
		if !containsInt(p.Src.IdxCols, ai) {
			continue
		}
		if p.layersHaveRuns(IdxKeyAttr(ai)) {
			out = append(out, p.Sch.Cols[attrStart+j].Name)
		}
	}
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// LookupEstimate estimates one equality probe's result size from the
// runs' exact per-layer statistics: rows/NDV per layer, plus a default
// guess for the unindexed in-memory delta.
func (p *StoreScanPlan) LookupEstimate(col string) float64 {
	key, _, ok := p.idxTarget(col)
	if !ok {
		return p.EstimateRowCount()
	}
	est := 0.0
	for _, h := range p.Src.Layers {
		if run := h.indexRun(key); run != nil && run.NDV() > 0 {
			est += float64(run.Len()) / float64(run.NDV())
		}
	}
	est += float64(len(p.Src.Mem)) / 100
	if est < 1 {
		est = 1
	}
	return est
}

// LookupEq returns the index lookup iterator for col = key, in the
// scan's full output schema.
func (p *StoreScanPlan) LookupEq(col string, key engine.Value) (engine.Iterator, error) {
	k, ai, ok := p.idxTarget(col)
	if !ok {
		return nil, fmt.Errorf("store: no index target for column %q on %s", col, p.Name)
	}
	return &IndexLookupIter{Src: p.Src, Sch: p.Sch, Width: p.Width, AttrIdx: p.AttrIdx,
		Ai: ai, IdxKey: k, Key: key}, nil
}

// materializeStoredRow builds one output tuple from a decoded segment
// row (the single-row form of StoreScanIter.materialize: padded
// descriptor pairs, tid, selected attributes).
func materializeStoredRow(sch engine.Schema, width, fw int, attrIdx []int, seg *segment, r int) engine.Tuple {
	t := make(engine.Tuple, sch.Len())
	for k := 0; k < width; k++ {
		src := k
		if src >= fw {
			src = 0
		}
		if fw == 0 {
			t[2*k] = engine.Int(0)
			t[2*k+1] = engine.Int(0)
		} else {
			t[2*k] = engine.Int(seg.dvar[src][r])
			t[2*k+1] = engine.Int(seg.drng[src][r])
		}
	}
	t[2*width] = engine.Int(seg.tid[r])
	for j, ai := range attrIdx {
		t[2*width+1+j] = seg.cols[ai].Value(r)
	}
	return t
}

// materializeMemRow builds one output tuple from an in-memory delta row.
func materializeMemRow(sch engine.Schema, width int, attrIdx []int, r core.URow) engine.Tuple {
	t := make(engine.Tuple, sch.Len())
	d := r.D.Pad(width)
	for k := 0; k < width; k++ {
		t[2*k] = engine.Int(int64(d[k].Var))
		t[2*k+1] = engine.Int(int64(d[k].Val))
	}
	t[2*width] = engine.Int(r.TID)
	for j, ai := range attrIdx {
		t[2*width+1+j] = r.Vals[ai]
	}
	return t
}

// narrowTo narrows tf to a segment's tuple ids, counting the segment
// as skipped when no tombstone falls in them.
func (s *IndexLookupIter) narrowTo(tf TombFilter, seg *segment) {
	if !s.tombs.reset(tf, seg.tidLo, seg.tidHi) && tf != nil {
		s.TombSegmentsSkipped++
	}
}

// keep appends row r of the segment narrowTo last narrowed to unless
// it is tombstoned, counting it as checked when some tombstone may be.
func (s *IndexLookupIter) keep(seg *segment, fw, r int) {
	if len(s.tombs.es) > 0 {
		s.TombRowsChecked++
		if s.tombs.dead(seg, fw, r) {
			return
		}
	}
	s.rows = append(s.rows, materializeStoredRow(s.Sch, s.Width, fw, s.AttrIdx, seg, r))
}

// segKeyValue extracts the indexed key of a stored row (tid for
// ai < 0, otherwise stored value column ai).
func segKeyValue(seg *segment, ai, r int) engine.Value {
	if ai < 0 {
		return engine.Int(seg.tid[r])
	}
	return seg.cols[ai].Value(r)
}

// memKeyValue extracts the indexed key of an in-memory delta row.
func memKeyValue(r core.URow, ai int) engine.Value {
	if ai < 0 {
		return engine.Int(r.TID)
	}
	return r.Vals[ai]
}

// IndexLookupIter is the equality-probe physical operator: per file
// layer (oldest first) it consults the layer's sorted run — bloom
// filters first — fetches exactly the located rows, verifies each
// fetched row actually carries the probed key (a mismatch marks the
// run stale and degrades the layer to a pruned scan, so a wrong or
// outdated index can cost time but never correctness), and applies the
// layer's tombstones; the unindexed in-memory delta is scanned last.
// The result is therefore always identical to a full scan plus filter,
// and it is served in tid order, as the scan serves its rows.
type IndexLookupIter struct {
	Src     *PartSource
	Sch     engine.Schema
	Width   int
	AttrIdx []int
	Ai      int    // stored value ordinal, -1 for the tuple-id column
	IdxKey  string // run key name ("t" or "a<i>")
	Key     engine.Value

	rows  []engine.Tuple
	out   engine.HeldRows // rows, served as column batches
	tombs tombWindow      // the current segment's tombstones

	// Probe-side effect counters, surfaced via OperatorStats.
	RunsConsulted       int64
	BloomRejections     int64
	SegmentsRead        int64
	SegmentsPruned      int64
	FallbackLayers      int64
	StaleRuns           int64
	TombRowsChecked     int64
	TombSegmentsSkipped int64
}

// Open materializes the probe result (probe results are small by
// construction; a huge one means the optimizer mispicked, not that the
// iterator should stream).
func (s *IndexLookupIter) Open() error {
	idxLookupsTotal.Inc()
	s.rows = nil
	defer s.tombs.release()
	for li, h := range s.Src.Layers {
		tf := s.Src.Tomb.Layer(li)
		run := h.indexRun(s.IdxKey)
		if run == nil {
			s.FallbackLayers++
			if err := s.scanLayer(h, tf); err != nil {
				return err
			}
			continue
		}
		var st index.LookupStats
		locs := run.Lookup(s.Key, &st)
		s.RunsConsulted += st.RunsConsulted
		s.BloomRejections += st.BloomRejections
		if st.BloomRejections > 0 {
			idxBloomMissesTotal.Inc()
		} else {
			idxBloomHitsTotal.Inc()
		}
		start := len(s.rows)
		stale := false
		var seg *segment
		segIdx := -1
		for _, loc := range locs {
			if int(loc.Seg) >= h.NumSegments() {
				stale = true
				break
			}
			if segIdx != int(loc.Seg) {
				var err error
				seg, err = s.readSeg(h, int(loc.Seg))
				if err != nil {
					return err
				}
				segIdx = int(loc.Seg)
				s.narrowTo(tf, seg)
			}
			r := int(loc.Row)
			if r >= seg.n || engine.Compare(segKeyValue(seg, s.Ai, r), s.Key) != 0 {
				stale = true
				break
			}
			s.keep(seg, h.Width(), r)
		}
		if stale {
			// The run points at rows that do not carry the key: debris
			// from an interrupted rewrite. Record it — on the handle too,
			// so the next compaction rewrites the layer — and recompute
			// the layer's contribution by scanning: correctness never
			// depends on the run.
			idxStaleTotal.Inc()
			h.markRunStale(s.IdxKey)
			s.StaleRuns++
			s.FallbackLayers++
			s.rows = s.rows[:start]
			if err := s.scanLayer(h, tf); err != nil {
				return err
			}
		}
	}
	for _, r := range s.Src.Mem {
		if engine.Compare(memKeyValue(r, s.Ai), s.Key) == 0 {
			s.rows = append(s.rows, materializeMemRow(s.Sch, s.Width, s.AttrIdx, r))
		}
	}
	// In tid order, as a scan serves its rows: a stitch merges in it.
	slices.SortStableFunc(s.rows, func(a, b engine.Tuple) int { return cmp.Compare(a[2*s.Width].I, b[2*s.Width].I) })
	s.out = engine.HeldRows{Rows: s.rows, Sch: s.Sch}
	return nil
}

func (s *IndexLookupIter) readSeg(h *PartHandle, i int) (*segment, error) {
	seg, _, err := h.ReadSegmentStats(i)
	if err != nil {
		return nil, err
	}
	s.SegmentsRead++
	return seg, nil
}

// scanLayer is the per-layer degraded path: scan every segment the
// zone maps cannot refute and filter on the key directly.
func (s *IndexLookupIter) scanLayer(h *PartHandle, tf TombFilter) error {
	for i := 0; i < h.NumSegments(); i++ {
		if s.Ai >= 0 && segmentRefutes(h.meta.Segs[i].Stats[s.Ai], engine.EQ, s.Key) {
			s.SegmentsPruned++
			continue
		}
		seg, err := s.readSeg(h, i)
		if err != nil {
			return err
		}
		s.narrowTo(tf, seg)
		for r := 0; r < seg.n; r++ {
			if engine.Compare(segKeyValue(seg, s.Ai, r), s.Key) == 0 {
				s.keep(seg, h.Width(), r)
			}
		}
	}
	return nil
}

// Next serves the matching rows as column batches.
func (s *IndexLookupIter) Next() (*engine.ColBatch, bool, error) { return s.out.Next() }

// Close releases the materialized rows; counters survive for tracing.
func (s *IndexLookupIter) Close() error {
	s.rows, s.out = nil, engine.HeldRows{}
	return nil
}

// Schema returns the scan's output schema.
func (s *IndexLookupIter) Schema() engine.Schema { return s.Sch }

// OperatorStats reports probe effects to a trace span: runs consulted,
// bloom rejections, segments fetched and pruned, any degraded layers,
// and over a tombstoned partition the tombstone filter's work.
func (s *IndexLookupIter) OperatorStats(emit func(key string, v int64)) {
	emit("index_runs_consulted", s.RunsConsulted)
	emit("index_bloom_rejections", s.BloomRejections)
	emit("segments_read", s.SegmentsRead)
	emit("segments_pruned", s.SegmentsPruned)
	if s.FallbackLayers > 0 {
		emit("index_fallback_layers", s.FallbackLayers)
	}
	if s.StaleRuns > 0 {
		emit("index_stale_runs", s.StaleRuns)
	}
	if s.Src.Tomb != nil {
		emit("tomb_rows_checked", s.TombRowsChecked)
		emit("tomb_segments_skipped", s.TombSegmentsSkipped)
	}
}
