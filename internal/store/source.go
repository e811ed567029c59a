package store

import (
	"cmp"
	"io"
	"slices"
	"sync"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// PartSource is the layered storage of one vertical partition: one or
// more immutable segment files (the base plus flushed deltas, in
// commit order), an optional frozen in-memory delta (committed rows
// not yet flushed), and an optional tombstone set filtering every
// layer. It implements core.Backing, so both a read-only snapshot
// (layers only) and a transactional MVCC snapshot (layers + the
// epoch's visible delta) plug into translation identically.
//
// A PartSource is an immutable value: the write path publishes a fresh
// one per commit epoch, so concurrent readers each scan a consistent
// state while writers append elsewhere.
type PartSource struct {
	Layers []*PartHandle
	// Mem holds committed-but-unflushed rows, frozen for this source's
	// epoch (the write path hands a stable prefix of its memtable).
	Mem []core.URow
	// MemWidth is the maximum descriptor width of Mem (computed by the
	// write path; derived lazily when zero).
	MemWidth int
	// Tomb filters deleted rows out of every layer (nil = none).
	Tomb *TombView
	// IdxCols lists the stored value-column ordinals with a declared
	// secondary index (from the manifest's per-relation index list,
	// resolved to this partition's columns).
	IdxCols []int

	memOnce sync.Once
	memSeg  *segment // Mem as a segment, see memSegment
}

// memSegment returns the in-memory delta as a segment in tid order, at
// descriptor width memWidth: encoded on a scan's first use of it by the
// encoder of an in-memory partition's image (core.EncodeRows), once per
// source — the write path publishes a fresh one per commit — and shared
// by every scan of it. The delta must hold a row.
func (s *PartSource) memSegment() *segment {
	s.memOnce.Do(func() {
		w := s.memWidth()
		cols := core.EncodeRows(s.Mem, w, len(s.Mem[0].Vals))
		seg := &segment{n: len(s.Mem), dvar: make([][]int64, w), drng: make([][]int64, w), tid: cols[2*w].Ints, cols: cols[2*w+1:]}
		for k := 0; k < w; k++ {
			seg.dvar[k], seg.drng[k] = cols[2*k].Ints, cols[2*k+1].Ints
		}
		seg.tidLo, seg.tidHi = seg.tid[0], seg.tid[seg.n-1]
		s.memSeg = seg
	})
	return s.memSeg
}

// NumRows returns the stored row count across layers plus the
// in-memory delta. Tombstoned rows are still counted: the count feeds
// cardinality estimation, not results.
func (s *PartSource) NumRows() int {
	n := len(s.Mem)
	for _, h := range s.Layers {
		n += h.NumRows()
	}
	return n
}

// DescriptorWidth returns the maximum padded descriptor width across
// all layers and the in-memory delta.
func (s *PartSource) DescriptorWidth() int {
	w := s.memWidth()
	for _, h := range s.Layers {
		if h.Width() > w {
			w = h.Width()
		}
	}
	return w
}

func (s *PartSource) memWidth() int {
	if s.MemWidth > 0 || len(s.Mem) == 0 {
		return s.MemWidth
	}
	w := 0
	for _, r := range s.Mem {
		if len(r.D) > w {
			w = len(r.D)
		}
	}
	return w
}

// AttrKinds merges the per-layer column kinds: all layers (and the
// in-memory delta's values) must agree on a kind for it to be known;
// any disagreement degrades to engine.KindNull ("unknown"), which the
// engine treats as a generic column.
func (s *PartSource) AttrKinds() []engine.Kind {
	var out []engine.Kind
	merge := func(ks []engine.Kind) {
		if out == nil {
			out = append([]engine.Kind(nil), ks...)
			return
		}
		for i := range out {
			if i >= len(ks) {
				break
			}
			switch {
			case out[i] == engine.KindNull:
				out[i] = ks[i]
			case ks[i] == engine.KindNull:
			case out[i] != ks[i]:
				out[i] = engine.KindNull
			}
		}
	}
	for _, h := range s.Layers {
		merge(h.AttrKinds())
	}
	if len(s.Mem) > 0 {
		nattrs := len(s.Mem[0].Vals)
		ks := make([]engine.Kind, nattrs)
		for ai := 0; ai < nattrs; ai++ {
			for _, r := range s.Mem {
				v := r.Vals[ai]
				if v.IsNull() {
					continue
				}
				if ks[ai] == engine.KindNull {
					ks[ai] = v.K
				} else if ks[ai] != v.K {
					ks[ai] = engine.KindNull
					break
				}
			}
		}
		merge(ks)
	}
	return out
}

// SizeBytes reports the on-storage footprint of the file layers plus
// an estimate for the in-memory delta.
func (s *PartSource) SizeBytes() int64 {
	var n int64
	for _, h := range s.Layers {
		n += h.SizeBytes()
	}
	w := s.memWidth()
	for _, r := range s.Mem {
		n += int64(w)*18 + 9
		for _, v := range r.Vals {
			n += int64(v.SizeBytes())
		}
	}
	return n
}

// ScanPlan returns a fresh leaf plan per translation (plans carry
// per-query pruning state).
func (s *PartSource) ScanPlan(sch engine.Schema, width int, attrIdx []int, name string) engine.Plan {
	return &StoreScanPlan{Src: s, Sch: sch, Width: width, AttrIdx: attrIdx, Name: name}
}

// Load materializes every live row — all file layers in order, then
// the in-memory delta — reconstructing descriptors from their padded
// encoding and dropping tombstoned rows (each layer filtered by the
// tombstones scoped to it and meeting its tuple ids; the in-memory
// delta is never filtered).
func (s *PartSource) Load() ([]core.URow, error) {
	out := make([]core.URow, 0, s.NumRows())
	var tombs tombWindow
	defer tombs.release()
	for li, h := range s.Layers {
		tf := s.Tomb.Layer(li)
		for i := 0; i < h.NumSegments(); i++ {
			seg, err := h.ReadSegment(i)
			if err != nil {
				return nil, err
			}
			tombs.reset(tf, seg.tidLo, seg.tidHi)
			for r := 0; r < seg.n; r++ {
				if tombs.dead(seg, h.Width(), r) {
					continue
				}
				vals := make([]engine.Value, len(seg.cols))
				for ci := range seg.cols {
					vals[ci] = seg.cols[ci].Value(r)
				}
				out = append(out, core.URow{D: segDescriptor(seg, h.Width(), r), TID: seg.tid[r], Vals: vals})
			}
		}
	}
	for _, r := range s.Mem {
		vals := make([]engine.Value, len(r.Vals))
		copy(vals, r.Vals)
		out = append(out, core.URow{D: append(ws.Descriptor(nil), r.D...), TID: r.TID, Vals: vals})
	}
	return out, nil
}

// Close releases every layer's file handle (idempotent; core.UDB.Close
// finds it via the io.Closer assertion).
func (s *PartSource) Close() error {
	var first error
	for _, h := range s.Layers {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ core.Backing = (*PartSource)(nil)
var _ io.Closer = (*PartSource)(nil)

// segDescriptor reconstructs the canonical ws-descriptor of one stored
// row from its padded (var, rng) columns (storedAssign), sorted.
func segDescriptor(seg *segment, width, r int) ws.Descriptor {
	var d ws.Descriptor
	for k := 0; k < width; k++ {
		if a, ok := storedAssign(seg, k, r); ok {
			d = append(d, a)
		}
	}
	slices.SortFunc(d, func(a, b ws.Assignment) int { return cmp.Compare(a.Var, b.Var) })
	return d
}

// storedAssign returns the assignment in descriptor column k of stored
// row r unless padding repeats its variable or it is the trivial one.
func storedAssign(seg *segment, k, r int) (ws.Assignment, bool) {
	x := seg.dvar[k][r]
	if ws.Var(x) == ws.TrivialVar {
		return ws.Assignment{}, false
	}
	for j := 0; j < k; j++ {
		if seg.dvar[j][r] == x {
			return ws.Assignment{}, false
		}
	}
	return ws.A(ws.Var(x), ws.Val(seg.drng[k][r])), true
}

// storedDescriptorIs is DescriptorEqual(d, segDescriptor(seg, width,
// r)) compared in place: each assignment that does not collapse is in
// d, and d holds nothing else, in variable order.
func storedDescriptorIs(seg *segment, width, r int, d ws.Descriptor) bool {
	n := 0
	for k := 0; k < width; k++ {
		if a, ok := storedAssign(seg, k, r); ok {
			if !slices.Contains(d, a) {
				return false
			}
			n++
		}
	}
	return n == len(d) && slices.IsSortedFunc(d, func(a, b ws.Assignment) int { return cmp.Compare(a.Var, b.Var) })
}
