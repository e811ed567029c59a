package store

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// A WAL commit record is an ordered list of WALOps. Each op targets
// one vertical partition (relation name + partition index) and either
// inserts representation rows or adds one tombstone batch — or it is a
// clear op, which targets a relation. Ops apply in record order, so an
// UPDATE's tombstones precede its reinserts and the reinserted rows
// survive the eager delta filtering.
type WALOp struct {
	Rel  string
	Part int
	// Rows are inserted representation rows (descriptor, tid, values).
	Rows []core.URow
	// Tombs is one tombstone batch; Gen scopes it to the file layers
	// [0, Gen) that existed when the batch was created (rows flushed
	// later must not be shadowed).
	Tombs []WALTomb
	Gen   int
	// ClearsExistence marks a clear op: relation Rel is no longer known
	// to be existence-complete (core.URelSet.ExistenceComplete), because
	// the DELETE or UPDATE whose record holds the op acted on some of a
	// tuple's alternatives only. In the statement's own record, it takes
	// effect wherever the record applies: at commit, on replay and on a
	// replica (Manifest.ClearExistence). It has no partition, rows or
	// tombstones.
	ClearsExistence bool
}

// clearOpPart is the partition index a clear op is encoded under. No
// relation has that many partitions, so no record written before clear
// ops existed holds it, and a reader that predates them refuses the op
// as one for an unknown partition instead of dropping it.
const clearOpPart = math.MaxUint32

// WALTomb identifies one deleted partition row. Wild marks a wildcard
// tombstone deleting every row of the tuple id regardless of
// descriptor (used for partitions whose attributes are fully covered
// elsewhere, which the merge translation skips).
type WALTomb struct {
	TID  int64
	D    ws.Descriptor
	Wild bool
}

// --- encoding ---------------------------------------------------------

func appendDescriptor(b []byte, d ws.Descriptor) []byte {
	b = appendUint(b, uint64(len(d)))
	for _, a := range d {
		b = appendInt(b, int64(a.Var))
		b = appendInt(b, int64(a.Val))
	}
	return b
}

// EncodeWALRecord serializes one commit's ops as a WAL record payload.
func EncodeWALRecord(ops []WALOp) []byte {
	b := appendUint(nil, uint64(len(ops)))
	for _, o := range ops {
		b = appendString(b, o.Rel)
		if o.ClearsExistence {
			// No rows, no tombstones, generation 0.
			b = appendUint(b, clearOpPart)
			b = append(b, 0, 0, 0)
			continue
		}
		b = appendUint(b, uint64(o.Part))
		b = appendUint(b, uint64(len(o.Rows)))
		for _, r := range o.Rows {
			b = appendDescriptor(b, r.D)
			b = appendInt(b, r.TID)
			b = appendUint(b, uint64(len(r.Vals)))
			for _, v := range r.Vals {
				b = appendValue(b, v)
			}
		}
		b = appendUint(b, uint64(len(o.Tombs)))
		b = appendUint(b, uint64(o.Gen))
		for _, t := range o.Tombs {
			b = appendInt(b, t.TID)
			if t.Wild {
				b = append(b, 1)
			} else {
				b = append(b, 0)
				b = appendDescriptor(b, t.D)
			}
		}
	}
	return b
}

// --- decoding ---------------------------------------------------------

func (c *cursor) descriptor() (ws.Descriptor, error) {
	n, err := c.countOf(2) // a (var, value) pair of varints
	if err != nil || n == 0 {
		return nil, err
	}
	assigns := make([]ws.Assignment, n)
	for i := range assigns {
		x, err := c.int()
		if err != nil {
			return nil, err
		}
		v, err := c.int()
		if err != nil {
			return nil, err
		}
		assigns[i] = ws.A(ws.Var(x), ws.Val(v))
	}
	d, err := ws.NewDescriptor(assigns...)
	if err != nil {
		return nil, corruptf("descriptor before offset %d: %v", c.pos, err)
	}
	return d, nil
}

// DecodeWALRecord parses one WAL record payload back into ops. Every
// count is bounded by the bytes left before anything is allocated for
// it, so arbitrary bytes decode or fail cleanly, with ErrCorrupt.
func DecodeWALRecord(payload []byte) ([]WALOp, error) {
	c := &cursor{b: payload}
	// An op takes at least five bytes: relation name length, partition,
	// row count, tombstone count and generation.
	nops, err := c.countOf(5)
	if err != nil {
		return nil, err
	}
	ops := make([]WALOp, 0, nops)
	for i := 0; i < nops; i++ {
		var o WALOp
		if o.Rel, err = c.str(); err != nil {
			return nil, err
		}
		part, err := c.uint()
		if err != nil {
			return nil, err
		}
		o.Part = int(part)
		nrows, err := c.countOf(3) // descriptor length, tid, value count
		if err != nil {
			return nil, err
		}
		for r := 0; r < nrows; r++ {
			var row core.URow
			if row.D, err = c.descriptor(); err != nil {
				return nil, err
			}
			if row.TID, err = c.int(); err != nil {
				return nil, err
			}
			nvals, err := c.countOf(1)
			if err != nil {
				return nil, err
			}
			row.Vals = make([]engine.Value, nvals)
			for vi := range row.Vals {
				if row.Vals[vi], err = c.value(); err != nil {
					return nil, err
				}
			}
			o.Rows = append(o.Rows, row)
		}
		ntombs, err := c.countOf(2) // tid, wildcard flag
		if err != nil {
			return nil, err
		}
		gen, err := c.uint()
		if err != nil {
			return nil, err
		}
		o.Gen = int(gen)
		for t := 0; t < ntombs; t++ {
			var tb WALTomb
			if tb.TID, err = c.int(); err != nil {
				return nil, err
			}
			wild, err := c.byte()
			if err != nil {
				return nil, err
			}
			if wild != 0 {
				tb.Wild = true
			} else if tb.D, err = c.descriptor(); err != nil {
				return nil, err
			}
			o.Tombs = append(o.Tombs, tb)
		}
		if part == clearOpPart {
			if nrows != 0 || ntombs != 0 || gen != 0 {
				return nil, corruptf("clear op of %q carries rows or tombstones", o.Rel)
			}
			o.Part, o.ClearsExistence = 0, true
		}
		ops = append(ops, o)
	}
	if c.left() != 0 {
		return nil, corruptf("%d trailing bytes in WAL record", c.left())
	}
	return ops, nil
}

// --- in-memory delta (replayed or accumulated) ------------------------

// TombBatch is one frozen tombstone batch: the deletes of one commit
// against one partition, sorted by tuple id, with the bounds of those
// ids taken once, here. Gen scopes the batch to the file layers
// [0, Gen) that existed when it was created.
type TombBatch struct {
	Entries []WALTomb // sorted by tuple id
	Gen     int
	lo, hi  int64
}

// NewTombBatch sorts one commit's tombstones into a batch (a copy: the
// caller's slice keeps its order).
func NewTombBatch(tombs []WALTomb, gen int) TombBatch {
	es := slices.Clone(tombs)
	slices.SortStableFunc(es, func(a, b WALTomb) int { return cmp.Compare(a.TID, b.TID) })
	b := TombBatch{Entries: es, Gen: gen, lo: math.MaxInt64, hi: math.MinInt64}
	if len(es) > 0 {
		b.lo, b.hi = es[0].TID, es[len(es)-1].TID
	}
	return b
}

// Matches reports whether the batch deletes row (tid, d).
func (b *TombBatch) Matches(tid int64, d ws.Descriptor) bool {
	if tid < b.lo || tid > b.hi {
		return false
	}
	for i := firstTomb(b.Entries, tid); i < len(b.Entries) && b.Entries[i].TID == tid; i++ {
		if t := b.Entries[i]; t.Wild || DescriptorEqual(t.D, d) {
			return true
		}
	}
	return false
}

// firstTomb is the index of the first of tid-sorted es with TID ≥ tid.
func firstTomb(es []WALTomb, tid int64) int {
	i, _ := slices.BinarySearchFunc(es, tid, func(t WALTomb, tid int64) int { return cmp.Compare(t.TID, tid) })
	return i
}

// DescriptorEqual reports assignment-wise equality of two descriptors.
func DescriptorEqual(a, b ws.Descriptor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TombView is the read side of one partition's tombstones: deleted
// rows identified by (tuple id, ws-descriptor), frozen for one epoch;
// nil means nothing is deleted.
//
// Tombstones are layer-scoped: a delete only affects rows that were
// already in a file layer when the delete committed (rows that were
// still in the memtable are removed from it eagerly at commit, and
// rows written later — an UPDATE's reinsert, a subsequent flush — must
// not be shadowed by an older tombstone with the same identity).
// Layer(li) therefore returns the filter applicable to file layer li,
// or nil when no tombstone touches it; the in-memory delta is never
// tombstone-filtered.
type TombView struct {
	batches []TombBatch
	n       int
}

// NewTombView freezes a batch list (nil when it holds no tombstone).
// Batches must be in commit order (gens non-decreasing).
func NewTombView(batches []TombBatch) *TombView {
	n := 0
	for _, b := range batches {
		n += len(b.Entries)
	}
	if n == 0 {
		return nil
	}
	return &TombView{batches: batches[:len(batches):len(batches)], n: n}
}

// Len returns the number of tombstones.
func (v *TombView) Len() int {
	if v == nil {
		return 0
	}
	return v.n
}

// Layer returns the filter for file layer li: the batches whose gen
// exceeds li (batches are created with gen = current layer count, so
// they cover exactly the layers that existed before them). Batches
// are appended in commit order with non-decreasing gens, so the
// applicable set is a suffix.
func (v *TombView) Layer(li int) TombFilter {
	if v == nil {
		return nil
	}
	lo := len(v.batches)
	for lo > 0 && v.batches[lo-1].Gen > li {
		lo--
	}
	if lo == len(v.batches) {
		return nil
	}
	return v.batches[lo:]
}

// TombFilter is the tombstone batches that filter one file layer.
type TombFilter []TombBatch

// tombWindow is a layer's tombstones in a window of a segment and a
// cursor walking them beside its rows, which ascend in tid: one pass
// over both.
type tombWindow struct {
	*tombBuf     // from tombBufs, from reset until release
	next     int // the first entry whose tid is at least the last looked up
}

// tombBuf is a tombWindow's buffers, pooled: a reader lives for a statement.
type tombBuf struct {
	es  []*WALTomb // the window's tombstones, in tid order
	sel []int32    // a scan's selection vector over the window (liveSel)
}

var tombBufs = sync.Pool{New: func() any { return new(tombBuf) }}

// reset merges the entries of f in the tuple ids [lo, hi] in tid order
// and rewinds the cursor; it reports whether there are any.
func (w *tombWindow) reset(f TombFilter, lo, hi int64) bool {
	if w.tombBuf == nil {
		w.tombBuf = tombBufs.Get().(*tombBuf)
	}
	w.es, w.next = w.es[:0], 0
	for i := range f {
		if f[i].lo > hi || f[i].hi < lo {
			continue
		}
		run := f[i].Entries[firstTomb(f[i].Entries, lo):]
		n := sort.Search(len(run), func(j int) bool { return run[j].TID > hi })
		// Merge the run in from the back: only entries above its least tid move.
		k := len(w.es) - 1
		w.es = slices.Grow(w.es, n)[:k+1+n]
		for d := len(w.es) - 1; n > 0; d-- {
			if k >= 0 && w.es[k].TID > run[n-1].TID {
				w.es[d], k = w.es[k], k-1
			} else {
				w.es[d], n = &run[n-1], n-1
			}
		}
	}
	return len(w.es) > 0
}

// release returns the buffers to the pool; a later reset takes others.
func (w *tombWindow) release() {
	if w.tombBuf != nil {
		tombBufs.Put(w.tombBuf)
		w.tombBuf = nil
	}
}

// dead reports whether row r of seg, stored at descriptor width fw, is
// deleted: by a wildcard entry of its tid, or one with its descriptor.
// The rows asked about since reset ascend in tid.
func (w *tombWindow) dead(seg *segment, fw, r int) bool {
	tid := seg.tid[r]
	for w.next < len(w.es) && w.es[w.next].TID < tid {
		w.next++
	}
	for i := w.next; i < len(w.es) && w.es[i].TID == tid; i++ {
		if e := w.es[i]; e.Wild || storedDescriptorIs(seg, fw, r, e.D) {
			return true
		}
	}
	return false
}

// PartDelta is the in-memory delta of one partition: committed rows
// not yet flushed plus the live tombstone batches. The write path
// mutates it under its commit lock; Rows and Batches are append-only
// below any published snapshot's captured lengths, so readers of a
// snapshot and the appending writer never touch the same memory
// (deletes rebuild Rows into a fresh slice, preserving published
// headers).
type PartDelta struct {
	Rows    []core.URow
	Width   int
	Bytes   int64
	Batches []TombBatch
	NTombs  int
}

// ApplyOp commits one op: the tombstone batch first (memtable rows
// matching it are removed eagerly, and the batch is retained to
// filter the file layers it is scoped to), then the inserted rows.
func (p *PartDelta) ApplyOp(o WALOp) {
	if len(o.Tombs) > 0 {
		b := NewTombBatch(o.Tombs, o.Gen)
		if len(p.Rows) > 0 {
			kept := make([]core.URow, 0, len(p.Rows))
			for _, r := range p.Rows {
				if b.Matches(r.TID, r.D) {
					continue
				}
				kept = append(kept, r)
			}
			if len(kept) != len(p.Rows) {
				p.Rows = kept
				p.recomputeSize()
			}
		}
		p.Batches = append(p.Batches, b)
		p.NTombs += len(b.Entries)
	}
	if len(o.Rows) > 0 {
		for _, r := range o.Rows {
			if len(r.D) > p.Width {
				p.Width = len(r.D)
			}
			p.Bytes += int64(len(r.D))*18 + 9
			for _, v := range r.Vals {
				p.Bytes += int64(v.SizeBytes())
			}
		}
		p.Rows = append(p.Rows, o.Rows...)
	}
}

func (p *PartDelta) recomputeSize() {
	p.Width = 0
	p.Bytes = 0
	for _, r := range p.Rows {
		if len(r.D) > p.Width {
			p.Width = len(r.D)
		}
		p.Bytes += int64(len(r.D))*18 + 9
		for _, v := range r.Vals {
			p.Bytes += int64(v.SizeBytes())
		}
	}
}

// Freeze captures the delta's current state into src (stable slice
// headers: later appends never mutate the captured prefix).
func (p *PartDelta) Freeze(src *PartSource) {
	src.Mem = p.Rows[:len(p.Rows):len(p.Rows)]
	src.MemWidth = p.Width
	src.Tomb = NewTombView(p.Batches)
}
