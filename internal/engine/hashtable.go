package engine

// joinTable is the hashed-key machinery shared by the hash join family
// (HashJoinIter and SemiJoinIter). It keeps the build input as the
// column batches it was handed — their payload vectors are immutable
// under the Iterator.Next contract, so only the borrowed headers are
// copied — and stores a build row
// as a (batch, row) reference into them. Keys are 64-bit hashes of the key cells
// read from the vectors, collisions resolve by comparing the cells, and
// a key that is one int column is hashed and compared as the int it is.
// Neither build nor probe allocates per row.
//
// Layout: open addressing with linear probing over a slot directory
// sized once, after the build side is drained, and at most half full: a
// probe row that misses — most of them, when a merge starts at a
// selective partition — then mostly lands on an empty slot at once.
// Each occupied slot owns the chain of all stored rows whose key
// columns are equal (chains are kept in insertion order, so join output
// order matches the serial row-at-a-time evaluation exactly), and
// carries the chain's full hash, which short-circuits most collision
// checks before any cell is compared.
type joinTable struct {
	keyIdx  []int       // key column positions within the build batches
	batches []ColBatch  // the build input
	lays    []vecLayout // per build column: the layout its batches agree on

	refs    []RowRef // stored rows, in insertion order
	hashes  []uint64 // per stored row
	next    []int32  // per stored row: next row with equal key, -1 ends
	intKeys []int64  // per stored row its key, when that is one int column; else nil

	slots []slot
	mask  uint64
}

// slot is one entry of the directory: a chain's key hash, its first row
// + 1 (0 = empty) and its last row.
type slot struct {
	hash       uint64
	head, tail int32
}

// RowRef names physical row Row of batch Batch of a list of batches: a
// hash join's stored build row, a row a store scan's lookup found.
type RowRef struct{ Batch, Row int32 }

// buildJoinTable drains the opened iterator it into a table keyed by
// its keyIdx columns. Rows with a NULL key never join and are left out.
// keyIdx may be empty, in which case every row shares one key and one
// chain (a join without an equi pair).
func buildJoinTable(it Iterator, keyIdx []int) (*joinTable, error) {
	// Drain first, then lay the stored rows out at their exact count.
	t := &joinTable{keyIdx: keyIdx}
	live, intKey := 0, len(keyIdx) == 1
	for {
		cb, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		var sel []int32
		if cb.Sel != nil {
			sel = append([]int32(nil), cb.Sel...)
		}
		kept := ColBatch{Sch: cb.Sch, Cols: append([]ColVec(nil), cb.Cols...), N: cb.N, Sel: sel}
		t.batches = append(t.batches, kept)
		live += kept.Rows()
		if intKey {
			v := &cb.Cols[keyIdx[0]]
			intKey = v.Vals == nil && v.Kind == KindInt
		}
	}
	t.refs, t.hashes = make([]RowRef, 0, live), make([]uint64, 0, live)
	if intKey {
		t.intKeys = make([]int64, 0, live)
	}
	for b := range t.batches {
		cb := &t.batches[b]
		var ints *ColVec
		if intKey {
			ints = &cb.Cols[keyIdx[0]]
		}
		for k, n := 0, cb.Rows(); k < n; k++ {
			i := cb.RowID(k)
			var h uint64
			if ints != nil {
				if ints.Nulls != nil && ints.Nulls[i] {
					continue
				}
				h = hashIntKey(ints.Ints[i])
				t.intKeys = append(t.intKeys, ints.Ints[i])
			} else {
				var keyed bool
				if h, keyed = keyHash(cb.Cols, i, keyIdx); !keyed {
					continue
				}
			}
			t.refs = append(t.refs, RowRef{Batch: int32(b), Row: int32(i)})
			t.hashes = append(t.hashes, h)
		}
	}
	t.lays = batchLayouts(t.batches)
	t.index()
	return t, nil
}

// len returns the stored row count.
func (t *joinTable) len() int { return len(t.refs) }

// index sizes the slot directory for the stored rows — a power of two
// at most half full — and links every row in insertion order.
func (t *joinTable) index() {
	if len(t.refs) == 0 {
		return
	}
	n := 64
	for n < 2*len(t.refs) {
		n *= 2
	}
	t.slots = make([]slot, n)
	t.mask = uint64(n - 1)
	t.next = make([]int32, len(t.refs))
	for r, h := range t.hashes {
		t.next[r] = -1
		t.link(int32(r), h)
	}
}

// link walks the probe sequence for h and attaches row r: to the tail
// of an existing equal-key chain, or to a claimed empty slot.
func (t *joinTable) link(r int32, h uint64) {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		sl := &t.slots[s]
		if sl.head == 0 {
			*sl = slot{hash: h, head: r + 1, tail: r}
			return
		}
		if sl.hash == h && t.sameKey(sl.head-1, r) {
			t.next[sl.tail] = r
			sl.tail = r
			return
		}
	}
}

// cols returns the build batch columns stored row m lies in, and its
// physical row there.
func (t *joinTable) cols(m int32) ([]ColVec, int) {
	ref := t.refs[m]
	return t.batches[ref.Batch].Cols, int(ref.Row)
}

// sameKey reports whether two stored rows agree on the key columns.
func (t *joinTable) sameKey(a, b int32) bool {
	if t.intKeys != nil {
		return t.intKeys[a] == t.intKeys[b]
	}
	ac, ai := t.cols(a)
	bc, bi := t.cols(b)
	for _, c := range t.keyIdx {
		if !cellsEqual(&ac[c], ai, &bc[c], bi) {
			return false
		}
	}
	return true
}

// lookup returns the first stored row whose key equals the probeIdx
// cells of row i of pcols, under their hash h, or -1. Follow the chain
// with next.
func (t *joinTable) lookup(h uint64, pcols []ColVec, i int, probeIdx []int) int32 {
	if len(t.refs) == 0 {
		return -1
	}
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		sl := &t.slots[s]
		if sl.head == 0 {
			return -1
		}
		if sl.hash == h && t.keyEquals(sl.head-1, pcols, i, probeIdx) {
			return sl.head - 1
		}
	}
}

// lookupInt is lookup of the int key x in a table with intKeys.
func (t *joinTable) lookupInt(h uint64, x int64) int32 {
	if len(t.refs) == 0 {
		return -1
	}
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		sl := &t.slots[s]
		if sl.head == 0 {
			return -1
		}
		if sl.hash == h && t.intKeys[sl.head-1] == x {
			return sl.head - 1
		}
	}
}

// keyEquals reports whether stored row m's key equals the probeIdx cells
// of row i of pcols.
func (t *joinTable) keyEquals(m int32, pcols []ColVec, i int, probeIdx []int) bool {
	bc, bi := t.cols(m)
	for k, c := range t.keyIdx {
		if !cellsEqual(&bc[c], bi, &pcols[probeIdx[k]], i) {
			return false
		}
	}
	return true
}

// keyHash hashes the key cells idx of row i of cols, read from the
// vectors, as HashTuple hashes the boxed key — so an int key meets the
// float it equals; ok=false signals a NULL key (which never joins).
func keyHash(cols []ColVec, i int, idx []int) (uint64, bool) {
	h := uint64(fnvOffset64)
	for _, c := range idx {
		v := &cols[c]
		if v.IsNull(i) {
			return 0, false
		}
		if v.Vals == nil && (v.Kind == KindInt || v.Kind == KindBool) {
			h ^= hashInt(v.Ints[i])
		} else {
			h ^= HashValue(v.Value(i))
		}
		h *= fnvPrime64
	}
	return h, true
}

// hashIntKey is keyHash of a key that is the single int x.
func hashIntKey(x int64) uint64 {
	return (fnvOffset64 ^ hashInt(x)) * fnvPrime64
}

// cellsEqual reports whether the non-NULL cells a[i] and b[j] are equal
// under Compare: an int equals the float it is, never the bool.
func cellsEqual(a *ColVec, i int, b *ColVec, j int) bool {
	if a.Vals == nil && b.Vals == nil && a.Kind == b.Kind {
		switch a.Kind {
		case KindInt, KindBool:
			return a.Ints[i] == b.Ints[j]
		case KindString:
			return a.Strs[i] == b.Strs[j]
		case KindFloat:
			return compareFloat(a.Floats[i], b.Floats[j]) == 0
		}
	}
	return Compare(a.Value(i), b.Value(j)) == 0
}

// probeHits is what narrowProbe leaves of one probe column batch: the
// physical ids of the rows whose key the build table holds, in the
// batch's live order, and beside each the head of its match chain.
type probeHits struct {
	sel   []int32
	heads []int32
}

// narrowProbe looks every live row of a probe column batch up in the
// build table t and fills hits with the rows that found a partner. The
// key is read from the column vectors, and a key that is one int column
// is hashed and compared without building its Value. NULL keys never
// join.
func narrowProbe(t *joinTable, cb *ColBatch, probeIdx []int, hits *probeHits) {
	hits.sel, hits.heads = hits.sel[:0], hits.heads[:0]
	var ints *ColVec
	if len(probeIdx) == 1 {
		if col := &cb.Cols[probeIdx[0]]; col.Vals == nil && col.Kind == KindInt {
			ints = col
		}
	}
	for k, n := 0, cb.Rows(); k < n; k++ {
		i := cb.RowID(k)
		var h uint64
		if ints != nil {
			if ints.Nulls != nil && ints.Nulls[i] {
				continue
			}
			h = hashIntKey(ints.Ints[i])
		} else {
			var keyed bool
			if h, keyed = keyHash(cb.Cols, i, probeIdx); !keyed {
				continue
			}
		}
		var head int32
		if ints != nil && t.intKeys != nil {
			head = t.lookupInt(h, ints.Ints[i])
		} else {
			head = t.lookup(h, cb.Cols, i, probeIdx)
		}
		if head >= 0 {
			hits.sel = append(hits.sel, int32(i))
			hits.heads = append(hits.heads, head)
		}
	}
}

// vecLayout is the shape of a column's vectors: generic (tagged values),
// or typed of kind — KindNull for NULLs only — with NULL markers when
// nulls.
type vecLayout struct {
	kind    Kind
	generic bool
	nulls   bool
}

func layoutOf(v *ColVec) vecLayout {
	if v.Vals != nil {
		return vecLayout{generic: true}
	}
	return vecLayout{kind: v.Kind, nulls: v.Nulls != nil || v.Kind == KindNull}
}

// payload names the vector a column of this layout keeps its cells in:
// 0 Ints, 1 Floats, 2 Strs, 3 Vals, 4 none (NULLs only).
func (l vecLayout) payload() int {
	switch {
	case l.generic:
		return 3
	case l.kind == KindInt || l.kind == KindBool:
		return 0
	case l.kind == KindFloat:
		return 1
	case l.kind == KindString:
		return 2
	}
	return 4
}

// merge is the layout that holds the cells of both: NULLs only meet any
// typed kind, two typed kinds that differ need tagged values.
func (a vecLayout) merge(b vecLayout) vecLayout {
	switch {
	case a.generic || b.generic:
		return vecLayout{generic: true}
	case a.kind == KindNull:
		b.nulls = true
		return b
	case b.kind == KindNull:
		a.nulls = true
		return a
	case a.kind != b.kind:
		return vecLayout{generic: true}
	}
	a.nulls = a.nulls || b.nulls
	return a
}

// batchLayouts is the layout each column's vectors agree on across
// batches.
func batchLayouts(batches []ColBatch) []vecLayout {
	if len(batches) == 0 {
		return nil
	}
	lays := make([]vecLayout, len(batches[0].Cols))
	for c := range lays {
		lays[c] = batchLayout(batches, c)
	}
	return lays
}

// batchLayout is the layout column c's vectors agree on across batches.
func batchLayout(batches []ColBatch, c int) vecLayout {
	l := layoutOf(&batches[0].Cols[c])
	for b := 1; b < len(batches); b++ {
		l = l.merge(layoutOf(&batches[b].Cols[c]))
	}
	return l
}
