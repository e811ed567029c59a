package engine

// joinTable is the hashed-key machinery shared by the hash join family
// (HashJoinIter, SemiJoinIter, and the per-partition tables of
// ParallelHashJoinIter). Keys are 64-bit hashes of the key columns,
// collisions resolve by direct value comparison, and a build row is
// kept as its header: the Iterator contract makes the tuple immutable
// and retainable, so the table never copies a cell — neither build nor
// probe performs any per-row string, map or row allocation.
//
// Layout: open addressing with linear probing. Each occupied slot owns
// the chain of all stored rows whose key columns are equal (chains are
// kept in insertion order, so join output order matches the serial
// row-at-a-time evaluation exactly). slotHash short-circuits most
// collision checks before any value comparison happens.
type joinTable struct {
	keyIdx []int // key column positions within stored rows

	rows   []Tuple  // stored row headers, in insertion order
	hashes []uint64 // per stored row
	next   []int32  // per stored row: next row with equal key, -1 ends

	slots    []int32  // head row index + 1; 0 = empty
	slotTail []int32  // last row of the slot's chain
	slotHash []uint64 // full hash of the slot's key
	mask     uint64
}

// newJoinTable builds an empty table for rows keyed by the keyIdx
// columns. keyIdx may be empty, in which case every row shares one key
// (used by key-less semi joins).
func newJoinTable(keyIdx []int) *joinTable {
	t := &joinTable{keyIdx: keyIdx}
	t.resetSlots(64)
	return t
}

func (t *joinTable) resetSlots(n int) {
	t.slots = make([]int32, n)
	t.slotTail = make([]int32, n)
	t.slotHash = make([]uint64, n)
	t.mask = uint64(n - 1)
}

// len returns the stored row count.
func (t *joinTable) len() int { return len(t.hashes) }

// row returns stored row i: the tuple that was inserted, not a copy.
func (t *joinTable) row(i int32) Tuple { return t.rows[i] }

// hashRow hashes the keyIdx columns of a prospective row; ok=false
// signals a NULL key, which never joins and must not be inserted.
func (t *joinTable) hashRow(row Tuple) (uint64, bool) {
	return hashKeyAt(row, t.keyIdx)
}

// insert keeps row's header and links it under hash h (which must be
// hashRow's output for it).
func (t *joinTable) insert(row Tuple, h uint64) {
	r := int32(len(t.hashes))
	t.rows = append(t.rows, row)
	t.hashes = append(t.hashes, h)
	t.next = append(t.next, -1)
	// Grow at 3/4 load. Row count bounds occupied slots from above
	// (only distinct keys claim slots), so this is conservative-safe.
	if uint64(len(t.hashes))*4 > (t.mask+1)*3 {
		t.rehash()
		return
	}
	t.link(r, h)
}

// build inserts every remaining row of the opened iterator it; rows
// with a NULL key never join and are left out.
func (t *joinTable) build(it Iterator) error {
	for {
		batch, ok, err := it.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for _, row := range batch {
			if h, keyed := t.hashRow(row); keyed {
				t.insert(row, h)
			}
		}
	}
}

// link walks the probe sequence for h and attaches row r: to the tail
// of an existing equal-key chain, or to a claimed empty slot.
func (t *joinTable) link(r int32, h uint64) {
	s := h & t.mask
	for {
		head := t.slots[s]
		if head == 0 {
			t.slots[s] = r + 1
			t.slotTail[s] = r
			t.slotHash[s] = h
			return
		}
		if t.slotHash[s] == h && t.sameKey(head-1, r) {
			tail := t.slotTail[s]
			t.next[tail] = r
			t.slotTail[s] = r
			return
		}
		s = (s + 1) & t.mask
	}
}

// rehash doubles the slot directory and relinks every row in insertion
// order, which reproduces all chains in insertion order.
func (t *joinTable) rehash() {
	t.resetSlots(2 * len(t.slots))
	for i := range t.next {
		t.next[i] = -1
	}
	for i, h := range t.hashes {
		t.link(int32(i), h)
	}
}

// sameKey reports whether two stored rows agree on the key columns.
func (t *joinTable) sameKey(a, b int32) bool {
	ra, rb := t.rows[a], t.rows[b]
	for _, ki := range t.keyIdx {
		if Compare(ra[ki], rb[ki]) != 0 {
			return false
		}
	}
	return true
}

// keysEqual reports whether stored row i agrees with the probeIdx
// columns of probe on the key columns.
func (t *joinTable) keysEqual(i int32, probe Tuple, probeIdx []int) bool {
	r := t.rows[i]
	for k, ki := range t.keyIdx {
		if Compare(r[ki], probe[probeIdx[k]]) != 0 {
			return false
		}
	}
	return true
}

// lookup returns the first stored row whose key equals probe's
// probeIdx columns under hash h, or -1. Follow the chain with
// nextMatch.
func (t *joinTable) lookup(h uint64, probe Tuple, probeIdx []int) int32 {
	if len(t.hashes) == 0 {
		return -1
	}
	s := h & t.mask
	for {
		head := t.slots[s]
		if head == 0 {
			return -1
		}
		if t.slotHash[s] == h && t.keysEqual(head-1, probe, probeIdx) {
			return head - 1
		}
		s = (s + 1) & t.mask
	}
}

// nextMatch follows the equal-key chain started by lookup.
func (t *joinTable) nextMatch(i int32) int32 { return t.next[i] }

// probeHits is what narrowProbe leaves of one probe column batch for
// one build table: the physical ids of the rows whose key the table
// holds, ascending, and beside each the head of its match chain.
type probeHits struct {
	sel   []int32
	heads []int32
}

// narrowProbe looks every live row of a probe column batch up in the
// build table its key hashes to — parts[h mod len(parts)], the
// partition rule of the parallel join's build and trivially the one
// table of the serial join — and fills hits[p] with the rows that found
// a partner in parts[p]. The key is read from the column vectors, so a
// probe row is hashed and looked up once, before it exists as a tuple,
// and only the rows in hits are worth materializing: the join resumes
// each from its remembered chain head. NULL keys never join.
//
// The hash is hashKeyAt's on the boxed key, whatever the vector layout,
// so an int key meets the float it equals.
func narrowProbe(parts []*joinTable, cb *ColBatch, probeIdx []int, hits []probeHits) {
	for p := range hits {
		hits[p].sel, hits[p].heads = hits[p].sel[:0], hits[p].heads[:0]
	}
	// A tid merge, and most other joins, have one int key: it is hashed
	// without building its Value.
	var ints *ColVec
	if len(probeIdx) == 1 {
		if col := &cb.Cols[probeIdx[0]]; col.Vals == nil && col.Kind == KindInt {
			ints = col
		}
	}
	np := uint64(len(parts))
	key := make(Tuple, len(cb.Cols)) // only the key columns are ever filled in
rows:
	for k, n := 0, cb.Rows(); k < n; k++ {
		i := cb.RowID(k)
		var h uint64
		if ints != nil {
			if ints.Nulls != nil && ints.Nulls[i] {
				continue
			}
			key[probeIdx[0]] = Int(ints.Ints[i])
			h = hashIntKey(ints.Ints[i])
		} else {
			for _, c := range probeIdx {
				if key[c] = cb.Cols[c].Value(i); key[c].IsNull() {
					continue rows
				}
			}
			h, _ = hashKeyAt(key, probeIdx)
		}
		p := h % np
		if head := parts[p].lookup(h, key, probeIdx); head >= 0 {
			hits[p].sel = append(hits[p].sel, int32(i))
			hits[p].heads = append(hits[p].heads, head)
		}
	}
}

// hashIntKey is hashKeyAt of a key that is the single int x.
func hashIntKey(x int64) uint64 {
	return (fnvOffset64 ^ fnvUint64(fnvByte(fnvOffset64, 1), uint64(x))) * fnvPrime64
}

// outArena carves write-once output tuples from chunked allocations,
// so emitting a join result row costs a copy — the one copy a join
// makes — not an allocation. The carved tuples are never reused, which
// keeps the NextBatch contract: consumers may retain them indefinitely.
type outArena struct {
	buf   []Value
	chunk int // last chunk size; doubles up to arenaChunk
}

// arenaChunk caps the allocation unit; with typical join output widths
// around ten columns this amortizes to roughly one allocation per
// eight hundred output rows. Chunks start small and double so an
// iterator that emits only a handful of rows doesn't pay for (or make
// the GC sweep) a full-size chunk.
const (
	arenaChunk      = 8192
	arenaFirstChunk = 64
)

// emit returns a stable copy of the join row l ++ r narrowed to the
// columns pick selects from it, in pick's order; a nil pick keeps the
// whole row. Every inner join writes its output through here.
func (a *outArena) emit(l, r Tuple, pick []int) Tuple {
	if pick == nil {
		return a.concat(l, r)
	}
	t := a.carve(len(pick))
	for i, c := range pick {
		if c < len(l) {
			t[i] = l[c]
		} else {
			t[i] = r[c-len(l)]
		}
	}
	return t
}

// concat returns a stable copy of l ++ r.
func (a *outArena) concat(l, r Tuple) Tuple {
	t := a.carve(len(l) + len(r))
	copy(t, l)
	copy(t[len(l):], r)
	return t
}

// bindOut resolves a join's output projection out against full, the
// schema of its concatenated row: the schema the join reports and the
// pick its emit takes. A nil out is the whole row.
func bindOut(full Schema, out []string) (Schema, []int, error) {
	if out == nil {
		return full, nil, nil
	}
	sch, err := full.Project(out)
	if err != nil {
		return Schema{}, nil, err
	}
	pick := make([]int, len(out))
	for i, name := range out {
		pick[i] = full.IndexOf(name)
	}
	return sch, pick, nil
}

func (a *outArena) carve(n int) Tuple {
	if len(a.buf) < n {
		size := a.chunk * 2
		if size < arenaFirstChunk {
			size = arenaFirstChunk
		}
		if size > arenaChunk {
			size = arenaChunk
		}
		if n > size {
			size = n
		}
		a.chunk = size
		a.buf = make([]Value, size)
	}
	t := a.buf[:n:n]
	a.buf = a.buf[n:]
	return t
}
