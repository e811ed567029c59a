package store

import (
	"encoding/binary"
	"math"
	"sort"

	"urel/internal/engine"
)

// Index run file layout (multi-byte integers are varints unless noted
// fixed):
//
//	runMagic
//	uvarint #segments; per segment: uvarint #words, words (fixed64 each)
//	uvarint #entries; per entry: tagged key, uvarint segment, uvarint row
//	crc32 (fixed32) over everything above
//
// Entries are sorted by key under engine.Compare (ties by locator), so
// an equality probe is one binary search.
const runMagic = "URIDXv1\n"

// idxLoc locates one row of a layer file: segment, and row within it.
type idxLoc struct{ seg, row int32 }

func locLess(a, b idxLoc) bool { return a.seg < b.seg || a.seg == b.seg && a.row < b.row }

// idxRun is an immutable sorted-run index over one layer file: every
// non-null key of the indexed column, sorted, with its row locator, plus
// one bloom filter per segment. The keys are one typed vector: an int
// vector when every key is an int, a generic one otherwise.
type idxRun struct {
	keys   engine.ColVec
	locs   []idxLoc
	blooms []bloom
	ndv    int // distinct keys
}

// runBuilder accumulates a layer's key columns segment by segment, in
// storage order, and sorts them into a run.
type runBuilder struct {
	keys   []engine.Value
	locs   []idxLoc
	blooms []bloom
}

// segment appends the key column of the next segment, in row order.
// Null keys are skipped: an equality probe never matches NULL.
func (b *runBuilder) segment(keys []engine.Value) {
	si := len(b.blooms)
	n := 0
	for _, k := range keys {
		if !k.IsNull() {
			n++
		}
	}
	bl := newBloom(n)
	for row, k := range keys {
		if !k.IsNull() {
			b.keys = append(b.keys, k)
			b.locs = append(b.locs, idxLoc{int32(si), int32(row)})
			bl.add(hashKey(k))
		}
	}
	b.blooms = append(b.blooms, bl)
}

func (b *runBuilder) Len() int { return len(b.keys) }
func (b *runBuilder) Less(i, j int) bool {
	if c := engine.Compare(b.keys[i], b.keys[j]); c != 0 {
		return c < 0
	}
	return locLess(b.locs[i], b.locs[j])
}
func (b *runBuilder) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.locs[i], b.locs[j] = b.locs[j], b.locs[i]
}

// run sorts the entries and returns the run; the builder is spent.
func (b *runBuilder) run() *idxRun {
	sort.Sort(b)
	ints := make([]int64, len(b.keys))
	r := &idxRun{keys: engine.IntVec(ints, nil), locs: b.locs, blooms: b.blooms}
	for i, k := range b.keys {
		if k.K != engine.KindInt {
			r.keys = engine.GenericVec(b.keys)
			break
		}
		ints[i] = k.I
	}
	r.deriveNDV()
	return r
}

// buildRun indexes keys given in storage order under uniform chunking:
// key i lives at segment i/segRows, row i%segRows, as WritePartition
// chunks rows into segments.
func buildRun(keys []engine.Value, segRows int) *idxRun {
	var b runBuilder
	for start := 0; start < len(keys); start += segRows {
		b.segment(keys[start:min(start+segRows, len(keys))])
	}
	return b.run()
}

// intKeys returns the keys as ints when the run holds only ints.
func (r *idxRun) intKeys() ([]int64, bool) {
	return r.keys.Ints, r.keys.Vals == nil && r.keys.Kind == engine.KindInt
}

// deriveNDV counts distinct keys by one pass over the sorted entries.
func (r *idxRun) deriveNDV() {
	if ints, ok := r.intKeys(); ok {
		for i, k := range ints {
			if i == 0 || k != ints[i-1] {
				r.ndv++
			}
		}
		return
	}
	for i := range r.locs {
		if i == 0 || engine.Compare(r.keys.Value(i), r.keys.Value(i-1)) != 0 {
			r.ndv++
		}
	}
}

// lookup returns the locators of every row whose key equals key, in
// (segment, row) order, and whether the bloom filters rejected the run
// without touching its entries: none of its segments can hold the key.
// An int probe of an int run is a binary search of the ints; any other
// goes through engine.Compare.
func (r *idxRun) lookup(key engine.Value) (locs []idxLoc, bloomRejected bool) {
	if key.IsNull() || len(r.locs) == 0 {
		return nil, false
	}
	h := hashKey(key)
	bloomRejected = true
	for _, b := range r.blooms {
		if b.has(h) {
			bloomRejected = false
			break
		}
	}
	if bloomRejected {
		return nil, true
	}
	var lo, hi int
	if ints, ok := r.intKeys(); ok && key.K == engine.KindInt {
		lo = sort.Search(len(ints), func(i int) bool { return ints[i] >= key.I })
		hi = lo
		for hi < len(ints) && ints[hi] == key.I {
			hi++
		}
	} else {
		lo = sort.Search(len(r.locs), func(i int) bool { return engine.Compare(r.keys.Value(i), key) >= 0 })
		hi = lo
		for hi < len(r.locs) && engine.Compare(r.keys.Value(hi), key) == 0 {
			hi++
		}
	}
	if lo == hi {
		return nil, false
	}
	out := append([]idxLoc(nil), r.locs[lo:hi]...)
	sort.Slice(out, func(i, j int) bool { return locLess(out[i], out[j]) })
	return out, false
}

// encode renders the run in its file format.
func (r *idxRun) encode() []byte {
	b := appendUint([]byte(runMagic), uint64(len(r.blooms)))
	for _, bl := range r.blooms {
		b = appendUint(b, uint64(len(bl.words)))
		for _, w := range bl.words {
			b = appendFixed64(b, w)
		}
	}
	b = appendUint(b, uint64(len(r.locs)))
	for i, loc := range r.locs {
		b = appendValue(b, r.keys.Value(i))
		b = appendUint(b, uint64(loc.seg))
		b = appendUint(b, uint64(loc.row))
	}
	return seal(b)
}

// decodeRun decodes a run file, validating its checksum. Keys decode
// straight into the run's int vector while they are ints; the first key
// of another kind turns the vector generic. Every count is bounded by
// the bytes left before anything is allocated for it: a bloom filter
// takes at least its one-byte word count, a word eight bytes, an entry
// three (a kind byte and two locator bytes).
func decodeRun(data []byte) (*idxRun, error) {
	c, err := openSealed(data, runMagic, "index run")
	if err != nil {
		return nil, err
	}
	nsegs, err := c.countOf(1)
	if err != nil {
		return nil, err
	}
	r := &idxRun{blooms: make([]bloom, nsegs)}
	for si := range r.blooms {
		nw, err := c.countOf(8)
		if err != nil {
			return nil, err
		}
		raw, _ := c.bytes(8 * nw) // countOf left room for them
		r.blooms[si].words = make([]uint64, nw)
		for i := range r.blooms[si].words {
			r.blooms[si].words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
	}
	n, err := c.countOf(3)
	if err != nil {
		return nil, err
	}
	ints := make([]int64, n)
	var vals []engine.Value // non-nil once a key is not an int
	r.locs = make([]idxLoc, n)
	for i := range r.locs {
		if vals == nil && c.left() > 0 && c.b[c.pos] == byte(engine.KindInt) {
			c.pos++
			if ints[i], err = c.int(); err != nil {
				return nil, err
			}
		} else {
			v, err := c.value()
			if err != nil {
				return nil, err
			}
			if vals == nil {
				vals = make([]engine.Value, n)
				for j, k := range ints[:i] {
					vals[j] = engine.Int(k)
				}
			}
			vals[i] = v
		}
		seg, err := c.count(math.MaxInt32)
		if err != nil {
			return nil, err
		}
		row, err := c.count(math.MaxInt32)
		if err != nil {
			return nil, err
		}
		r.locs[i] = idxLoc{int32(seg), int32(row)}
	}
	if c.left() != 0 {
		return nil, corruptf("%d trailing bytes in index run", c.left())
	}
	r.keys = engine.IntVec(ints, nil)
	if vals != nil {
		r.keys = engine.GenericVec(vals)
	}
	r.deriveNDV()
	return r, nil
}

// bloomBitsPerKey and bloomHashes size the per-segment filters at
// ~10 bits per key with 7 probes: under 1% false positives.
const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
)

// bloom is a double-hashing bloom filter over 64-bit key hashes. The
// zero value is an always-empty filter.
type bloom struct {
	words []uint64
}

// newBloom sizes a filter for n keys.
func newBloom(n int) bloom {
	bits := max(n*bloomBitsPerKey, 64)
	return bloom{words: make([]uint64, (bits+63)/64)}
}

func (b bloom) add(h uint64) {
	nbits := uint64(len(b.words)) * 64
	h1, h2 := h, h>>32|h<<32
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % nbits
		b.words[bit/64] |= 1 << (bit % 64)
	}
}

func (b bloom) has(h uint64) bool {
	if len(b.words) == 0 {
		return false
	}
	nbits := uint64(len(b.words)) * 64
	h1, h2 := h, h>>32|h<<32
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % nbits
		if b.words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// hashKey hashes a scalar value for the bloom filters: FNV-1a over a
// canonical kind tag and payload. engine.Compare treats Int and Float
// as one numeric domain, so an integral float in int64 range hashes
// exactly like the equal int: equal values always collide, the one
// property equality probes need. (Bool is its own kind under Compare
// and keeps its own tag.)
func hashKey(v engine.Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	kind, payload := v.K, uint64(v.I)
	if f := v.F; kind == engine.KindFloat {
		if f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
			kind, payload = engine.KindInt, uint64(int64(f))
		} else {
			payload = math.Float64bits(f)
		}
	}
	h := (offset64 ^ uint64(kind)) * prime64
	if kind == engine.KindString {
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * prime64
		}
		return h
	}
	for i := 0; i < 64; i += 8 {
		h = (h ^ payload>>i&0xff) * prime64
	}
	return h
}
