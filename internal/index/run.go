package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"

	"urel/internal/engine"
)

// Run file layout (multi-byte integers are varints unless noted fixed):
//
//	runMagic
//	uvarint #segments; per segment: uvarint #words, words (fixed64 each)
//	uvarint #entries; per entry: tagged key, uvarint segment, uvarint row
//	crc32 (fixed32) over everything above
//
// Entries are sorted by key under engine.Compare (ties by locator), so
// an equality probe is one binary search and a sort-merge join can
// stream the run in key order.
const runMagic = "URIDXv1\n"

// ErrCorruptRun reports a structurally invalid, truncated, or
// checksum-failing index run file.
var ErrCorruptRun = errors.New("index: corrupt run file")

// Loc locates one row inside a segment file: segment ordinal and row
// ordinal within the segment.
type Loc struct {
	Seg int32
	Row int32
}

// LookupStats accumulates side statistics of equality probes, surfaced
// in traces (runs consulted, whole runs rejected by bloom filters) and
// the urel_index_* metric families.
type LookupStats struct {
	RunsConsulted   int64
	BloomRejections int64
	Hits            int64
}

// Run is an immutable sorted-run index over one layer file: every
// non-null key of the indexed column, sorted, with its row locator,
// plus one bloom filter per segment for equality keys. The keys are one
// typed vector: an int vector when every key is an int (tuple-id runs
// and int columns), a generic one otherwise.
type Run struct {
	keys   engine.ColVec
	locs   []Loc
	blooms []bloom
	ndv    int // distinct keys; derived after sorting (0 when empty)
}

// Builder accumulates per-segment key columns in storage order and
// finalizes them into a Run. It handles arbitrary per-segment row
// counts (a file's last segment is usually partial), which is what
// building from an already-written segment file needs.
type Builder struct {
	keys   []engine.Value
	locs   []Loc
	blooms []bloom
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Segment appends the key column of the next segment, in row order.
// Null keys are skipped — an equality probe can never match NULL.
func (b *Builder) Segment(keys []engine.Value) {
	si := len(b.blooms)
	n := 0
	for _, k := range keys {
		if !k.IsNull() {
			n++
		}
	}
	bl := newBloom(n)
	for row, k := range keys {
		if k.IsNull() {
			continue
		}
		b.keys = append(b.keys, k)
		b.locs = append(b.locs, Loc{Seg: int32(si), Row: int32(row)})
		bl.add(hashKey(k))
	}
	b.blooms = append(b.blooms, bl)
}

// Run sorts the accumulated entries and returns the finished run. The
// builder must not be reused afterwards.
func (b *Builder) Run() *Run {
	sort.Sort(entries{b})
	r := &Run{keys: keyVec(b.keys), locs: b.locs, blooms: b.blooms}
	r.deriveNDV()
	return r
}

// entries sorts a builder's entries by key, ties by locator.
type entries struct{ b *Builder }

func (s entries) Len() int { return len(s.b.keys) }
func (s entries) Less(i, j int) bool {
	if c := engine.Compare(s.b.keys[i], s.b.keys[j]); c != 0 {
		return c < 0
	}
	return locLess(s.b.locs[i], s.b.locs[j])
}
func (s entries) Swap(i, j int) {
	s.b.keys[i], s.b.keys[j] = s.b.keys[j], s.b.keys[i]
	s.b.locs[i], s.b.locs[j] = s.b.locs[j], s.b.locs[i]
}

func locLess(a, b Loc) bool {
	if a.Seg != b.Seg {
		return a.Seg < b.Seg
	}
	return a.Row < b.Row
}

// keyVec lays sorted keys out as an int vector when every one is an
// int, as a generic vector otherwise.
func keyVec(keys []engine.Value) engine.ColVec {
	ints := make([]int64, len(keys))
	for i, k := range keys {
		if k.K != engine.KindInt {
			return engine.GenericVec(keys)
		}
		ints[i] = k.I
	}
	return engine.IntVec(ints, nil)
}

// intKeys returns the keys as ints when the run holds only ints.
func (r *Run) intKeys() ([]int64, bool) {
	return r.keys.Ints, r.keys.Vals == nil && r.keys.Kind == engine.KindInt
}

// BuildRun indexes keys given in storage order under uniform chunking:
// key i lives at segment i/segRows, row i%segRows — exactly how
// WritePartition chunks rows into segments.
func BuildRun(keys []engine.Value, segRows int) *Run {
	if segRows <= 0 {
		segRows = 1
	}
	b := NewBuilder()
	for start := 0; start < len(keys); start += segRows {
		end := start + segRows
		if end > len(keys) {
			end = len(keys)
		}
		b.Segment(keys[start:end])
	}
	return b.Run()
}

// deriveNDV counts distinct keys by one pass over the sorted entries.
func (r *Run) deriveNDV() {
	n := 0
	if ints, ok := r.intKeys(); ok {
		for i, k := range ints {
			if i == 0 || k != ints[i-1] {
				n++
			}
		}
	} else {
		for i := range r.locs {
			if i == 0 || engine.Compare(r.keys.Value(i), r.keys.Value(i-1)) != 0 {
				n++
			}
		}
	}
	r.ndv = n
}

// NDV returns the number of distinct indexed keys (the run's exact
// per-layer statistic, feeding lookup-cardinality estimates).
func (r *Run) NDV() int { return r.ndv }

// Len returns the number of indexed (non-null) keys.
func (r *Run) Len() int { return len(r.locs) }

// Segments returns the number of per-segment bloom filters.
func (r *Run) Segments() int { return len(r.blooms) }

// Lookup returns the locators of every row whose key equals key, in
// (segment, row) order. The per-segment bloom filters run first: a run
// none of whose segments can contain the key is rejected without
// touching the sorted entries at all. An int probe of an int run is a
// binary search of the ints; any other goes through engine.Compare.
func (r *Run) Lookup(key engine.Value, st *LookupStats) []Loc {
	if st != nil {
		st.RunsConsulted++
	}
	if key.IsNull() || len(r.locs) == 0 {
		return nil
	}
	h := hashKey(key)
	any := false
	for _, b := range r.blooms {
		if b.has(h) {
			any = true
			break
		}
	}
	if !any {
		if st != nil {
			st.BloomRejections++
		}
		return nil
	}
	var lo, hi int
	if ints, ok := r.intKeys(); ok && key.K == engine.KindInt {
		lo = sort.Search(len(ints), func(i int) bool { return ints[i] >= key.I })
		hi = lo
		for hi < len(ints) && ints[hi] == key.I {
			hi++
		}
	} else {
		lo = sort.Search(len(r.locs), func(i int) bool {
			return engine.Compare(r.keys.Value(i), key) >= 0
		})
		hi = lo
		for hi < len(r.locs) && engine.Compare(r.keys.Value(hi), key) == 0 {
			hi++
		}
	}
	if lo == hi {
		return nil
	}
	out := make([]Loc, hi-lo)
	copy(out, r.locs[lo:hi])
	sort.Slice(out, func(i, j int) bool { return locLess(out[i], out[j]) })
	if st != nil {
		st.Hits += int64(len(out))
	}
	return out
}

// Marshal encodes the run into its file format.
func (r *Run) Marshal() []byte {
	b := []byte(runMagic)
	b = binary.AppendUvarint(b, uint64(len(r.blooms)))
	for _, bl := range r.blooms {
		b = binary.AppendUvarint(b, uint64(len(bl.words)))
		for _, w := range bl.words {
			var x [8]byte
			binary.LittleEndian.PutUint64(x[:], w)
			b = append(b, x[:]...)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.locs)))
	for i, loc := range r.locs {
		b = appendKeyValue(b, r.keys.Value(i))
		b = binary.AppendUvarint(b, uint64(loc.Seg))
		b = binary.AppendUvarint(b, uint64(loc.Row))
	}
	crc := crc32.ChecksumIEEE(b)
	return append(b, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// Unmarshal decodes a run file, validating the checksum. Keys decode
// straight into the run's int vector while they are ints; the first
// key of another kind turns the vector generic. Every count is bounded
// by the bytes left before anything is allocated for it: a bloom filter
// takes at least its one-byte word count, a word eight bytes, an entry
// three (a kind byte and two locator bytes).
func Unmarshal(data []byte) (*Run, error) {
	if len(data) < len(runMagic)+4 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrCorruptRun, len(data))
	}
	if string(data[:len(runMagic)]) != runMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptRun)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptRun)
	}
	c := &runCursor{b: body, pos: len(runMagic)}
	nsegs, err := c.countOf(1)
	if err != nil {
		return nil, err
	}
	r := &Run{blooms: make([]bloom, nsegs)}
	for si := range r.blooms {
		nw, err := c.countOf(8)
		if err != nil {
			return nil, err
		}
		words := make([]uint64, nw)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(c.b[c.pos:])
			c.pos += 8
		}
		r.blooms[si] = bloom{words: words}
	}
	n, err := c.countOf(3)
	if err != nil {
		return nil, err
	}
	ints := make([]int64, n)
	var vals []engine.Value // non-nil once a key is not an int
	r.locs = make([]Loc, n)
	for i := range r.locs {
		if vals == nil && c.pos < len(c.b) && c.b[c.pos] == byte(engine.KindInt) {
			c.pos++
			if ints[i], err = c.varint(); err != nil {
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
				ints = nil
			}
			vals[i] = v
		}
		seg, err := c.count(1 << 31)
		if err != nil {
			return nil, err
		}
		row, err := c.count(1 << 31)
		if err != nil {
			return nil, err
		}
		r.locs[i] = Loc{Seg: int32(seg), Row: int32(row)}
	}
	if c.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRun, len(body)-c.pos)
	}
	if vals != nil {
		r.keys = engine.GenericVec(vals)
	} else {
		r.keys = engine.IntVec(ints, nil)
	}
	r.deriveNDV()
	return r, nil
}

// WriteFile writes the run to path and syncs it, so a subsequently
// committed manifest never references a half-written run.
func (r *Run) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(r.Marshal()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads and decodes a run file.
func Load(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// runCursor decodes the run body, turning every overrun into
// ErrCorruptRun.
type runCursor struct {
	b   []byte
	pos int
}

// countOf decodes the count of a run of items that take at least unit
// bytes each, bounded by the bytes left after it.
func (c *runCursor) countOf(unit int) (int, error) {
	start := c.pos
	v, err := c.count(math.MaxInt32)
	if err != nil {
		return 0, err
	}
	if left := len(c.b) - c.pos; v > left/unit {
		return 0, fmt.Errorf("%w: count %d at offset %d exceeds the %d bytes left", ErrCorruptRun, v, start, left)
	}
	return v, nil
}

func (c *runCursor) count(max uint64) (int, error) {
	if c.pos < len(c.b) && c.b[c.pos] < 0x80 && uint64(c.b[c.pos]) <= max {
		v := int(c.b[c.pos])
		c.pos++
		return v, nil
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrCorruptRun, c.pos)
	}
	if v > max {
		return 0, fmt.Errorf("%w: count %d exceeds bound %d", ErrCorruptRun, v, max)
	}
	c.pos += n
	return int(v), nil
}

func (c *runCursor) varint() (int64, error) {
	if c.pos < len(c.b) && c.b[c.pos] < 0x80 {
		u := c.b[c.pos]
		c.pos++
		return int64(u>>1) ^ -int64(u&1), nil
	}
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrCorruptRun, c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *runCursor) fixed64() (uint64, error) {
	if c.pos+8 > len(c.b) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorruptRun, c.pos)
	}
	v := binary.LittleEndian.Uint64(c.b[c.pos:])
	c.pos += 8
	return v, nil
}

// appendKeyValue encodes a tagged scalar key.
func appendKeyValue(b []byte, v engine.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case engine.KindInt, engine.KindBool:
		b = binary.AppendVarint(b, v.I)
	case engine.KindFloat:
		var x [8]byte
		binary.LittleEndian.PutUint64(x[:], math.Float64bits(v.F))
		b = append(b, x[:]...)
	case engine.KindString:
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		b = append(b, v.S...)
	}
	return b
}

func (c *runCursor) value() (engine.Value, error) {
	if c.pos >= len(c.b) {
		return engine.Null(), fmt.Errorf("%w: truncated key at offset %d", ErrCorruptRun, c.pos)
	}
	k := engine.Kind(c.b[c.pos])
	c.pos++
	switch k {
	case engine.KindNull:
		return engine.Null(), nil
	case engine.KindInt:
		i, err := c.varint()
		return engine.Int(i), err
	case engine.KindBool:
		i, err := c.varint()
		return engine.Bool(i != 0), err
	case engine.KindFloat:
		bits, err := c.fixed64()
		return engine.Float(math.Float64frombits(bits)), err
	case engine.KindString:
		n, err := c.count(uint64(len(c.b)))
		if err != nil {
			return engine.Null(), err
		}
		if c.pos+n > len(c.b) {
			return engine.Null(), fmt.Errorf("%w: truncated string key at offset %d", ErrCorruptRun, c.pos)
		}
		s := string(c.b[c.pos : c.pos+n])
		c.pos += n
		return engine.Str(s), nil
	default:
		return engine.Null(), fmt.Errorf("%w: unknown key kind %d", ErrCorruptRun, k)
	}
}
