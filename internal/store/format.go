package store

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// Segment file layout (all multi-byte integers are varints unless noted
// as fixed little-endian):
//
//	fileMagic
//	segment payloads, back to back (offsets/lengths in the footer)
//	footer: width, #attrs, attr kind bytes, #segments,
//	        per segment: offset, length, crc32 (fixed32), rows,
//	                     least tid, greatest − least tid (uvarint),
//	                     per attr: non-null count, [min value, max value]
//	tail (20 bytes, fixed): footer crc32 (fixed32) + footer offset
//	                        (fixed64) + tailMagic
//
// Each segment holds up to the writer's segment-row budget of rows,
// column-major: the padded descriptor (Var, Rng) columns, the tuple-id
// column, then one value column per attribute (null bitmap + payload).
// A writer lays rows out in stable tuple-id order, so each segment's
// tid bounds cover a slice of the partition's tuples and a scan handed
// keys skips the segments whose bounds hold none. A reader relies on
// that order: a segment whose tids descend, or a footer whose segment
// bounds go backwards, is corrupt.
//
// This is the only segment format a store opens: a URSEGv1 file, the
// format before tid order and tid bounds, is refused (NewPartHandle).
const (
	fileMagic = "URSEGv2\n"
	tailMagic = "URSEGend"
	tailLen   = 4 + 8 + len(tailMagic)
)

// kindMixed marks a column whose non-null values do not share a single
// kind; its cells are stored as individually tagged values. A plain
// engine.KindNull column byte marks an all-null column with no payload
// beyond the bitmap.
const kindMixed byte = 0xFF

// ErrCorrupt reports stored data that is structurally invalid,
// truncated or checksum-failing, or in a layout this build does not
// open: a segment file, the catalog, the world table, a WAL record or
// frame, an index run. The error that wraps it names the file.
var ErrCorrupt = errors.New("store: corrupt data")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// appendInt / appendUint append varints; fixed-width helpers are used
// where byte budgets must be predictable (checksums, the tail).
func appendInt(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte { return append(appendUint(b, uint64(len(s))), s...) }

func appendFixed32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendFixed64(b []byte, v uint64) []byte {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	return append(b, x[:]...)
}

// seal appends the CRC32 of b, the trailer of a world table or an
// index run.
func seal(b []byte) []byte { return appendFixed32(b, crc32.ChecksumIEEE(b)) }

// openSealed checks a file laid out as seal leaves it, magic first,
// and returns a cursor over what the trailer covers, past the magic.
func openSealed(b []byte, magic, what string) (cursor, error) {
	if len(b) < len(magic)+4 {
		return cursor{}, corruptf("%s of %d bytes is too small", what, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return cursor{}, corruptf("bad %s magic", what)
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return cursor{}, corruptf("%s checksum mismatch", what)
	}
	return cursor{b: body, pos: len(magic)}, nil
}

// cursor decodes a byte slice, turning every overrun into ErrCorrupt.
// It is the one reader of every file the store writes: segment
// payloads, footers and tails, the world table, WAL records and index
// runs. A one-byte varint, most counts, descriptor cells and small
// values, is decoded in place; longer ones go through encoding/binary.
type cursor struct {
	b   []byte
	pos int
}

func (c *cursor) int() (int64, error) {
	if c.pos < len(c.b) && c.b[c.pos] < 0x80 {
		u := c.b[c.pos]
		c.pos++
		return int64(u>>1) ^ -int64(u&1), nil
	}
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad varint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

// varints decodes len(dst) varints into dst: the loop every int column
// of a segment and every domain of the world table goes through. A
// one-byte varint, most descriptor cells and small values, is decoded
// in place; longer ones go through binary.Varint.
func varints[T ~int64](c *cursor, dst []T) error {
	b, pos := c.b, c.pos
	for i := range dst {
		if pos < len(b) && b[pos] < 0x80 {
			u := b[pos]
			dst[i] = T(int64(u>>1) ^ -int64(u&1))
			pos++
			continue
		}
		v, n := binary.Varint(b[pos:])
		if n <= 0 {
			c.pos = pos
			return corruptf("bad varint at offset %d", pos)
		}
		dst[i] = T(v)
		pos += n
	}
	c.pos = pos
	return nil
}

// left returns the number of bytes not yet decoded.
func (c *cursor) left() int { return len(c.b) - c.pos }

func (c *cursor) uint() (uint64, error) {
	if c.pos < len(c.b) && c.b[c.pos] < 0x80 {
		c.pos++
		return uint64(c.b[c.pos-1]), nil
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad uvarint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

// count decodes a uvarint bounded by max (guarding allocations against
// corrupt length fields).
func (c *cursor) count(max uint64) (int, error) {
	if c.pos < len(c.b) && c.b[c.pos] < 0x80 && uint64(c.b[c.pos]) <= max {
		c.pos++
		return int(c.b[c.pos-1]), nil
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad uvarint at offset %d", c.pos)
	}
	if v > max {
		return 0, corruptf("count %d exceeds bound %d", v, max)
	}
	c.pos += n
	return int(v), nil
}

// countOf decodes the count of a run of items that take at least unit
// bytes each, bounded by the bytes left after it: a count no payload
// could hold is refused before anything is allocated for it.
func (c *cursor) countOf(unit int) (int, error) {
	v, err := c.uint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.left()/unit) {
		return 0, corruptf("count %d of %d-byte items exceeds the %d bytes left", v, unit, c.left())
	}
	return int(v), nil
}

// str decodes a length-prefixed string.
func (c *cursor) str() (string, error) {
	n, err := c.countOf(1)
	if err != nil {
		return "", err
	}
	c.pos += n
	return string(c.b[c.pos-n : c.pos]), nil
}

func (c *cursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, corruptf("truncated at offset %d", c.pos)
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, corruptf("truncated at offset %d (need %d bytes)", c.pos, n)
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v, nil
}

func (c *cursor) fixed32() (uint32, error) {
	v, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(v), nil
}

// floats decodes len(xs) fixed little-endian float64s into xs.
func (c *cursor) floats(xs []float64) error {
	raw, err := c.bytes(8 * len(xs))
	if err != nil {
		return err
	}
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return nil
}

func (c *cursor) fixed64() (uint64, error) {
	v, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(v), nil
}

// appendValue encodes a tagged scalar value.
func appendValue(b []byte, v engine.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case engine.KindNull:
	case engine.KindInt, engine.KindBool:
		b = appendInt(b, v.I)
	case engine.KindFloat:
		b = appendFixed64(b, math.Float64bits(v.F))
	case engine.KindString:
		b = appendString(b, v.S)
	}
	return b
}

func (c *cursor) value() (engine.Value, error) {
	k, err := c.byte()
	if err != nil {
		return engine.Null(), err
	}
	switch engine.Kind(k) {
	case engine.KindNull:
		return engine.Null(), nil
	case engine.KindInt:
		i, err := c.int()
		return engine.Int(i), err
	case engine.KindBool:
		i, err := c.int()
		return engine.Bool(i != 0), err
	case engine.KindFloat:
		bits, err := c.fixed64()
		return engine.Float(math.Float64frombits(bits)), err
	case engine.KindString:
		s, err := c.str()
		return engine.Str(s), err
	default:
		return engine.Null(), corruptf("unknown value kind %d", k)
	}
}

// colStats holds the footer statistics of one value column in one
// segment. Min/Max are ordered by engine.Compare — the same total
// order predicate evaluation uses — so pruning against them is exact
// for every kind, and null rows (which never satisfy a comparison)
// are excluded via NonNull.
type colStats struct {
	NonNull  int
	Min, Max engine.Value
}

// segMeta locates and describes one segment. TidLo and TidHi bound its
// tuple ids: the least and greatest.
type segMeta struct {
	Off          int64
	Len          int
	CRC          uint32
	Rows         int
	TidLo, TidHi int64
	Stats        []colStats
}

// fileMeta is the decoded footer of a partition file.
type fileMeta struct {
	Width int    // padded descriptor width
	Kinds []byte // engine.Kind per value attribute, or kindMixed
	Segs  []segMeta
	Rows  int // total row count
}

// padAssign returns the k-th assignment of the descriptor padded to an
// arbitrary width, mirroring ws.Descriptor.Pad: existing assignments
// first, then the first assignment repeated (or the trivial assignment
// for the empty descriptor).
func padAssign(d ws.Descriptor, k int) ws.Assignment {
	if k < len(d) {
		return d[k]
	}
	if len(d) > 0 {
		return d[0]
	}
	return ws.Assignment{Var: ws.TrivialVar, Val: 0}
}

// deriveKinds infers each value column's storage kind over all rows:
// the shared kind of the non-null values, engine.KindNull if every
// value is null, kindMixed otherwise.
func deriveKinds(rows []core.URow, nattrs int) []byte {
	kinds := make([]byte, nattrs)
	for ci := 0; ci < nattrs; ci++ {
		k := byte(engine.KindNull)
		for _, r := range rows {
			v := r.Vals[ci]
			if v.IsNull() {
				continue
			}
			if k == byte(engine.KindNull) {
				k = byte(v.K)
			} else if k != byte(v.K) {
				k = kindMixed
				break
			}
		}
		kinds[ci] = k
	}
	return kinds
}

// rowSeq is a sequence of rows in write order: rows[perm[i]] when perm
// is set, rows[i] otherwise. It lays rows out in tid order (inTIDOrder)
// without copying them.
type rowSeq struct {
	rows []core.URow
	perm []int32
}

func (s rowSeq) len() int {
	if s.perm != nil {
		return len(s.perm)
	}
	return len(s.rows)
}

func (s rowSeq) at(i int) *core.URow {
	if s.perm != nil {
		return &s.rows[s.perm[i]]
	}
	return &s.rows[i]
}

// slice returns the rows at positions [lo, hi) of the sequence.
func (s rowSeq) slice(lo, hi int) rowSeq {
	if s.perm != nil {
		return rowSeq{rows: s.rows, perm: s.perm[lo:hi]}
	}
	return rowSeq{rows: s.rows[lo:hi]}
}

// inTIDOrder returns rows as a sequence in stable tuple-id order. Rows
// already in that order are taken as they are. Otherwise the positions
// past the input's ascending prefix are stably sorted by tid and merged
// with the prefix into a permutation, a tie taking the prefix's row, so
// equal tids keep their input order. Generated data is such a prefix —
// every tuple's first alternative — and a short tail of the others, so
// its order costs one linear merge.
func inTIDOrder(rows []core.URow) rowSeq {
	p := 1
	for p < len(rows) && rows[p-1].TID <= rows[p].TID {
		p++
	}
	if p >= len(rows) {
		return rowSeq{rows: rows}
	}
	rest := make([]int32, len(rows)-p)
	for i := range rest {
		rest[i] = int32(p + i)
	}
	slices.SortStableFunc(rest, func(a, b int32) int { return cmp.Compare(rows[a].TID, rows[b].TID) })
	perm := make([]int32, len(rows))
	i, j := 0, 0
	for k := range perm {
		if j == len(rest) || (i < p && rows[i].TID <= rows[rest[j]].TID) {
			perm[k] = int32(i)
			i++
		} else {
			perm[k] = rest[j]
			j++
		}
	}
	return rowSeq{rows: rows, perm: perm}
}

// encodeSegment appends the rows of one segment to b, column-major, and
// returns the segment's footer entry without its location: row count,
// tid bounds and per-column statistics.
func encodeSegment(b []byte, rows rowSeq, width int, kinds []byte) ([]byte, segMeta) {
	n := rows.len()
	m := segMeta{Rows: n, Stats: make([]colStats, len(kinds))}
	// Descriptor columns, padded to width (Section 3's "pumping in
	// already contained variable assignments").
	for k := 0; k < width; k++ {
		for i := 0; i < n; i++ {
			b = appendInt(b, int64(padAssign(rows.at(i).D, k).Var))
		}
		for i := 0; i < n; i++ {
			b = appendInt(b, int64(padAssign(rows.at(i).D, k).Val))
		}
	}
	// Tuple-id column.
	if n > 0 {
		m.TidLo, m.TidHi = rows.at(0).TID, rows.at(0).TID
	}
	for i := 0; i < n; i++ {
		tid := rows.at(i).TID
		b = appendInt(b, tid)
		m.TidLo, m.TidHi = min(m.TidLo, tid), max(m.TidHi, tid)
	}
	// Value columns: null bitmap, then kind-specific payload.
	for ci, k := range kinds {
		bm := len(b)
		b = append(b, make([]byte, (n+7)/8)...)
		for i := 0; i < n; i++ {
			if rows.at(i).Vals[ci].IsNull() {
				b[bm+i/8] |= 1 << (i % 8)
			}
		}
		st := &m.Stats[ci]
		for i := 0; i < n; i++ {
			v := rows.at(i).Vals[ci]
			if !v.IsNull() {
				if st.NonNull == 0 {
					st.Min, st.Max = v, v
				} else {
					if engine.Compare(v, st.Min) < 0 {
						st.Min = v
					}
					if engine.Compare(v, st.Max) > 0 {
						st.Max = v
					}
				}
				st.NonNull++
			}
			switch k {
			case byte(engine.KindNull):
			case byte(engine.KindInt), byte(engine.KindBool):
				b = appendInt(b, v.I)
			case byte(engine.KindFloat):
				b = appendFixed64(b, math.Float64bits(v.F))
			case byte(engine.KindString):
				b = appendString(b, v.S)
			default: // kindMixed
				b = appendValue(b, v)
			}
		}
	}
	return b, m
}

// segment is one decoded row group. Value columns decode straight into
// typed engine.ColVec vectors (null markers + typed payloads), so a
// columnar scan hands them to the engine with no per-cell work at all.
// tidLo and tidHi bound the tuple ids (lo > hi when empty): a
// tombstone filter is narrowed to the batches that meet them. The rows
// are in tid order (decodeSegment refuses a segment whose are not), so
// a narrowed scan binary-searches them for a tid range. dvar, drng
// and tid are windows of one slab (dvar and drng are nil when the
// segment has no rows).
type segment struct {
	n            int
	dvar         [][]int64 // [width][n]
	drng         [][]int64
	tid          []int64
	tidLo, tidHi int64
	cols         []engine.ColVec // [nattr], each of n cells
}

// decodeSegment decodes the payload of the segment sm describes in one
// pass. The descriptor and tid columns share one int64 slab, laid out as
// they are encoded; they and the int and bool columns go through one
// varint loop, floats are read straight from the payload, and the cells
// of a string column are slices of one string. It keeps nothing of data.
// Tuple ids outside sm's bounds are corrupt: the bounds decide which
// segments a narrowed scan reads. So are tuple ids that descend: a scan
// serves rows, and merges layers, in tid order.
//
// With owned nil, every vector is a fresh allocation and the segment is
// the caller's for good: the SegCache keeps such segments, as do
// ReadSegment's callers (Load, compaction, index builds). Otherwise the
// slab, the int, bool and float columns, the string headers and the null
// marks are taken from process-wide pools (take) and listed in *owned:
// the caller owns the segment and hands the list back (recycle) once
// nothing reads it. Every pooled cell is overwritten here, so none but
// a null mark is zeroed. A string column's text is never pooled: the
// Values a query makes of its cells slice it.
func decodeSegment(data []byte, sm *segMeta, width int, kinds []byte, owned *recycler) (*segment, error) {
	n := sm.Rows
	// Every int cell takes at least a byte: a row count or width the
	// payload cannot hold is refused before it sizes the slab.
	if ints := 2*width + 1; n > len(data)/ints {
		return nil, corruptf("segment of %d rows and %d int columns in %d bytes", n, ints, len(data))
	}
	c := &cursor{b: data}
	slab := take(&intBufs, (2*width+1)*n, owned)
	if err := varints(c, slab); err != nil {
		return nil, err
	}
	s := &segment{n: n, tid: slab[2*width*n:], cols: make([]engine.ColVec, len(kinds))}
	if n > 0 && width > 0 {
		pairs := make([][]int64, 2*width)
		s.dvar, s.drng = pairs[:width:width], pairs[width:]
		for k := 0; k < width; k++ {
			s.dvar[k] = slab[2*k*n : (2*k+1)*n : (2*k+1)*n]
			s.drng[k] = slab[(2*k+1)*n : (2*k+2)*n : (2*k+2)*n]
		}
	}
	var asc bool
	s.tidLo, s.tidHi, asc = tidBounds(s.tid)
	if n > 0 && (s.tidLo < sm.TidLo || s.tidHi > sm.TidHi) {
		return nil, corruptf("tuple ids [%d, %d] outside the footer's [%d, %d]", s.tidLo, s.tidHi, sm.TidLo, sm.TidHi)
	}
	if !asc {
		return nil, corruptf("tuple ids of a segment descend")
	}
	for ci, k := range kinds {
		bm, err := c.bytes((n + 7) / 8)
		if err != nil {
			return nil, err
		}
		nulls := nullMarks(bm, n, owned)
		switch k {
		case byte(engine.KindNull):
			// All-null column: no payload beyond the bitmap.
			all := take(&nullBufs, n, owned)
			for i := range all {
				all[i] = true
			}
			s.cols[ci] = engine.ColVec{Nulls: all}
		case byte(engine.KindInt), byte(engine.KindBool):
			xs := take(&intBufs, n, owned)
			if err := varints(c, xs); err != nil {
				return nil, err
			}
			if k == byte(engine.KindBool) {
				s.cols[ci] = engine.BoolVec(xs, nulls)
			} else {
				s.cols[ci] = engine.IntVec(xs, nulls)
			}
		case byte(engine.KindFloat):
			xs := take(&floatBufs, n, owned)
			if err := c.floats(xs); err != nil {
				return nil, err
			}
			s.cols[ci] = engine.FloatVec(xs, nulls)
		case byte(engine.KindString):
			xs := take(&strBufs, n, owned)
			if err := c.strings(xs); err != nil {
				return nil, err
			}
			s.cols[ci] = engine.StrVec(xs, nulls)
		case kindMixed:
			vals := make([]engine.Value, n)
			for i := 0; i < n; i++ {
				v, err := c.value()
				if err != nil {
					return nil, err
				}
				if nulls == nil || !nulls[i] {
					vals[i] = v
				}
			}
			s.cols[ci] = engine.GenericVec(vals)
		default:
			return nil, corruptf("unknown column kind %d", k)
		}
	}
	if c.pos != len(data) {
		return nil, corruptf("%d trailing bytes in segment", len(data)-c.pos)
	}
	return s, nil
}

// nullMarks returns the null markers of a bitmap over n rows, taken as
// decodeSegment takes its vectors, or nil when no row is null.
func nullMarks(bm []byte, n int, owned *recycler) []bool {
	var nulls []bool
	for j, x := range bm {
		if x == 0 {
			continue
		}
		for i := 8 * j; i < min(8*j+8, n); i++ {
			if x&(1<<(i%8)) != 0 {
				if nulls == nil {
					nulls = take(&nullBufs, n, owned)
					clear(nulls)
				}
				nulls[i] = true
			}
		}
	}
	return nulls
}

// strings decodes len(xs) length-prefixed strings into xs as slices of
// one string holding all of them: the first pass checks the lengths and
// finds the end, the second cuts the cells.
func (c *cursor) strings(xs []string) error {
	start := c.pos
	for range xs {
		ln, err := c.countOf(1)
		if err != nil {
			return err
		}
		c.pos += ln
	}
	text := string(c.b[start:c.pos])
	p := 0
	for i := range xs {
		ln, w := binary.Uvarint(c.b[start+p:])
		p += w
		xs[i] = text[p : p+int(ln)]
		p += int(ln)
	}
	return nil
}

// tidBounds returns the least and greatest of tids (lo > hi when empty)
// and whether they ascend (never descend). A tid below the greatest seen
// so far is a descent, so the one pass that finds the bounds finds that.
func tidBounds(tids []int64) (lo, hi int64, asc bool) {
	lo, hi, asc = math.MaxInt64, math.MinInt64, true
	for _, t := range tids {
		if t < hi {
			asc = false
		}
		lo, hi = min(lo, t), max(hi, t)
	}
	return lo, hi, asc
}

// appendFooter encodes the file footer (v2).
func appendFooter(b []byte, m *fileMeta) []byte {
	b = appendUint(b, uint64(m.Width))
	b = appendUint(b, uint64(len(m.Kinds)))
	b = append(b, m.Kinds...)
	b = appendUint(b, uint64(len(m.Segs)))
	for _, s := range m.Segs {
		b = appendUint(b, uint64(s.Off))
		b = appendUint(b, uint64(s.Len))
		b = appendFixed32(b, s.CRC)
		b = appendUint(b, uint64(s.Rows))
		b = appendInt(b, s.TidLo)
		b = appendUint(b, uint64(s.TidHi)-uint64(s.TidLo))
		for _, cs := range s.Stats {
			b = appendUint(b, uint64(cs.NonNull))
			if cs.NonNull > 0 {
				b = appendValue(b, cs.Min)
				b = appendValue(b, cs.Max)
			}
		}
	}
	return b
}

// appendTail appends the v2 tail of a file whose footer, starting at
// offset off, is footer.
func appendTail(b, footer []byte, off int64) []byte {
	b = appendFixed32(b, crc32.ChecksumIEEE(footer))
	b = appendFixed64(b, uint64(off))
	return append(b, tailMagic...)
}

// decodeFooter decodes the footer region of a file and sanity-checks
// segment bounds against the payload region [payloadStart, payloadEnd),
// and each segment's tid bounds against the one before it: the segments
// of a file follow one another in tid order, a tuple's alternatives at
// most straddling two.
func decodeFooter(data []byte, payloadStart, payloadEnd int64) (*fileMeta, error) {
	c := &cursor{b: data}
	m := &fileMeta{}
	w, err := c.count(1 << 20)
	if err != nil {
		return nil, err
	}
	m.Width = w
	na, err := c.count(1 << 20)
	if err != nil {
		return nil, err
	}
	kb, err := c.bytes(na)
	if err != nil {
		return nil, err
	}
	m.Kinds = append([]byte(nil), kb...)
	// A segment entry takes at least seven bytes, offset, length, the
	// checksum and the row count, and one more per attribute.
	ns, err := c.countOf(7 + na)
	if err != nil {
		return nil, err
	}
	m.Segs = make([]segMeta, 0, ns)
	stats := make([]colStats, ns*na)
	for i := 0; i < ns; i++ {
		var s segMeta
		off, err := c.count(math.MaxInt64)
		if err != nil {
			return nil, err
		}
		s.Off = int64(off)
		if s.Len, err = c.count(1 << 31); err != nil {
			return nil, err
		}
		if s.CRC, err = c.fixed32(); err != nil {
			return nil, err
		}
		if s.Rows, err = c.count(1 << 31); err != nil {
			return nil, err
		}
		if s.Off < payloadStart || s.Off > payloadEnd-int64(s.Len) {
			return nil, corruptf("segment %d range [%d, %d) outside payload [%d, %d)",
				i, s.Off, s.Off+int64(s.Len), payloadStart, payloadEnd)
		}
		if s.TidLo, err = c.int(); err != nil {
			return nil, err
		}
		span, err := c.uint()
		if err != nil {
			return nil, err
		}
		if span > uint64(math.MaxInt64)-uint64(s.TidLo) {
			return nil, corruptf("segment %d tid bounds overflow (%d + %d)", i, s.TidLo, span)
		}
		s.TidHi = s.TidLo + int64(span)
		if i > 0 && s.TidLo < m.Segs[i-1].TidHi {
			return nil, corruptf("segment %d starts at tid %d, before segment %d ends (%d)", i, s.TidLo, i-1, m.Segs[i-1].TidHi)
		}
		s.Stats = stats[i*na : (i+1)*na : (i+1)*na]
		for ci := range s.Stats {
			nn, err := c.count(1 << 31)
			if err != nil {
				return nil, err
			}
			s.Stats[ci].NonNull = nn
			if nn > 0 {
				if s.Stats[ci].Min, err = c.value(); err != nil {
					return nil, err
				}
				if s.Stats[ci].Max, err = c.value(); err != nil {
					return nil, err
				}
			}
		}
		m.Rows += s.Rows
		m.Segs = append(m.Segs, s)
	}
	if c.pos != len(data) {
		return nil, corruptf("%d trailing bytes in footer", len(data)-c.pos)
	}
	return m, nil
}
