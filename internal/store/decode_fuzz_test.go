package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"urel/internal/engine"
	"urel/internal/ws"
)

// Differential fuzz targets of the cold-read decoders: each runs the
// decoder and a reference — the decoder as it was before it became one
// typed pass, kept here over refCursor, a copy of the cursor as it was
// then, so that no fault of the one cursor every store decoder reads
// through hides in the reference — on the same bytes, with the checksum
// re-sealed so that mutations reach the decoder. Both must decode the
// same thing or both refuse, and neither may panic. FuzzDecodeFooter,
// whose decoder has no predecessor to compare with, checks a round trip
// instead. Run one with
//
//	go test -run=NONE -fuzz=FuzzDecodeSegment -fuzztime=10s -fuzzminimizetime=1s ./internal/store

// savedSeeds saves TPC-H s 0.02 into a fresh directory and returns its
// world table file and every segment of every partition, as seeds.
func savedSeeds(f *testing.F) (worlds []byte, segs []segSeed) {
	dir, _ := savedTPCH(f, 0.02)
	worlds, err := os.ReadFile(filepath.Join(dir, WorldsName))
	if err != nil {
		f.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, mr := range m.Relations {
		for _, mp := range mr.Parts {
			segs = append(segs, fileSegments(f, filepath.Join(dir, mp.File))...)
		}
	}
	return worlds, segs
}

// segSeed is one segment payload with the footer facts it decodes by.
type segSeed struct {
	payload     []byte
	rows, width int
	kinds       []byte
}

func fileSegments(f *testing.F, path string) []segSeed {
	h, err := OpenPart(path)
	if err != nil {
		f.Fatal(err)
	}
	defer h.Close()
	var out []segSeed
	for _, sm := range h.meta.Segs {
		data := make([]byte, sm.Len)
		if _, err := h.src.ReadAt(data, sm.Off); err != nil {
			f.Fatal(err)
		}
		out = append(out, segSeed{data, sm.Rows, h.meta.Width, h.meta.Kinds})
	}
	return out
}

func FuzzDecodeSegment(f *testing.F) {
	_, segs := savedSeeds(f)
	segs = append(segs, fileSegments(f, writeTemp(f, mixedRows(200), 5, 64))...)
	for _, s := range segs {
		f.Add(s.payload, uint16(s.rows), uint8(s.width), s.kinds)
	}
	f.Fuzz(func(t *testing.T, payload []byte, rows uint16, width uint8, kinds []byte) {
		// Sizes the reference can afford: it sizes its columns by the
		// footer before it reads a byte.
		n, w := int(rows)%4097, int(width)%9
		if len(kinds) > 8 {
			kinds = kinds[:8]
		}
		file := sealedSegmentFile(payload, n, w, kinds)
		h, err := NewPartHandle(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			t.Fatalf("sealed file refused: %v", err)
		}
		got, err := h.ReadSegment(0)
		want, refErr := refDecodeSegment(payload, n, w, kinds)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder: %v; reference: %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v is not ErrCorrupt", err)
			}
			return
		}
		if d := segmentDiff(got, want, w); d != "" {
			t.Fatal(d)
		}
	})
}

// footerSeed is a file's footer bytes and the offset it starts at, the
// end of its payload region.
type footerSeed struct {
	footer []byte
	off    int64
}

// fileFooter returns the footer of the partition file at path.
func fileFooter(f *testing.F, path string) footerSeed {
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	off := int64(binary.LittleEndian.Uint64(b[len(b)-tailLen+4:]))
	return footerSeed{b[off : len(b)-tailLen], off}
}

// FuzzDecodeFooter feeds decodeFooter footers directly — through a whole
// file the tail's checksum would refuse nearly every mutation first —
// seeded with the footers of a saved s 0.02 directory and the same
// footers with their segments listed in reverse, which a footer of more
// than one segment may not be. A footer is refused with ErrCorrupt or
// decodes to segments inside the payload region whose rows add up, with
// tid bounds lo <= hi that never go back from one segment to the next,
// and re-encodes to a footer that decodes to the same thing.
func FuzzDecodeFooter(f *testing.F) {
	dir, _ := savedTPCH(f, 0.02)
	m, err := ReadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, mr := range m.Relations {
		for _, mp := range mr.Parts {
			s := fileFooter(f, filepath.Join(dir, mp.File))
			f.Add(s.footer, uint32(s.off))
			meta, err := decodeFooter(s.footer, int64(len(fileMagic)), s.off)
			if err != nil {
				f.Fatal(err)
			}
			slices.Reverse(meta.Segs)
			f.Add(appendFooter(nil, meta), uint32(s.off))
		}
	}
	f.Fuzz(func(t *testing.T, footer []byte, payloadEnd uint32) {
		start, end := int64(len(fileMagic)), int64(payloadEnd)
		m, err := decodeFooter(footer, start, end)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v is not ErrCorrupt", err)
			}
			return
		}
		rows := 0
		for i, s := range m.Segs {
			if s.Off < start || s.Off+int64(s.Len) > end {
				t.Fatalf("segment %d at [%d, %d) outside the payload [%d, %d)", i, s.Off, s.Off+int64(s.Len), start, end)
			}
			if s.TidLo > s.TidHi || i > 0 && s.TidLo < m.Segs[i-1].TidHi {
				t.Fatalf("segment %d: tid bounds [%d, %d] after %+v", i, s.TidLo, s.TidHi, m.Segs[:i])
			}
			if len(s.Stats) != len(m.Kinds) {
				t.Fatalf("segment %d: %d column statistics for %d columns", i, len(s.Stats), len(m.Kinds))
			}
			rows += s.Rows
		}
		if rows != m.Rows {
			t.Fatalf("segments hold %d rows, the footer %d", rows, m.Rows)
		}
		m2, err := decodeFooter(appendFooter(nil, m), start, end)
		if err != nil {
			t.Fatalf("re-encoded footer refused: %v", err)
		}
		if d := metaDiff(m, m2); d != "" {
			t.Fatalf("re-encoded footer decodes differently: %s", d)
		}
	})
}

// metaDiff describes the first difference between two decoded footers,
// or returns "".
func metaDiff(a, b *fileMeta) string {
	if a.Width != b.Width || string(a.Kinds) != string(b.Kinds) || a.Rows != b.Rows || len(a.Segs) != len(b.Segs) {
		return fmt.Sprintf("shape: width %d kinds %v rows %d segs %d vs %d %v %d %d",
			a.Width, a.Kinds, a.Rows, len(a.Segs), b.Width, b.Kinds, b.Rows, len(b.Segs))
	}
	for i := range a.Segs {
		x, y := &a.Segs[i], &b.Segs[i]
		if x.Off != y.Off || x.Len != y.Len || x.CRC != y.CRC || x.Rows != y.Rows || x.TidLo != y.TidLo || x.TidHi != y.TidHi {
			return fmt.Sprintf("segment %d: %+v vs %+v", i, *x, *y)
		}
		for c := range x.Stats {
			p, q := x.Stats[c], y.Stats[c]
			if p.NonNull != q.NonNull || p.NonNull > 0 && (!sameValue(p.Min, q.Min) || !sameValue(p.Max, q.Max)) {
				return fmt.Sprintf("segment %d column %d: %+v vs %+v", i, c, p, q)
			}
		}
	}
	return ""
}

// segmentDiff describes the first difference between two decoded
// segments of width w, or returns "".
func segmentDiff(a, b *segment, w int) string {
	if a.n != b.n || len(a.tid) != len(b.tid) || len(a.cols) != len(b.cols) {
		return fmt.Sprintf("shape: %d rows %d tids %d cols vs %d %d %d", a.n, len(a.tid), len(a.cols), b.n, len(b.tid), len(b.cols))
	}
	if a.tidLo != b.tidLo || a.tidHi != b.tidHi {
		return fmt.Sprintf("tid bounds [%d, %d] vs [%d, %d]", a.tidLo, a.tidHi, b.tidLo, b.tidHi)
	}
	for r := 0; r < a.n; r++ {
		if a.tid[r] != b.tid[r] {
			return fmt.Sprintf("row %d: tid %d vs %d", r, a.tid[r], b.tid[r])
		}
		for k := 0; k < w; k++ {
			if a.dvar[k][r] != b.dvar[k][r] || a.drng[k][r] != b.drng[k][r] {
				return fmt.Sprintf("row %d: descriptor pair %d differs", r, k)
			}
		}
	}
	for ci := range a.cols {
		ca, cb := &a.cols[ci], &b.cols[ci]
		if ca.Kind != cb.Kind || (ca.Vals == nil) != (cb.Vals == nil) || ca.Len() != cb.Len() {
			return fmt.Sprintf("column %d: layout %v/%v/%d vs %v/%v/%d", ci, ca.Kind, ca.Vals == nil, ca.Len(), cb.Kind, cb.Vals == nil, cb.Len())
		}
		for r := 0; r < a.n; r++ {
			va, vb := ca.Value(r), cb.Value(r)
			if ca.IsNull(r) != cb.IsNull(r) || !sameValue(va, vb) {
				return fmt.Sprintf("column %d row %d: %v vs %v", ci, r, va, vb)
			}
		}
	}
	return ""
}

// sameValue is bit-for-bit equality of two values (NaN equals itself).
func sameValue(a, b engine.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

func FuzzDecodeWorldTable(f *testing.F) {
	worlds, _ := savedSeeds(f)
	f.Add(worlds)
	w := ws.NewWorldTable()
	w.MustNewVar("x", 1, 2)
	y := w.MustNewVar("", 3, 1, 2, 7)
	if err := w.SetProbs(y, []float64{0.1, 0.2, 0.3, 0.4}); err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeWorldTable(w))
	// Default names and 1..k domains, which decode as windows of one
	// slab, then a domain that is not 1..k, then a named variable with
	// a distribution.
	w = ws.NewWorldTable()
	w.MustNewVar("", 1, 2, 3)
	w.MustNewVar("", 1, 2)
	w.MustNewVar("", 1, 3, 2)
	z := w.MustNewVar("z", 1, 2)
	if err := w.SetProbs(z, []float64{0.25, 0.75}); err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeWorldTable(w))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(worldsMagic)+4 {
			body := data[: len(data)-4 : len(data)-4]
			data = appendFixed32(body, crc32.ChecksumIEEE(body))
		}
		got, err := DecodeWorldTable(data)
		next, stored, vars, refErr := refDecodeWorldTable(data)
		if refErr != nil {
			if err == nil {
				t.Fatalf("decoded a table the reference refused: %v", refErr)
			}
			return
		}
		// The one narrowing: ids are dense by construction, so a table
		// whose ids are not 1..n in order, or whose stored next id is not
		// n+1, is corrupt now.
		dense := stored == uint64(len(vars)+1)
		for i, v := range vars {
			dense = dense && v.x == ws.Var(i+1)
		}
		if !dense {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ids not 1..n: err = %v, want ErrCorrupt", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("refused a table the reference decoded: %v", err)
		}
		if got.NextID() != next {
			t.Fatalf("next id %d, reference %d", got.NextID(), next)
		}
		for _, v := range vars {
			if got.Name(v.x) != v.name {
				t.Fatalf("var %d: name %q, reference %q", v.x, got.Name(v.x), v.name)
			}
			dom, probs := got.Domain(v.x), got.Probs(v.x)
			if len(dom) != len(v.dom) || (probs == nil) != (v.probs == nil) {
				t.Fatalf("var %d: domain %v probs %v, reference %v %v", v.x, dom, probs, v.dom, v.probs)
			}
			for i := range dom {
				if dom[i] != v.dom[i] || (probs != nil && math.Float64bits(probs[i]) != math.Float64bits(v.probs[i])) {
					t.Fatalf("var %d: domain %v probs %v, reference %v %v", v.x, dom, probs, v.dom, v.probs)
				}
			}
		}
	})
}

// refDecodeSegment is the segment decoder as it was before the one-pass
// decoder: one cursor call per cell and one allocation per column; a
// segment whose tuple ids descend anywhere is refused.
func refDecodeSegment(data []byte, n, width int, kinds []byte) (*segment, error) {
	c := &refCursor{b: data}
	s := &segment{
		n:    n,
		dvar: make([][]int64, width),
		drng: make([][]int64, width),
		tid:  make([]int64, n),
		cols: make([]engine.ColVec, len(kinds)),
	}
	readInts := func() ([]int64, error) {
		out := make([]int64, n)
		for i := range out {
			v, err := c.int()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var err error
	for k := 0; k < width; k++ {
		if s.dvar[k], err = readInts(); err != nil {
			return nil, err
		}
		if s.drng[k], err = readInts(); err != nil {
			return nil, err
		}
	}
	if s.tid, err = readInts(); err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if s.tid[i] < s.tid[i-1] {
			return nil, corruptf("tuple id %d after %d", s.tid[i], s.tid[i-1])
		}
	}
	s.tidLo, s.tidHi, _ = tidBounds(s.tid)
	for ci, k := range kinds {
		bm, err := c.bytes((n + 7) / 8)
		if err != nil {
			return nil, err
		}
		nulls := make([]bool, n)
		anyNull := false
		for i := 0; i < n; i++ {
			if bm[i/8]&(1<<(i%8)) != 0 {
				nulls[i] = true
				anyNull = true
			}
		}
		if !anyNull {
			nulls = nil
		}
		switch k {
		case byte(engine.KindNull):
			all := make([]bool, n)
			for i := range all {
				all[i] = true
			}
			s.cols[ci] = engine.ColVec{Nulls: all}
		case byte(engine.KindInt), byte(engine.KindBool):
			xs := make([]int64, n)
			for i := 0; i < n; i++ {
				v, err := c.int()
				if err != nil {
					return nil, err
				}
				xs[i] = v
			}
			if k == byte(engine.KindBool) {
				s.cols[ci] = engine.BoolVec(xs, nulls)
			} else {
				s.cols[ci] = engine.IntVec(xs, nulls)
			}
		case byte(engine.KindFloat):
			xs := make([]float64, n)
			for i := 0; i < n; i++ {
				bits, err := c.fixed64()
				if err != nil {
					return nil, err
				}
				xs[i] = math.Float64frombits(bits)
			}
			s.cols[ci] = engine.FloatVec(xs, nulls)
		case byte(engine.KindString):
			xs := make([]string, n)
			for i := 0; i < n; i++ {
				ln, err := c.count(uint64(len(data)))
				if err != nil {
					return nil, err
				}
				sb, err := c.bytes(ln)
				if err != nil {
					return nil, err
				}
				xs[i] = string(sb)
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

// refVar is one variable as the reference world-table decoder gives it.
type refVar struct {
	x     ws.Var
	name  string
	dom   []ws.Val
	probs []float64
}

// refDecodeWorldTable is the world-table decoder as it was before the
// table kept its variables in slices: every definition decoded, then
// checked as the importer checked it (positive, distinct ids, non-empty
// domains without duplicates, distributions summing to one), with the
// next id the largest of the stored one and one past the largest id.
// It returns that next id, the stored one, and the variables in file
// order with names defaulted to c<id>.
func refDecodeWorldTable(b []byte) (ws.Var, uint64, []refVar, error) {
	if len(b) < len(worldsMagic)+4 {
		return 0, 0, nil, corruptf("world table file too small")
	}
	if string(b[:len(worldsMagic)]) != worldsMagic {
		return 0, 0, nil, corruptf("bad world table magic")
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	tc := &refCursor{b: tail}
	want, _ := tc.fixed32()
	if crc := crc32.ChecksumIEEE(body); crc != want {
		return 0, 0, nil, corruptf("world table checksum mismatch")
	}
	c := &refCursor{b: body, pos: len(worldsMagic)}
	next, err := c.uint()
	if err != nil {
		return 0, 0, nil, err
	}
	n, err := c.count(uint64(len(body)))
	if err != nil {
		return 0, 0, nil, err
	}
	vars := make([]refVar, 0, n)
	for i := 0; i < n; i++ {
		var d refVar
		x, err := c.int()
		if err != nil {
			return 0, 0, nil, err
		}
		d.x = ws.Var(x)
		nl, err := c.count(uint64(len(body)))
		if err != nil {
			return 0, 0, nil, err
		}
		name, err := c.bytes(nl)
		if err != nil {
			return 0, 0, nil, err
		}
		d.name = string(name)
		nd, err := c.count(uint64(len(body)))
		if err != nil {
			return 0, 0, nil, err
		}
		d.dom = make([]ws.Val, nd)
		for j := range d.dom {
			v, err := c.int()
			if err != nil {
				return 0, 0, nil, err
			}
			d.dom[j] = ws.Val(v)
		}
		hasProbs, err := c.byte()
		if err != nil {
			return 0, 0, nil, err
		}
		if hasProbs != 0 {
			d.probs = make([]float64, nd)
			for j := range d.probs {
				bits, err := c.fixed64()
				if err != nil {
					return 0, 0, nil, err
				}
				d.probs[j] = math.Float64frombits(bits)
			}
		}
		vars = append(vars, d)
	}
	if c.pos != len(body) {
		return 0, 0, nil, corruptf("%d trailing bytes in world table", len(body)-c.pos)
	}
	top := ws.Var(1)
	ids := map[ws.Var]bool{}
	for i := range vars {
		d := &vars[i]
		if d.x <= ws.TrivialVar || ids[d.x] || len(d.dom) == 0 {
			return 0, 0, nil, corruptf("import: bad id %d or empty domain", d.x)
		}
		ids[d.x] = true
		seen := map[ws.Val]bool{}
		for _, v := range d.dom {
			if seen[v] {
				return 0, 0, nil, corruptf("import: duplicate domain value %d", v)
			}
			seen[v] = true
		}
		if d.name == "" {
			d.name = fmt.Sprintf("c%d", d.x)
		}
		if d.x >= top {
			top = d.x + 1
		}
		if d.probs != nil {
			sum := 0.0
			for _, q := range d.probs {
				if q < 0 {
					return 0, 0, nil, corruptf("import: negative probability")
				}
				sum += q
			}
			if math.Abs(sum-1) > 1e-9 {
				return 0, 0, nil, corruptf("import: probabilities sum to %g", sum)
			}
		}
	}
	if ws.Var(next) > top {
		top = ws.Var(next)
	}
	return top, next, vars, nil
}

// refCursor is the store's cursor as it was before every store decoder
// read through it: no one-byte fast paths. The references above and
// refUnmarshal read through it.
type refCursor struct {
	b   []byte
	pos int
}

func (c *refCursor) int() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad varint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *refCursor) uint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, corruptf("bad uvarint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

// count decodes a uvarint bounded by max (guarding allocations against
// corrupt length fields).
func (c *refCursor) count(max uint64) (int, error) {
	v, err := c.uint()
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, corruptf("count %d exceeds bound %d", v, max)
	}
	return int(v), nil
}

func (c *refCursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, corruptf("truncated at offset %d", c.pos)
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *refCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, corruptf("truncated at offset %d (need %d bytes)", c.pos, n)
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v, nil
}

func (c *refCursor) fixed32() (uint32, error) {
	v, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(v), nil
}

func (c *refCursor) fixed64() (uint64, error) {
	v, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(v), nil
}

func (c *refCursor) value() (engine.Value, error) {
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
		n, err := c.count(uint64(len(c.b)))
		if err != nil {
			return engine.Null(), err
		}
		s, err := c.bytes(n)
		if err != nil {
			return engine.Null(), err
		}
		return engine.Str(string(s)), nil
	default:
		return engine.Null(), corruptf("unknown value kind %d", k)
	}
}
