package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/tpch"
	"urel/internal/ws"
)

// mixedRows builds a partition exercising every value kind, nulls, a
// mixed-kind column, and descriptors of varying width.
func mixedRows(n int) []core.URow {
	rows := make([]core.URow, 0, n)
	for i := 0; i < n; i++ {
		var d ws.Descriptor
		switch i % 3 {
		case 1:
			d = ws.MustDescriptor(ws.A(ws.Var(1+i%5), ws.Val(1+i%2)))
		case 2:
			d = ws.MustDescriptor(ws.A(ws.Var(1+i%5), ws.Val(1)), ws.A(ws.Var(10+i%3), ws.Val(2)))
		}
		vals := []engine.Value{
			engine.Int(int64(i * 3)),
			engine.Float(float64(i) / 7),
			engine.Str(string(rune('a'+i%26)) + "xyz"),
			engine.Bool(i%2 == 0),
			engine.Null(),
		}
		if i%4 == 0 {
			vals[0] = engine.Null() // nulls inside an int column
		}
		if i%5 == 0 {
			vals[2] = engine.Int(int64(i)) // mixed string/int column
		}
		rows = append(rows, core.URow{D: d, TID: int64(i), Vals: vals})
	}
	return rows
}

func writeTemp(t testing.TB, rows []core.URow, nattrs, segRows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "part.useg")
	if _, err := WritePartition(path, rows, nattrs, segRows); err != nil {
		t.Fatalf("WritePartition: %v", err)
	}
	return path
}

func urowsEqual(a, b core.URow) bool {
	if a.TID != b.TID || len(a.D) != len(b.D) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.D {
		if a.D[i] != b.D[i] {
			return false
		}
	}
	for i := range a.Vals {
		if !engine.Equal(a.Vals[i], b.Vals[i]) {
			return false
		}
		if a.Vals[i].IsNull() != b.Vals[i].IsNull() {
			return false
		}
	}
	return true
}

func TestPartitionRoundTrip(t *testing.T) {
	rows := mixedRows(1000)
	path := writeTemp(t, rows, 5, 64)
	h, err := OpenPart(path)
	if err != nil {
		t.Fatalf("OpenPart: %v", err)
	}
	defer h.Close()
	if h.NumRows() != len(rows) {
		t.Fatalf("NumRows = %d, want %d", h.NumRows(), len(rows))
	}
	if want := (len(rows) + 63) / 64; h.NumSegments() != want {
		t.Fatalf("NumSegments = %d, want %d", h.NumSegments(), want)
	}
	if h.Width() != 2 {
		t.Fatalf("Width = %d, want 2", h.Width())
	}
	got, err := (&PartSource{Layers: []*PartHandle{h}}).Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got) != len(rows) {
		t.Fatalf("loaded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !urowsEqual(rows[i], got[i]) {
			t.Fatalf("row %d: got %v/%d/%v, want %v/%d/%v",
				i, got[i].D, got[i].TID, got[i].Vals, rows[i].D, rows[i].TID, rows[i].Vals)
		}
	}
}

func TestEmptyPartitionRoundTrip(t *testing.T) {
	path := writeTemp(t, nil, 2, 0)
	h, err := OpenPart(path)
	if err != nil {
		t.Fatalf("OpenPart: %v", err)
	}
	defer h.Close()
	if h.NumRows() != 0 || h.NumSegments() != 0 || h.Width() != 0 {
		t.Fatalf("empty partition: rows=%d segs=%d width=%d", h.NumRows(), h.NumSegments(), h.Width())
	}
	got, err := (&PartSource{Layers: []*PartHandle{h}}).Load()
	if err != nil || len(got) != 0 {
		t.Fatalf("Load = %v, %v", got, err)
	}
}

func TestCorruptSegmentPayload(t *testing.T) {
	rows := mixedRows(200)
	path := writeTemp(t, rows, 5, 50)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h0, err := OpenPart(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the second segment's payload.
	m := h0.meta.Segs[1]
	h0.Close()
	buf[m.Off+int64(m.Len)/2] ^= 0x5A
	bad := filepath.Join(t.TempDir(), "bad.useg")
	if err := os.WriteFile(bad, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := OpenPart(bad)
	if err != nil {
		t.Fatalf("OpenPart after payload corruption should succeed (footer intact): %v", err)
	}
	defer h.Close()
	if _, err := h.ReadSegment(0); err != nil {
		t.Fatalf("untouched segment should read cleanly: %v", err)
	}
	if _, err := h.ReadSegment(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted segment: err = %v, want ErrCorrupt", err)
	}
	if _, err := (&PartSource{Layers: []*PartHandle{h}}).Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load over corrupted segment: err = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	rows := mixedRows(200)
	path := writeTemp(t, rows, 5, 50)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(buf) / 2, len(buf) - 3, len(buf) - tailLen - 1} {
		trunc := filepath.Join(t.TempDir(), "trunc.useg")
		if err := os.WriteFile(trunc, buf[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenPart(trunc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestBadMagicAndFooterOffset(t *testing.T) {
	rows := mixedRows(50)
	path := writeTemp(t, rows, 5, 0)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	badMagic := append([]byte(nil), buf...)
	badMagic[0] = 'X'
	p1 := filepath.Join(dir, "magic.useg")
	os.WriteFile(p1, badMagic, 0o644)
	if _, err := OpenPart(p1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}

	badOff := append([]byte(nil), buf...)
	// Overwrite the tail's footer offset, the eight bytes before its
	// magic, with an out-of-range value.
	copy(badOff[len(badOff)-tailLen+4:], appendFixed64(nil, uint64(len(badOff)*2)))
	p2 := filepath.Join(dir, "off.useg")
	os.WriteFile(p2, badOff, 0o644)
	if _, err := OpenPart(p2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad footer offset: err = %v, want ErrCorrupt", err)
	}

	garbageFooter := append([]byte(nil), buf...)
	for i := len(fileMagic); i < len(fileMagic)+8 && i < len(garbageFooter)-tailLen; i++ {
		garbageFooter[i] ^= 0xFF
	}
	// Point the footer offset at the (now garbage) payload start.
	copy(garbageFooter[len(garbageFooter)-tailLen+4:], appendFixed64(nil, uint64(len(fileMagic))))
	p3 := filepath.Join(dir, "footer.useg")
	os.WriteFile(p3, garbageFooter, 0o644)
	if _, err := OpenPart(p3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage footer: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodedWorldTableKeepsItsDomains: a decode hands every domain
// that is exactly 1..k a window of one slab. After Clone and NewVar on
// the decoded table and on its clone, each keeps its own domains, and
// an append to a returned domain never writes a neighbour's. A name
// stored as its default c<id> reads back as c<id>, and the trivial
// variable's as ⊤.
func TestDecodedWorldTableKeepsItsDomains(t *testing.T) {
	w := ws.NewWorldTable()
	a := w.MustNewVar("", 1, 2, 3)
	b := w.MustNewVar("c2", 1, 2)
	c := w.MustNewVar("", 1, 2, 3, 4)
	got, err := DecodeWorldTable(EncodeWorldTable(w))
	if err != nil {
		t.Fatal(err)
	}
	clone := got.Clone()
	x, y := got.MustNewVar("", 7, 8), clone.MustNewVar("", 9)
	if x != y || !slices.Equal(got.Domain(x), []ws.Val{7, 8}) || !slices.Equal(clone.Domain(y), []ws.Val{9}) {
		t.Fatalf("after NewVar on both: %v and %v", got.Domain(x), clone.Domain(y))
	}
	_ = append(got.Domain(a), 99)
	_ = append(clone.Domain(b), 98)
	for _, tab := range []*ws.WorldTable{got, clone} {
		if !slices.Equal(tab.Domain(a), []ws.Val{1, 2, 3}) || !slices.Equal(tab.Domain(b), []ws.Val{1, 2}) ||
			!slices.Equal(tab.Domain(c), []ws.Val{1, 2, 3, 4}) {
			t.Fatalf("an append to a domain wrote a neighbour's: %v %v %v", tab.Domain(a), tab.Domain(b), tab.Domain(c))
		}
	}
	if got.Name(ws.TrivialVar) != "⊤" || got.Name(a) != "c1" || got.Name(b) != "c2" {
		t.Fatalf("names %q %q %q", got.Name(ws.TrivialVar), got.Name(a), got.Name(b))
	}
}

// TestWorldTableDecodesInConstantAllocations decodes the world tables
// of the stored workloads' data (s 0.25, z 0.25, seed 1) at x 0.01 and
// x 0.1, 1 091 and 11 206 variables of unnamed 1..k domains: each takes
// the same handful of allocations, however many variables it holds.
func TestWorldTableDecodesInConstantAllocations(t *testing.T) {
	for _, x := range []float64{0.01, 0.1} {
		p := tpch.DefaultParams(0.25, x, 0.25)
		p.Seed = 1
		db, _, err := tpch.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b := EncodeWorldTable(db.W)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := DecodeWorldTable(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("x %g: %d variables in %.0f allocations", x, db.W.NextID()-1, allocs)
		if allocs > 16 {
			t.Errorf("x %g: %d variables take %.0f allocations, want at most 16", x, db.W.NextID()-1, allocs)
		}
	}
}

func TestWorldTableRoundTrip(t *testing.T) {
	w := ws.NewWorldTable()
	x := w.MustNewVar("x", 1, 2)
	y := w.MustNewVar("y", 1, 2, 3, 7)
	if err := w.SetProbs(y, []float64{0.1, 0.2, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "worlds.bin")
	if err := writeFile(path, EncodeWorldTable(w)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorldTable(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if got.NextID() != w.NextID() {
		t.Fatalf("NextID = %d, want %d", got.NextID(), w.NextID())
	}
	if len(got.NontrivialVars()) != 2 {
		t.Fatalf("want 2 vars, got %v", got.NontrivialVars())
	}
	if got.Name(x) != "x" || got.Name(y) != "y" {
		t.Fatalf("names lost: %q %q", got.Name(x), got.Name(y))
	}
	if got.DomainSize(y) != 4 || got.Prob(y, 7) != 0.4 {
		t.Fatalf("domain/probs lost: size=%d p=%g", got.DomainSize(y), got.Prob(y, 7))
	}
	if got.Prob(x, 1) != 0.5 {
		t.Fatalf("uniform prob lost: %g", got.Prob(x, 1))
	}
	// Corruption: flip a payload byte.
	buf, _ := os.ReadFile(path)
	buf[len(worldsMagic)+2] ^= 0x10
	bad := filepath.Join(t.TempDir(), "bad.bin")
	os.WriteFile(bad, buf, 0o644)
	if _, err := readFile(bad, DecodeWorldTable); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt world table: err = %v, want ErrCorrupt", err)
	}
}

// sealedSegmentFile lays payload out as a one-segment partition file
// whose footer claims rows rows of the given width and column kinds,
// any tuple id, and the payload's true checksum, so the decoder is what
// judges it.
func sealedSegmentFile(payload []byte, rows, width int, kinds []byte) []byte {
	b := append([]byte(fileMagic), payload...)
	m := &fileMeta{Width: width, Kinds: kinds, Segs: []segMeta{{
		Off: int64(len(fileMagic)), Len: len(payload), CRC: crc32.ChecksumIEEE(payload),
		Rows: rows, TidLo: math.MinInt64, TidHi: math.MaxInt64, Stats: make([]colStats, len(kinds)),
	}}}
	footerOff := len(b)
	b = appendFooter(b, m)
	return appendTail(b, b[footerOff:], int64(footerOff))
}

// TestSegmentHugeRowCountIsCorrupt: a footer that claims 2³¹ rows for a
// segment payload of a few bytes must be refused before the decoder
// sizes its columns by it.
func TestSegmentHugeRowCountIsCorrupt(t *testing.T) {
	rows := mixedRows(3)
	payload, _ := encodeSegment(nil, rowSeq{rows: rows}, 2, deriveKinds(rows, 5))
	file := sealedSegmentFile(payload, 1<<31, 2, deriveKinds(rows, 5))
	h, err := NewPartHandle(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatalf("footer should decode: %v", err)
	}
	if _, err := h.ReadSegment(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestWorldTableIdsMustBeDense: ids are 1..n in order with next id n+1
// by construction, so a table that says otherwise is corrupt.
func TestWorldTableIdsMustBeDense(t *testing.T) {
	w := ws.NewWorldTable()
	w.MustNewVar("x", 1, 2)
	w.MustNewVar("y", 1, 2, 3)
	good := EncodeWorldTable(w)
	if _, err := DecodeWorldTable(good); err != nil {
		t.Fatal(err)
	}
	reseal := func(body []byte) []byte { return appendFixed32(body, crc32.ChecksumIEEE(body)) }
	body := good[:len(good)-4]
	at := len(worldsMagic) // next id, then the count, then x's id
	for name, b := range map[string][]byte{
		"next id":   reseal(append(append(append([]byte(nil), body[:at]...), 7), body[at+1:]...)),
		"first id":  reseal(append(append(append([]byte(nil), body[:at+2]...), byte(4)), body[at+3:]...)), // zigzag 2
		"count":     reseal(append(append(append([]byte(nil), body[:at+1]...), 100), body[at+2:]...)),
		"truncated": reseal(append([]byte(nil), body[:len(body)-3]...)),
	} {
		if _, err := DecodeWorldTable(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestPartitionIsWrittenInTIDOrder: rows handed to WritePartition out of
// tuple-id order — alternatives appended after every tuple, reinserts in
// the order an UPDATE leaves them — are stored in stable tid order, each
// segment's footer bounds are its least and greatest tid, and the run
// WritePartIndexes builds from the same rows locates them in the file.
func TestPartitionIsWrittenInTIDOrder(t *testing.T) {
	rows := mixedRows(300)
	for i := 0; i < 300; i += 7 { // a second alternative of every seventh tuple, appended last
		alt := rows[i]
		alt.Vals = append([]engine.Value{engine.Int(int64(-i))}, alt.Vals[1:]...)
		rows = append(rows, alt)
	}
	rand.New(rand.NewSource(1)).Shuffle(100, func(i, j int) { rows[100+i], rows[100+j] = rows[100+j], rows[100+i] })
	want := append([]core.URow(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].TID < want[j].TID })

	dir := t.TempDir()
	h := func() *PartHandle {
		if _, err := WritePartition(filepath.Join(dir, "p.useg"), rows, 5, 64); err != nil {
			t.Fatal(err)
		}
		if err := WritePartIndexes(dir, "p.useg", rows, []int{0}, 64); err != nil {
			t.Fatal(err)
		}
		h, err := OpenPart(filepath.Join(dir, "p.useg"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		return h
	}()
	got, err := (&PartSource{Layers: []*PartHandle{h}}).Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !urowsEqual(got[i], want[i]) {
			t.Fatalf("row %d: got tid %d %v, want tid %d %v", i, got[i].TID, got[i].Vals, want[i].TID, want[i].Vals)
		}
	}
	for i, sm := range h.meta.Segs {
		seg, err := h.ReadSegment(i)
		if err != nil {
			t.Fatal(err)
		}
		if sm.TidLo != seg.tidLo || sm.TidHi != seg.tidHi {
			t.Fatalf("segment %d: footer bounds [%d, %d], tids [%d, %d]", i, sm.TidLo, sm.TidHi, seg.tidLo, seg.tidHi)
		}
	}
	src := &PartSource{Layers: []*PartHandle{h}, IdxCols: []int{0}}
	for _, r := range want[:40] {
		if r.Vals[0].IsNull() {
			continue
		}
		if _, it := probeScan(t, src, 2, "r.a", r.Vals[0]); it.Probe == nil || it.StaleRuns != 0 || it.FallbackLayers != 0 {
			t.Fatalf("probe of r.a = %v fell back to a scan: the run does not follow the file", r.Vals[0])
		}
	}
}

// TestFooterChecksum: the tail's checksum covers every byte of the
// footer, which decides what a narrowed scan reads: flipping any one of
// them fails the open with ErrCorrupt.
func TestFooterChecksum(t *testing.T) {
	buf, err := os.ReadFile(writeTemp(t, mixedRows(300), 5, 64))
	if err != nil {
		t.Fatal(err)
	}
	footerOff := int(binary.LittleEndian.Uint64(buf[len(buf)-tailLen+4:]))
	for i := footerOff; i < len(buf)-tailLen; i++ {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x01
		if _, err := NewPartHandle(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at footer byte %d: err = %v, want ErrCorrupt", i-footerOff, err)
		}
	}
}

// TestSegmentTidsOutsideFooterBoundsAreCorrupt: a segment whose tuple
// ids fall outside its footer's bounds is refused, not decoded, since a
// scan that trusted the bounds would skip rows it has to read.
func TestSegmentTidsOutsideFooterBoundsAreCorrupt(t *testing.T) {
	rows := mixedRows(50) // tids 0..49
	kinds := deriveKinds(rows, 5)
	payload, sm := encodeSegment(nil, rowSeq{rows: rows}, 2, kinds)
	if sm.TidLo != 0 || sm.TidHi != 49 {
		t.Fatalf("bounds [%d, %d], want [0, 49]", sm.TidLo, sm.TidHi)
	}
	if _, err := decodeSegment(payload, &sm, 2, kinds, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][2]int64{{1, 49}, {0, 48}, {20, 30}} {
		narrow := sm
		narrow.TidLo, narrow.TidHi = b[0], b[1]
		if _, err := decodeSegment(payload, &narrow, 2, kinds, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bounds %v: err = %v, want ErrCorrupt", b, err)
		}
	}
	// The same through a whole file, checksums intact.
	file := append([]byte(fileMagic), payload...)
	narrow := sm
	narrow.Off, narrow.Len, narrow.CRC, narrow.TidLo = int64(len(fileMagic)), len(payload), crc32.ChecksumIEEE(payload), 5
	footerOff := len(file)
	file = appendFooter(file, &fileMeta{Width: 2, Kinds: kinds, Segs: []segMeta{narrow}, Rows: 50})
	file = appendTail(file, file[footerOff:], int64(footerOff))
	h, err := NewPartHandle(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadSegment(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestTidOrderIsEnforced: readers rely on rows in tid order, so a file
// that breaks it fails with ErrCorrupt instead of being reordered: a
// segment whose tuple ids descend anywhere, and a footer whose segments'
// tid bounds overlap or go backwards. A tuple whose alternatives
// straddle two segments — the least tid of one the greatest of the one
// before — opens and reads.
func TestTidOrderIsEnforced(t *testing.T) {
	rows := mixedRows(20) // tids 0..19
	kinds := deriveKinds(rows, 5)
	open := func(segs ...[]core.URow) (*PartHandle, error) {
		b := []byte(fileMagic)
		m := &fileMeta{Width: 2, Kinds: kinds}
		for _, rs := range segs {
			off := len(b)
			var sm segMeta
			b, sm = encodeSegment(b, rowSeq{rows: rs}, 2, kinds)
			sm.Off, sm.Len, sm.CRC = int64(off), len(b)-off, crc32.ChecksumIEEE(b[off:])
			m.Segs = append(m.Segs, sm)
			m.Rows += sm.Rows
		}
		footerOff := len(b)
		b = appendFooter(b, m)
		b = appendTail(b, b[footerOff:], int64(footerOff))
		return NewPartHandle(bytes.NewReader(b), int64(len(b)))
	}
	swapped := slices.Clone(rows)
	swapped[7], swapped[8] = swapped[8], swapped[7]
	h, err := open(swapped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadSegment(0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a segment whose tuple ids descend: err = %v, want ErrCorrupt", err)
	}
	for name, segs := range map[string][][]core.URow{
		"overlapping": {rows[:10], rows[5:15]},
		"backwards":   {rows[10:], rows[:10]},
	} {
		if _, err := open(segs...); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s segment bounds: err = %v, want ErrCorrupt", name, err)
		}
	}
	h, err = open(rows[:10], rows[9:])
	if err != nil {
		t.Fatalf("a tuple straddling two segments: %v", err)
	}
	if got, err := (&PartSource{Layers: []*PartHandle{h}}).Load(); err != nil || len(got) != 21 {
		t.Fatalf("a tuple straddling two segments: %d rows, %v", len(got), err)
	}
}

// TestDecodedSegmentOutlivesItsBuffer: an uncached read returns its
// payload buffer to a pool once the segment is decoded, so a decoded
// segment must keep nothing of it: overwriting the buffer after the
// decode leaves the segment as it was.
func TestDecodedSegmentOutlivesItsBuffer(t *testing.T) {
	h, err := OpenPart(writeTemp(t, mixedRows(300), 5, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < h.NumSegments(); i++ {
		buf := make([]byte, h.meta.Segs[i].Len)
		got, err := h.readSegmentInto(i, buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = 0xA5
		}
		want, err := h.readSegment(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := segmentDiff(got, want, h.Width()); d != "" {
			t.Fatalf("segment %d changed with its buffer: %s", i, d)
		}
	}
}
