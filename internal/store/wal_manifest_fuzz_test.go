package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// Fuzz targets of the two decoders that carry the existence-complete
// bit: the WAL record, whose clear op clears it, and the manifest, whose
// relations hold it. On arbitrary bytes each returns a
// value or an error, never a panic, and allocates only for what the
// input holds; what decodes re-encodes to a form that decodes to itself.
// The WAL record's decoder must also agree with a reference, the decoder
// as it was before it read through the store's cursor, kept below over
// a cursor of its own: the same ops, or both refuse. Run one with
//
//	go test -run=NONE -fuzz='^FuzzDecodeWALRecord$' -fuzztime=10s -fuzzminimizetime=1s ./internal/store

// servedRWRecords are WAL records of the served_rw workload's shape on
// partsupp's four partitions — an INSERT of certain rows into every
// partition, an UPDATE's tombstones and reinserts on the cost column, a
// DELETE's tombstones on all four, the tombstones a flush restates —
// and a DELETE of alternatives with the clear op its record carries.
func servedRWRecords() [][]byte {
	const rows = 64
	var insert, del []WALOp
	for part := 0; part < 4; part++ {
		ins := WALOp{Rel: "partsupp", Part: part}
		tombs := WALOp{Rel: "partsupp", Part: part, Gen: 2}
		for r := int64(0); r < rows; r++ {
			key := 10_000_000 + r
			vals := []engine.Value{engine.Int(key), engine.Int(1 + r%7), engine.Int(1 + r), engine.Float(float64(1000+r) + 0.5)}
			ins.Rows = append(ins.Rows, core.URow{TID: 80_000 + r, Vals: vals[part : part+1]})
			tombs.Tombs = append(tombs.Tombs, WALTomb{TID: 80_000 + r})
		}
		insert, del = append(insert, ins), append(del, tombs)
	}
	update := []WALOp{{Rel: "partsupp", Part: 3, Gen: 1}, {Rel: "partsupp", Part: 3}}
	for r := int64(0); r < rows/2; r++ {
		update[0].Tombs = append(update[0].Tombs, WALTomb{TID: 80_000 + r})
		update[1].Rows = append(update[1].Rows, core.URow{TID: 80_000 + r, Vals: []engine.Value{engine.Float(500000.5)}})
	}
	d := ws.MustDescriptor(ws.A(12, 2))
	partial := []WALOp{
		{Rel: "partsupp", Part: 2, Gen: 3, Tombs: []WALTomb{{TID: 7, D: d}, {TID: 9, Wild: true}}},
		{Rel: "partsupp", Part: 1, Rows: []core.URow{{D: d, TID: 7, Vals: []engine.Value{engine.Str("x"), engine.Null(), engine.Bool(true)}}}},
		{Rel: "partsupp", ClearsExistence: true},
	}
	var out [][]byte
	for _, ops := range [][]WALOp{insert, update, del, del[:2], partial} {
		out = append(out, EncodeWALRecord(ops))
	}
	return out
}

func FuzzDecodeWALRecord(f *testing.F) {
	for _, rec := range servedRWRecords() {
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, err := DecodeWALRecord(b)
		want, refErr := refDecodeWALRecord(b)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder: %v; reference: %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v is not ErrCorrupt", err)
			}
			return
		}
		enc := EncodeWALRecord(ops)
		if len(ops) != len(want) || !bytes.Equal(enc, EncodeWALRecord(want)) {
			t.Fatal("the decoded record differs from the reference's")
		}
		again, err := DecodeWALRecord(enc)
		if err != nil {
			t.Fatalf("a decoded record re-encodes to bytes that do not decode: %v", err)
		}
		if !bytes.Equal(EncodeWALRecord(again), enc) {
			t.Fatal("a decoded record does not survive a round trip")
		}
		for i, o := range again {
			if o.ClearsExistence && (o.Part != 0 || o.Rows != nil || o.Tombs != nil || o.Gen != 0) {
				t.Fatalf("op %d: a clear op with a partition, rows or tombstones: %+v", i, o)
			}
		}
	})
}

// walRefCursor is the WAL record's own cursor as it was then.
// --- decoding ---------------------------------------------------------

type walRefCursor struct {
	b   []byte
	pos int
}

func (c *walRefCursor) errf(format string, args ...any) error {
	return fmt.Errorf("store: corrupt WAL record at byte %d: %s", c.pos, fmt.Sprintf(format, args...))
}

func (c *walRefCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, c.errf("bad uvarint")
	}
	c.pos += n
	return v, nil
}

func (c *walRefCursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, c.errf("bad varint")
	}
	c.pos += n
	return v, nil
}

// countOf reads a count of elements that take at least min bytes each
// and refuses one the rest of the record cannot hold, so nothing is
// allocated for elements that are not there.
func (c *walRefCursor) countOf(min int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64((len(c.b)-c.pos)/min) {
		return 0, c.errf("count %d exceeds the record's %d remaining bytes", v, len(c.b)-c.pos)
	}
	return int(v), nil
}

func (c *walRefCursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, c.errf("truncated")
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *walRefCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, c.errf("truncated (need %d bytes)", n)
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v, nil
}

func (c *walRefCursor) str() (string, error) {
	n, err := c.countOf(1)
	if err != nil {
		return "", err
	}
	b, err := c.bytes(n)
	return string(b), err
}

func (c *walRefCursor) value() (engine.Value, error) {
	k, err := c.byte()
	if err != nil {
		return engine.Null(), err
	}
	switch engine.Kind(k) {
	case engine.KindNull:
		return engine.Null(), nil
	case engine.KindInt:
		i, err := c.varint()
		return engine.Int(i), err
	case engine.KindBool:
		i, err := c.varint()
		return engine.Bool(i != 0), err
	case engine.KindFloat:
		b, err := c.bytes(8)
		if err != nil {
			return engine.Null(), err
		}
		return engine.Float(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case engine.KindString:
		s, err := c.str()
		return engine.Str(s), err
	default:
		return engine.Null(), c.errf("unknown value kind %d", k)
	}
}

func (c *walRefCursor) descriptor() (ws.Descriptor, error) {
	n, err := c.countOf(2) // a (var, value) pair of varints
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	assigns := make([]ws.Assignment, n)
	for i := range assigns {
		x, err := c.varint()
		if err != nil {
			return nil, err
		}
		v, err := c.varint()
		if err != nil {
			return nil, err
		}
		assigns[i] = ws.A(ws.Var(x), ws.Val(v))
	}
	d, err := ws.NewDescriptor(assigns...)
	if err != nil {
		return nil, c.errf("%v", err)
	}
	return d, nil
}

// refDecodeWALRecord is DecodeWALRecord as it was before it read through
// the store's cursor, over a cursor of its own.
func refDecodeWALRecord(payload []byte) ([]WALOp, error) {
	c := &walRefCursor{b: payload}
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
		part, err := c.uvarint()
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
			if row.TID, err = c.varint(); err != nil {
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
		gen, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		o.Gen = int(gen)
		for t := 0; t < ntombs; t++ {
			var tb WALTomb
			if tb.TID, err = c.varint(); err != nil {
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
				return nil, c.errf("clear op of %q carries rows or tombstones", o.Rel)
			}
			o.Part, o.ClearsExistence = 0, true
		}
		ops = append(ops, o)
	}
	if c.pos != len(payload) {
		return nil, c.errf("%d trailing bytes", len(payload)-c.pos)
	}
	return ops, nil
}

// TestServedRWRecordsRoundTrip: the fuzz seeds are canonical — each
// re-encodes to its own bytes — so the target starts from records the
// writer really produces.
func TestServedRWRecordsRoundTrip(t *testing.T) {
	for i, rec := range servedRWRecords() {
		ops, err := DecodeWALRecord(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(EncodeWALRecord(ops), rec) {
			t.Fatalf("record %d does not re-encode to itself", i)
		}
	}
}

// FuzzDecodeManifest holds the catalog decoder to its encoder. On
// arbitrary bytes, taken as they are and as the body of a sealed
// catalog, ParseManifest returns ErrCorrupt or a manifest that names
// only plain files and re-encodes to the bytes it was given (a JSON
// version 3 manifest, to bytes that re-encode to themselves). And every
// manifest fuzzedManifest builds from the fuzzed field values, its
// attribute lists drawn from its relations', decodes to itself.
func FuzzDecodeManifest(f *testing.F) {
	dir, _ := savedTPCH(f, 0.02)
	saved, err := os.ReadFile(filepath.Join(dir, CatalogName))
	if err != nil {
		f.Fatal(err)
	}
	m, err := ParseManifest(saved)
	if err != nil {
		f.Fatal(err)
	}
	body := func(b []byte) []byte { return b[len(catalogMagic) : len(b)-4] }
	f.Add(saved, "r0_p0.useg", int64(3), uint64(0), uint8(0))
	f.Add(body(saved), "c_custkey", int64(-1), uint64(7), uint8(0xff))
	f.Add(manifestV3(f, m, false), "", int64(0), uint64(1), uint8(1))
	// The version as a two-byte varint: a catalog that re-encodes shorter.
	f.Add(append([]byte{0x80 | FormatVersion, 0}, body(saved)[1:]...), "", int64(1), uint64(2), uint8(2))
	// A mutable store's manifest: deltas, a WAL, an index, a shard, fences.
	m.WAL, m.Epoch, m.Fence, m.FencedBy = WALFileName(7), 7, 2, 3
	m.Shard = &ShardSpec{Index: 1, Count: 2, Sharded: []string{"lineitem"}}
	m.Relations[0].Indexes = []string{m.Relations[0].Attrs[0]}
	m.Relations[0].ExistenceComplete = false
	m.Relations[0].Parts[0].Deltas = []ManifestDelta{{File: DeltaFileName(0, 0, 7), Rows: 3, Width: 1}}
	f.Add(body(EncodeManifest(m)), "a<b>&\"\x01\xff", int64(math.MaxInt64), uint64(math.MaxUint64), uint8(0x55))
	f.Add(manifestV3(f, m, true), "r", int64(2), uint64(3), uint8(0x0f))
	m.Relations[0].Parts[0].Deltas[0].File = "../" + DeltaFileName(0, 0, 7)
	f.Add(EncodeManifest(m), "", int64(math.MinInt64), uint64(1), uint8(0xaa))
	v4, err := json.Marshal(m) // JSON at version 4, which no build wrote
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4, "p", int64(4), uint64(5), uint8(0xf0))
	f.Fuzz(func(t *testing.T, b []byte, name string, n int64, u uint64, flags uint8) {
		for _, in := range [][]byte{b, seal(append([]byte(catalogMagic), b...))} {
			m, err := ParseManifest(in)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("a refusal is not ErrCorrupt: %v", err)
				}
				continue
			}
			// Every name is a plain file in the directory (a read-only
			// snapshot names no log).
			names := m.Files()
			if m.WAL != "" {
				names = append(names, m.WAL)
			}
			for _, name := range names {
				if name == "" || strings.HasPrefix(name, ".") || strings.ContainsRune(name, '/') {
					t.Fatalf("an accepted manifest names %q", name)
				}
			}
			out := EncodeManifest(m)
			if in[0] == '{' {
				again, err := ParseManifest(out)
				if err != nil {
					t.Fatalf("an encoded JSON manifest does not parse: %v", err)
				}
				in = EncodeManifest(again)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("an accepted catalog re-encodes to other bytes:\n got %x\nwant %x", out, in)
			}
		}
		want := fuzzedManifest(name, n, u, flags)
		got, err := decodeManifest(EncodeManifest(want))
		if err != nil {
			t.Fatalf("an encoded manifest does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a manifest does not survive a round trip:\n got %+v\nwant %+v", got, want)
		}
	})
}

// fuzzedManifest builds a manifest of two relations from fuzzed values:
// name in every string, n in every int, u in every uint64, and flags
// choosing attributes, deltas, indexes and a shard. A partition's
// attributes and the indexes are drawn from the relation's, some a run
// of them and some not; every empty list is nil, as the decoder makes it.
func fuzzedManifest(name string, n int64, u uint64, flags uint8) *Manifest {
	bit := func(i uint) bool { return flags&(1<<i) != 0 }
	m := &Manifest{Version: int(n), WAL: name, Epoch: u, Fence: u / 3, FencedBy: u >> 7}
	for ri := 0; ri < 2; ri++ {
		mr := ManifestRel{Name: name + "r", MaxTID: n, ExistenceComplete: bit(2)}
		var a []string
		if bit(0) {
			a = []string{name, "a", name + "b"}
			mr.Attrs = a
			if bit(3) {
				mr.Indexes = []string{a[2]}
			}
			if bit(4) {
				mr.Indexes = append(mr.Indexes, a[1], a[0])
			}
		}
		pick := func(lo, hi int) []string {
			if a == nil {
				return nil
			}
			return a[lo:hi:hi]
		}
		mr.Parts = []ManifestPart{
			{Name: name, Attrs: pick(0, 1), File: name, Rows: int(n), Width: int(u)},
			{Name: "p", Attrs: pick(1, 3), File: "f" + name, Rows: -int(n), Width: 0},
			{},
		}
		if a != nil {
			mr.Parts[2].Attrs = []string{a[2], a[0]}
		}
		if bit(1) {
			mr.Parts[0].Deltas = []ManifestDelta{{File: name, Rows: int(n), Width: int(u >> 1)}, {}}
		}
		if ri == 1 && bit(7) {
			mr.Parts = nil
		}
		m.Relations = append(m.Relations, mr)
	}
	if bit(5) {
		m.Shard = &ShardSpec{Index: int(n), Count: int(u >> 2)}
		if bit(6) {
			m.Shard.Sharded = []string{name, "r"}
		}
	}
	return m
}

// manifestV3 renders m as format version 3 wrote it, JSON; without the
// existence-complete field unless existence is set, as a build that
// predates the field wrote it.
func manifestV3(tb testing.TB, m *Manifest, existence bool) []byte {
	tb.Helper()
	v3 := m.Clone()
	v3.Version = 3
	for i := range v3.Relations {
		v3.Relations[i].ExistenceComplete = existence && v3.Relations[i].ExistenceComplete
	}
	out, err := json.MarshalIndent(v3, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestManifestWithoutExistenceField: a version 3 manifest, JSON, opens.
// With the field the bits Save wrote come back; without it — a manifest
// written before the field, or rewritten by a binary that predates it —
// every bit is clear, so every relation of several partitions merges
// fully.
func TestManifestWithoutExistenceField(t *testing.T) {
	dir, _ := savedTPCH(t, 0.02)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	set := 0
	for _, mr := range m.Relations {
		if mr.ExistenceComplete {
			set++
		}
	}
	if set != 8 {
		t.Fatalf("Save wrote the bit for %d of 8 relations", set)
	}
	for _, c := range []struct {
		existence bool
		want      string
	}{
		{true, "[]"},
		{false, "[region nation supplier part partsupp customer orders lineitem]"},
	} {
		if err := os.WriteFile(filepath.Join(dir, CatalogName), manifestV3(t, m, c.existence), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(db.FullMergeRels())
		db.Close()
		if got != c.want {
			t.Fatalf("with the field %v, FullMergeRels = %s, want %s", c.existence, got, c.want)
		}
	}
}

// TestManifestVersions: ParseManifest accepts the catalog layout at
// version 4 and JSON at version 3, read as version 4, and refuses every
// other version of either, and a JSON manifest whose partition names an
// attribute its relation lacks, as ErrCorrupt.
func TestManifestVersions(t *testing.T) {
	dir, _ := savedTPCH(t, 0.02)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 5; v++ {
		vm := m.Clone()
		vm.Version = v
		js, err := json.Marshal(vm)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			layout string
			b      []byte
			ok     bool
		}{{"catalog", EncodeManifest(vm), v == 4}, {"JSON", js, v == 3}} {
			got, err := ParseManifest(c.b)
			switch {
			case !c.ok && !errors.Is(err, ErrCorrupt):
				t.Errorf("%s at version %d: err = %v, want ErrCorrupt", c.layout, v, err)
			case c.ok && err != nil:
				t.Errorf("%s at version %d: %v", c.layout, v, err)
			case c.ok && got.Version != FormatVersion:
				t.Errorf("%s at version %d parses as version %d", c.layout, v, got.Version)
			}
		}
	}
	m.Version = 3
	m.Relations[0].Parts[0].Attrs = []string{"bogus"}
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseManifest(js); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a JSON manifest naming an attribute its relation lacks: err = %v, want ErrCorrupt", err)
	}
}

// TestCatalogByteFlipIsCorrupt: a saved catalog with any one byte
// flipped — in a name, a count, a row count, the magic or the checksum —
// is ErrCorrupt.
func TestCatalogByteFlipIsCorrupt(t *testing.T) {
	dir, _ := savedTPCH(t, 0.02)
	saved, err := os.ReadFile(filepath.Join(dir, CatalogName))
	if err != nil {
		t.Fatal(err)
	}
	for i := range saved {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			b := bytes.Clone(saved)
			b[i] ^= mask
			if _, err := ParseManifest(b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d of %d flipped by %#x: err = %v, want ErrCorrupt", i, len(saved), mask, err)
			}
		}
	}
}
