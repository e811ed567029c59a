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
// "existence_complete" field holds it. On arbitrary bytes each returns a
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

// manifestJSON renders a manifest the way WriteManifest does.
func manifestJSON(m *Manifest) ([]byte, error) { return json.MarshalIndent(m, "", "  ") }

// handManifests are manifests no writer of this build writes: an
// unknown key at every level, escaped names, odd whitespace, and a
// mutable, sharded, fenced store's manifest with deltas and indexes.
var handManifests = []string{
	`{"version": 3, "future": {"k": [1, -0.5e-3, 2E+7, true, false, null, "s\u00e9"]}, "wal": "wal_7.log", "epoch": 7,
	  "relations": [{"name": "r", "later": [], "attrs": ["a", "b"], "partitions": [
	    {"name": "u_r_a", "attrs": ["a"], "file": "r0_p0.useg", "rows": 3, "width": 1, "x": null,
	     "deltas": [{"file": "r0_p0_d7.useg", "rows": 1, "width": 1, "y": "z"}]},
	    {"name": "u_r_b", "attrs": ["b", "a"], "file": "r0_p1.useg", "rows": 3, "width": 0}],
	   "max_tid": 3, "indexes": ["b"], "existence_complete": true}],
	  "shard": {"index": 1, "count": 2, "sharded": ["r"], "hash": {"kind": "fib"}}, "fence": 2, "fenced_by": 3}`,
	`{"version":3,"relations":[{"name":"r\u003cs\"\\\/\t\ud83d\ude00","attrs":["\u0061"],"partitions":[{"name":"\u00e9","attrs":["a"],"file":"r0_p0.useg","rows":0,"width":0}]}]}`,
	"\r\n\t {\t\"version\"\r:\n3 ,\"relations\" :\t[ ] , \"epoch\":0\n}\r\n",
	`{"version": 3, "relations": null, "shard": {}, "fence": 18446744073709551615}`,
}

// FuzzParseManifest holds the manifest's decoder to encoding/json on two
// kinds of input. On arbitrary bytes, what the decoder accepts
// json.Unmarshal accepts too and decodes to a reflect.DeepEqual
// Manifest, and a refusal is ErrCorrupt; what ParseManifest accepts
// names only plain files, renders and survives a round trip. And every
// manifest manifestJSON renders from the fuzzed field values (names
// with escapes and invalid UTF-8, nil and empty lists, deltas, indexes,
// a shard) decodes as json.Unmarshal decodes it.
func FuzzParseManifest(f *testing.F) {
	dir, _ := savedTPCH(f, 0.02)
	saved, err := os.ReadFile(filepath.Join(dir, CatalogName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved, "r0_p0.useg", int64(3), uint64(0), uint8(0))
	f.Add(withoutExistenceField(f, saved), "c_custkey", int64(-1), uint64(7), uint8(0xff))
	// A mutable store's manifest: deltas, a WAL, an index, a shard, fences.
	m, err := ParseManifest(saved)
	if err != nil {
		f.Fatal(err)
	}
	m.WAL, m.Epoch, m.Fence, m.FencedBy = WALFileName(7), 7, 2, 3
	m.Shard = &ShardSpec{Index: 1, Count: 2, Sharded: []string{"lineitem"}}
	m.Relations[0].Indexes = []string{m.Relations[0].Attrs[0]}
	m.Relations[0].ExistenceComplete = false
	m.Relations[0].Parts[0].Deltas = []ManifestDelta{{File: DeltaFileName(0, 0, 7), Rows: 3, Width: 1}}
	mutable, err := manifestJSON(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mutable, "a<b>&\"\x01\xff", int64(math.MaxInt64), uint64(math.MaxUint64), uint8(0x55))
	m.Relations[0].Parts[0].Deltas[0].File = "../" + DeltaFileName(0, 0, 7)
	escaping, err := manifestJSON(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(escaping, "", int64(math.MinInt64), uint64(1), uint8(0xaa))
	for i, hand := range handManifests {
		if _, err := decodeManifest([]byte(hand)); err != nil {
			f.Fatalf("hand manifest %d: %v", i, err)
		}
		f.Add([]byte(hand), "\u2028\U0001F600", int64(i), uint64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, b []byte, name string, n int64, u uint64, flags uint8) {
		sameAsJSON(t, b, false)
		out, err := manifestJSON(fuzzedManifest(name, n, u, flags))
		if err != nil {
			t.Fatal(err)
		}
		sameAsJSON(t, out, true)

		m, err := ParseManifest(b)
		if err != nil {
			return
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
		if out, err = manifestJSON(m); err != nil {
			t.Fatalf("a parsed manifest does not render: %v", err)
		}
		again, err := ParseManifest(out)
		if err != nil {
			t.Fatalf("a rendered manifest does not parse: %v", err)
		}
		if again2, _ := manifestJSON(again); !bytes.Equal(again2, out) {
			t.Fatal("a parsed manifest does not survive a round trip")
		}
		for i := range m.Relations {
			if m.Relations[i].ExistenceComplete != again.Relations[i].ExistenceComplete {
				t.Fatalf("relation %d lost its existence-complete bit", i)
			}
		}
	})
}

// sameAsJSON checks that where decodeManifest accepts b, json.Unmarshal
// accepts it and decodes it to an equal Manifest, and that a refusal is
// ErrCorrupt; must says decodeManifest has to accept.
func sameAsJSON(t *testing.T, b []byte, must bool) {
	t.Helper()
	got, err := decodeManifest(b)
	if err != nil {
		if must || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decodeManifest refuses %q: %v", b, err)
		}
		return
	}
	var want Manifest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("decodeManifest accepts what encoding/json refuses (%v): %q", err, b)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("decodeManifest and encoding/json differ on %q:\n got %+v\nwant %+v", b, *got, want)
	}
}

// fuzzedManifest builds a manifest of two relations from fuzzed values:
// name in every string, n in every int, u in every uint64, and flags
// choosing nil or empty lists, deltas, indexes and a shard.
func fuzzedManifest(name string, n int64, u uint64, flags uint8) *Manifest {
	bit := func(i uint) bool { return flags&(1<<i) != 0 }
	list := func(i uint, xs ...string) []string {
		if bit(i) {
			return xs
		}
		if bit(i + 1) {
			return []string{}
		}
		return nil
	}
	m := &Manifest{Version: int(n), WAL: name, Epoch: u, Fence: u / 3, FencedBy: u >> 7}
	for ri := 0; ri < 2; ri++ {
		mr := ManifestRel{Name: name + "r", Attrs: list(0, name, "a", name+"b"), MaxTID: n, ExistenceComplete: bit(2)}
		if bit(3) {
			mr.Indexes = list(4, name)
		}
		mr.Parts = []ManifestPart{
			{Name: name, Attrs: list(5, name), File: name, Rows: int(n), Width: int(u)},
			{Name: "p", Attrs: list(6, "a", name+"b"), File: "f" + name, Rows: -int(n), Width: 0},
			{Attrs: list(7, name+"b", name)},
		}
		if bit(1) {
			mr.Parts[0].Deltas = []ManifestDelta{{File: name, Rows: int(n), Width: int(u >> 1)}, {}}
		}
		if ri == 1 && bit(7) {
			mr.Parts = nil
		}
		m.Relations = append(m.Relations, mr)
	}
	if bit(4) {
		m.Shard = &ShardSpec{Index: int(n), Count: int(u >> 2), Sharded: list(5, name, "r")}
	}
	return m
}

// withoutExistenceField is a manifest as a binary that predates the
// existence-complete bit writes it.
func withoutExistenceField(tb testing.TB, manifest []byte) []byte {
	tb.Helper()
	var m map[string]any
	if err := json.Unmarshal(manifest, &m); err != nil {
		tb.Fatal(err)
	}
	for _, r := range m["relations"].([]any) {
		delete(r.(map[string]any), "existence_complete")
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestManifestWithoutExistenceField: a manifest written before the
// field — or rewritten by a binary that predates it — opens with every
// bit clear, so every relation of several partitions merges fully; with
// the field, the bits Save wrote come back.
func TestManifestWithoutExistenceField(t *testing.T) {
	dir, _ := savedTPCH(t, 0.02)
	path := filepath.Join(dir, CatalogName)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(saved), `"existence_complete": true`); n != 8 {
		t.Fatalf("Save wrote the bit for %d of 8 relations", n)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.FullMergeRels(); len(got) != 0 {
		t.Fatalf("with the field, %v merge fully", got)
	}
	db.Close()
	if err := os.WriteFile(path, withoutExistenceField(t, saved), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := fmt.Sprint(db.FullMergeRels()); got != "[region nation supplier part partsupp customer orders lineitem]" {
		t.Fatalf("without the field, FullMergeRels = %s", got)
	}
}
