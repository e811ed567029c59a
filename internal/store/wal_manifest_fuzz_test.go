package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// Round-trip fuzz targets of the two decoders that carry the
// existence-complete bit: the WAL record, whose clear op clears it, and
// the manifest, whose "existence_complete" field holds it. On arbitrary
// bytes each returns a value or an error, never a panic, and allocates
// only for what the input holds; what decodes re-encodes to a form that
// decodes to itself. Run one with
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
		if err != nil {
			return
		}
		enc := EncodeWALRecord(ops)
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

func FuzzParseManifest(f *testing.F) {
	dir, _ := savedTPCH(f, 0.02)
	saved, err := os.ReadFile(filepath.Join(dir, CatalogName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add(withoutExistenceField(f, saved))
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
	f.Add(mutable)
	m.Relations[0].Parts[0].Deltas[0].File = "../" + DeltaFileName(0, 0, 7)
	escaping, err := manifestJSON(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(escaping)
	f.Fuzz(func(t *testing.T, b []byte) {
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
		out, err := manifestJSON(m)
		if err != nil {
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
