package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xAB}, 1000)}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// The read-only replay sees the same records without touching the
	// file.
	ro, err := ReadWALRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ro) != len(recs) {
		t.Fatalf("read-only replay: %d records", len(ro))
	}
}

// TestWALTornTail truncates the log at every possible byte boundary:
// the replay must return exactly the records whose frames survive
// whole, never an error, and an append after reopen must extend a
// clean log.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("one"), []byte("twotwo"), []byte("threethreethree")}
	var bounds []int64 // size after header and after each record
	bounds = append(bounds, w.Size())
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, w.Size())
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int(bounds[0]); cut <= len(full); cut++ {
		torn := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 1; i < len(bounds); i++ {
			if int64(cut) >= bounds[i] {
				want = i
			}
		}
		// Read-only replay leaves the torn file alone.
		roGot, err := ReadWALRecords(torn)
		if err != nil {
			t.Fatalf("cut %d read-only: %v", cut, err)
		}
		if len(roGot) != want {
			t.Fatalf("cut %d read-only: %d records, want %d", cut, len(roGot), want)
		}
		if st, _ := os.Stat(torn); st.Size() != int64(cut) {
			t.Fatalf("cut %d: read-only replay modified the file", cut)
		}

		w2, got, err := OpenWAL(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != want {
			w2.Close()
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), want)
		}
		// Appending after a torn-tail truncation must yield a log whose
		// replay is the surviving prefix plus the new record.
		if err := w2.Append([]byte("fresh")); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		w3, got3, err := OpenWAL(torn)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		w3.Close()
		if len(got3) != want+1 || string(got3[want]) != "fresh" {
			t.Fatalf("cut %d: after append replay has %d records", cut, len(got3))
		}
	}
}

// TestWALBitFlip: a corrupted byte inside the last frame drops that
// frame (CRC mismatch ends the log).
func TestWALBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("keepme")); err != nil {
		t.Fatal(err)
	}
	mark := w.Size()
	if err := w.Append([]byte("flipme")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	buf, _ := os.ReadFile(path)
	buf[mark+frameHeaderLen+2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if len(got) != 1 || string(got[0]) != "keepme" {
		t.Fatalf("replay after bit flip: %q", got)
	}
}

func TestWALBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("NOTAWAL\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); err == nil {
		t.Fatal("bad header must fail")
	}
	if _, err := ReadWALRecords(path); err == nil {
		t.Fatal("bad header must fail read-only too")
	}
}

// TestWALRecordRoundTrip pushes every op shape through encode/decode.
func TestWALRecordRoundTrip(t *testing.T) {
	d := ws.MustDescriptor(ws.A(3, 1), ws.A(7, 2))
	ops := []WALOp{
		{Rel: "r", Part: 0, Rows: []core.URow{
			{D: nil, TID: 5, Vals: []engine.Value{engine.Int(-9), engine.Str("x")}},
			{D: d, TID: 6, Vals: []engine.Value{engine.Null(), engine.Float(2.5)}},
			{D: d, TID: 7, Vals: []engine.Value{engine.Bool(true), engine.MustDate("1995-03-15")}},
		}},
		{Rel: "r", Part: 1, Tombs: []WALTomb{
			{TID: 5, D: d},
			{TID: 6, Wild: true},
			{TID: 7, D: nil},
		}, Gen: 3},
		{Rel: "r", ClearsExistence: true},
	}
	dec, err := DecodeWALRecord(EncodeWALRecord(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(ops) {
		t.Fatalf("%d ops", len(dec))
	}
	if o := dec[2]; o.Rel != "r" || !o.ClearsExistence || o.Part != 0 || o.Rows != nil || o.Tombs != nil {
		t.Fatalf("op2 = %+v", o)
	}
	if dec[0].ClearsExistence || dec[1].ClearsExistence {
		t.Fatal("a row or tombstone op decodes as a clear op")
	}
	if dec[0].Rel != "r" || dec[0].Part != 0 || len(dec[0].Rows) != 3 {
		t.Fatalf("op0 = %+v", dec[0])
	}
	for i, r := range dec[0].Rows {
		want := ops[0].Rows[i]
		if r.TID != want.TID || !DescriptorEqual(r.D, want.D) {
			t.Fatalf("row %d identity mismatch", i)
		}
		for vi := range r.Vals {
			if !engine.Equal(r.Vals[vi], want.Vals[vi]) && !(r.Vals[vi].IsNull() && want.Vals[vi].IsNull()) {
				t.Fatalf("row %d val %d: %v != %v", i, vi, r.Vals[vi], want.Vals[vi])
			}
		}
	}
	if dec[1].Gen != 3 || len(dec[1].Tombs) != 3 {
		t.Fatalf("op1 = %+v", dec[1])
	}
	if !DescriptorEqual(dec[1].Tombs[0].D, d) || dec[1].Tombs[0].Wild {
		t.Fatalf("tomb0 = %+v", dec[1].Tombs[0])
	}
	if !dec[1].Tombs[1].Wild {
		t.Fatal("tomb1 lost its wildcard")
	}
	if dec[1].Tombs[2].D != nil || dec[1].Tombs[2].Wild {
		t.Fatalf("tomb2 = %+v", dec[1].Tombs[2])
	}

	if _, err := DecodeWALRecord(append(EncodeWALRecord(ops), 0xFF)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

// TestPartDeltaEagerDeletes: a tombstone batch removes matching
// memtable rows at apply time, and later inserts with the same
// identity survive (the UPDATE reinsert pattern).
func TestPartDeltaEagerDeletes(t *testing.T) {
	d := ws.MustDescriptor(ws.A(3, 1))
	pd := &PartDelta{}
	pd.ApplyOp(WALOp{Rows: []core.URow{
		{D: d, TID: 1, Vals: []engine.Value{engine.Int(10)}},
		{D: nil, TID: 2, Vals: []engine.Value{engine.Int(20)}},
	}})
	pd.ApplyOp(WALOp{Tombs: []WALTomb{{TID: 1, D: d}}, Gen: 1})
	if len(pd.Rows) != 1 || pd.Rows[0].TID != 2 {
		t.Fatalf("eager delete failed: %+v", pd.Rows)
	}
	// Reinsert with the same identity: must survive the earlier batch.
	pd.ApplyOp(WALOp{Rows: []core.URow{{D: d, TID: 1, Vals: []engine.Value{engine.Int(11)}}}})
	if len(pd.Rows) != 2 {
		t.Fatalf("reinsert shadowed: %+v", pd.Rows)
	}
	// The retained batch still filters layer 0 but not layer 1.
	tv := NewTombView(pd.Batches)
	if tv == nil || tv.Len() != 1 {
		t.Fatalf("tomb view: %+v", tv)
	}
	if f := tv.Layer(0); f == nil || !refDeleted(f, 1, d) {
		t.Fatal("batch must filter layer 0")
	}
	if f := tv.Layer(1); f != nil {
		t.Fatal("batch must not filter layers created after it")
	}
	// Wildcards match any descriptor.
	b := NewTombBatch([]WALTomb{{TID: 9, Wild: true}}, 2)
	if !b.Matches(9, d) || !b.Matches(9, nil) || b.Matches(8, d) {
		t.Fatal("wildcard semantics broken")
	}
}
