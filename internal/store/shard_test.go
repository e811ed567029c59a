package store

import (
	"bytes"
	"os"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// shardTestDB builds a catalog with one large sharded fact relation and
// one small dimension to be replicated.
func shardTestDB(t *testing.T, n int) *core.UDB {
	t.Helper()
	db := core.NewUDB()
	db.MustAddRelation("fact", "id", "v")
	db.MustAddRelation("dim", "id", "name")
	x := db.W.NewBoolVar("x")
	uf := db.MustAddPartition("fact", "u_fact", "id", "v")
	for i := 0; i < n; i++ {
		uf.Add(ws.MustDescriptor(ws.A(x, ws.Val(1+i%2))), int64(i+1),
			engine.Int(int64(i)), engine.Float(float64(i)*0.5))
	}
	ud := db.MustAddPartition("dim", "u_dim", "id", "name")
	ud.Add(nil, 1, engine.Int(0), engine.Str("zero"))
	ud.Add(nil, 2, engine.Int(1), engine.Str("one"))
	return db
}

// TestShardHashPinned pins ShardHash outputs: the function is a
// persisted on-disk contract (manifests written by ShardedSave are
// only correct while every reader computes the same owner), so any
// change here is a format break.
func TestShardHashPinned(t *testing.T) {
	pins := []struct {
		tid   int64
		count int
		want  int
	}{
		{1, 2, 1}, {2, 2, 0}, {3, 2, 1}, {4, 2, 0}, {5, 2, 1},
		{1, 3, 1}, {100, 3, 0}, {1, 1, 0}, {1 << 40, 4, 0},
	}
	for _, p := range pins {
		if got := ShardHash(p.tid, p.count); got != p.want {
			t.Errorf("ShardHash(%d, %d) = %d, want %d", p.tid, p.count, got, p.want)
		}
	}
	// Rough balance over sequential tids (the DML allocation pattern).
	counts := make([]int, 4)
	for tid := int64(1); tid <= 4000; tid++ {
		counts[ShardHash(tid, 4)]++
	}
	for s, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("shard %d holds %d of 4000 sequential tids, want ~1000", s, c)
		}
	}
}

// TestShardedSaveRoundTrip checks the core partitioning invariants:
// sharded rows are disjoint across shards and union back to the
// original, replicated relations and the world table are copied whole,
// and every shard manifest carries the global MaxTID and its ShardSpec.
func TestShardedSaveRoundTrip(t *testing.T) {
	const n = 500
	db := shardTestDB(t, n)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	if err := ShardedSave(db, dirs, []string{"fact"}); err != nil {
		t.Fatal(err)
	}

	seen := map[int64]int{} // tid -> shard that holds it
	totalFact := 0
	for si, dir := range dirs {
		man, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if man.Shard == nil || man.Shard.Index != si || man.Shard.Count != 3 ||
			len(man.Shard.Sharded) != 1 || man.Shard.Sharded[0] != "fact" {
			t.Fatalf("shard %d: bad ShardSpec %+v", si, man.Shard)
		}
		for _, mr := range man.Relations {
			switch mr.Name {
			case "fact":
				if mr.MaxTID != n {
					t.Errorf("shard %d: fact MaxTID = %d, want global %d", si, mr.MaxTID, n)
				}
			case "dim":
				if mr.MaxTID != 2 {
					t.Errorf("shard %d: dim MaxTID = %d, want 2", si, mr.MaxTID)
				}
			}
		}
		sdb, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := sdb.Materialize(); err != nil {
			t.Fatal(err)
		}
		if got := len(sdb.Rels["dim"].Parts[0].Rows); got != 2 {
			t.Errorf("shard %d: dim has %d rows, want full replica of 2", si, got)
		}
		for _, r := range sdb.Rels["fact"].Parts[0].Rows {
			if want := ShardHash(r.TID, 3); want != si {
				t.Errorf("shard %d holds tid %d owned by shard %d", si, r.TID, want)
			}
			if prev, dup := seen[r.TID]; dup {
				t.Errorf("tid %d present in shards %d and %d", r.TID, prev, si)
			}
			seen[r.TID] = si
			totalFact++
		}
		if sdb.W.NextID() != db.W.NextID() {
			t.Errorf("shard %d: world table next id %d, want %d", si, sdb.W.NextID(), db.W.NextID())
		}
		sdb.Close()
	}
	if totalFact != n {
		t.Errorf("shards hold %d fact rows total, want %d", totalFact, n)
	}
}

// TestWorldTableCodecRoundTrip pins the exported byte codec the
// replication protocol ships over HTTP.
func TestWorldTableCodecRoundTrip(t *testing.T) {
	w := ws.NewWorldTable()
	w.NewBoolVar("x")
	y := w.MustNewVar("y", 1, 2, 3)
	if err := w.SetProbs(y, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	b := EncodeWorldTable(w)
	got, err := DecodeWorldTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextID() != w.NextID() || !bytes.Equal(EncodeWorldTable(got), b) {
		t.Fatalf("round trip mismatch: next %d/%d, bytes differ", got.NextID(), w.NextID())
	}
	b[len(b)-1] ^= 0xff
	if _, err := DecodeWorldTable(b); err == nil {
		t.Fatal("corrupt world table bytes decoded without error")
	}
}

// TestParseWALChunk pins the headerless frame parser the /wal/stream
// follower uses: intact frames decode, a trailing partial frame is
// reported as unconsumed (not an error), and corruption is an error.
func TestParseWALChunk(t *testing.T) {
	dirWAL := t.TempDir() + "/w.log"
	wal, err := CreateWAL(dirWAL)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("first"), []byte("second record"), []byte("3")}
	for _, p := range payloads {
		if err := wal.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(dirWAL)
	if err != nil {
		t.Fatal(err)
	}
	chunk := buf[WALHeaderLen:]
	recs, consumed, err := ParseWALChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || consumed != len(chunk) {
		t.Fatalf("got %d records, %d consumed of %d", len(recs), consumed, len(chunk))
	}
	for i, p := range payloads {
		if string(recs[i]) != string(p) {
			t.Errorf("record %d = %q, want %q", i, recs[i], p)
		}
	}
	// Cut mid-frame: the complete prefix parses, the tail is unconsumed.
	cut := chunk[:len(chunk)-2]
	recs, consumed, err = ParseWALChunk(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || consumed >= len(cut) {
		t.Fatalf("truncated chunk: got %d records, consumed %d of %d", len(recs), consumed, len(cut))
	}
	// Flip a payload byte: checksum error.
	bad := append([]byte(nil), chunk...)
	bad[frameHeaderLen] ^= 0xff
	if _, _, err := ParseWALChunk(bad); err == nil {
		t.Fatal("corrupt chunk parsed without error")
	}
}
