package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"urel/internal/engine"
)

func TestRunLookupRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, segRows = 10_000, 512
	keys := make([]engine.Value, n)
	for i := range keys {
		switch rng.Intn(10) {
		case 0:
			keys[i] = engine.Null()
		case 1:
			keys[i] = engine.Str("k" + string(rune('a'+rng.Intn(26))))
		default:
			keys[i] = engine.Int(int64(rng.Intn(3000)))
		}
	}
	run := buildRun(keys, segRows)

	// Round-trip through the file format.
	path := filepath.Join(t.TempDir(), "r.idx")
	if err := writeRun(path, run, time.Now()); err != nil {
		t.Fatal(err)
	}
	loaded, err := readFile(path, decodeRun)
	if err != nil {
		t.Fatal(err)
	}

	probe := func(r *idxRun, key engine.Value) map[idxLoc]bool {
		got := map[idxLoc]bool{}
		locs, _ := r.lookup(key)
		for _, loc := range locs {
			got[loc] = true
		}
		return got
	}
	for trial := 0; trial < 500; trial++ {
		key := engine.Int(int64(rng.Intn(3500)))
		want := map[idxLoc]bool{}
		for i, k := range keys {
			if engine.Compare(k, key) == 0 {
				want[idxLoc{int32(i / segRows), int32(i % segRows)}] = true
			}
		}
		for name, r := range map[string]*idxRun{"built": run, "loaded": loaded} {
			got := probe(r, key)
			if len(got) != len(want) {
				t.Fatalf("%s: key %v: got %d locs, want %d", name, key, len(got), len(want))
			}
			for loc := range want {
				if !got[loc] {
					t.Fatalf("%s: key %v: missing loc %+v", name, key, loc)
				}
			}
		}
	}

	// NULL never matches.
	if locs, _ := run.lookup(engine.Null()); len(locs) != 0 {
		t.Fatalf("NULL probe returned %d locs", len(locs))
	}
}

func TestRunBloomRejections(t *testing.T) {
	keys := make([]engine.Value, 4096)
	for i := range keys {
		keys[i] = engine.Int(int64(i * 2)) // evens only
	}
	run := buildRun(keys, 1024)
	misses, rejections := 0, 0
	for k := int64(1); k < 20001; k += 2 { // odd probes: all absent
		locs, rejected := run.lookup(engine.Int(k))
		if len(locs) != 0 {
			t.Fatalf("absent key %d returned %d locs", k, len(locs))
		}
		misses++
		if rejected {
			rejections++
		}
	}
	// ~1% false-positive rate at 10 bits/key: the overwhelming majority
	// of absent probes must be rejected by the blooms alone.
	if rejections < misses*9/10 {
		t.Fatalf("bloom rejected %d of %d absent probes, want ≥ 90%%", rejections, misses)
	}
}

func TestRunCorruptionDetected(t *testing.T) {
	keys := []engine.Value{engine.Int(1), engine.Int(2), engine.Str("x")}
	data := buildRun(keys, 2).encode()
	if _, err := decodeRun(data); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b }, // flipped byte
		func(b []byte) []byte { return b[:len(b)-3] },           // truncated
		func(b []byte) []byte { b[0] = 'X'; return b },          // bad magic
	} {
		b := mut(append([]byte(nil), data...))
		if _, err := decodeRun(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupt run: err = %v, want ErrCorrupt", err)
		}
	}
	// A corrupt file on disk surfaces the same way.
	path := filepath.Join(t.TempDir(), "bad.idx")
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readFile(path, decodeRun); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt run file: err = %v, want ErrCorrupt", err)
	}
}

// TestRunHugeCountIsCorrupt: a 21-byte run with a valid checksum that
// claims 2³¹−1 entries must be refused before anything is allocated for
// them (each entry takes at least three bytes), not size a 2³¹-entry
// key array. Nor may a locator of 2³¹, which no int32 holds, decode
// as a negative segment for a probe to index with.
func TestRunHugeCountIsCorrupt(t *testing.T) {
	b := []byte(runMagic)
	b = binary.AppendUvarint(b, 0)            // no bloom filters
	b = binary.AppendUvarint(b, 1<<31-1)      // entries claimed
	b = append(b, byte(engine.KindInt), 0, 0) // what is there of the first
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	if len(b) != 21 {
		t.Fatalf("crafted run is %d bytes, want 21", len(b))
	}
	if _, err := decodeRun(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	b = appendValue(appendUint(appendUint([]byte(runMagic), 0), 1), engine.Int(1))
	if _, err := decodeRun(seal(appendUint(appendUint(b, 1<<31), 0))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment 2³¹: err = %v, want ErrCorrupt", err)
	}
}

// TestRunKeysAreTyped: a run of ints holds them as an int vector, and a
// probe of any kind that equals an int key finds it.
func TestRunKeysAreTyped(t *testing.T) {
	keys := []engine.Value{engine.Int(5), engine.Int(3), engine.Int(5), engine.Null(), engine.Int(-2)}
	for name, r := range map[string]*idxRun{"built": buildRun(keys, 2), "loaded": mustDecodeRun(t, buildRun(keys, 2).encode())} {
		if _, ok := r.intKeys(); !ok {
			t.Fatalf("%s: int keys not held as an int vector: %+v", name, r.keys)
		}
		if len(r.locs) != 4 || r.ndv != 3 {
			t.Fatalf("%s: %d keys, %d distinct, want 4 and 3", name, len(r.locs), r.ndv)
		}
		want := []idxLoc{{0, 0}, {1, 0}}
		for _, probe := range []engine.Value{engine.Int(5), engine.Float(5)} {
			if got, _ := r.lookup(probe); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: lookup(%v) = %v, want %v", name, probe, got, want)
			}
		}
		if got, _ := r.lookup(engine.Int(4)); got != nil {
			t.Fatalf("%s: lookup(4) = %v, want none", name, got)
		}
	}
	mixed := buildRun([]engine.Value{engine.Int(1), engine.Str("a")}, 4)
	if got, _ := mixed.lookup(engine.Str("a")); len(got) != 1 || mixed.ndv != 2 {
		t.Fatalf("mixed run: keys %+v, NDV %d", mixed.keys, mixed.ndv)
	}
	if _, ok := mixed.intKeys(); ok {
		t.Fatalf("mixed run: keys %+v held as ints", mixed.keys)
	}
}

func mustDecodeRun(t *testing.T, b []byte) *idxRun {
	t.Helper()
	r, err := decodeRun(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
