package index

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
	run := BuildRun(keys, segRows)

	// Round-trip through the file format.
	path := filepath.Join(t.TempDir(), "r.idx")
	if err := run.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	probe := func(r *Run, key engine.Value) map[Loc]bool {
		got := map[Loc]bool{}
		for _, loc := range r.Lookup(key, nil) {
			got[loc] = true
		}
		return got
	}
	for trial := 0; trial < 500; trial++ {
		key := engine.Int(int64(rng.Intn(3500)))
		want := map[Loc]bool{}
		for i, k := range keys {
			if engine.Compare(k, key) == 0 {
				want[Loc{Seg: int32(i / segRows), Row: int32(i % segRows)}] = true
			}
		}
		for name, r := range map[string]*Run{"built": run, "loaded": loaded} {
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
	if locs := run.Lookup(engine.Null(), nil); len(locs) != 0 {
		t.Fatalf("NULL probe returned %d locs", len(locs))
	}
}

func TestRunBloomRejections(t *testing.T) {
	keys := make([]engine.Value, 4096)
	for i := range keys {
		keys[i] = engine.Int(int64(i * 2)) // evens only
	}
	run := BuildRun(keys, 1024)
	var st LookupStats
	misses := 0
	for k := int64(1); k < 20001; k += 2 { // odd probes: all absent
		if locs := run.Lookup(engine.Int(k), &st); len(locs) != 0 {
			t.Fatalf("absent key %d returned %d locs", k, len(locs))
		}
		misses++
	}
	if st.RunsConsulted != int64(misses) {
		t.Fatalf("RunsConsulted = %d, want %d", st.RunsConsulted, misses)
	}
	// ~1% false-positive rate at 10 bits/key: the overwhelming majority
	// of absent probes must be rejected by the blooms alone.
	if st.BloomRejections < int64(misses)*9/10 {
		t.Fatalf("bloom rejected %d of %d absent probes, want ≥ 90%%", st.BloomRejections, misses)
	}
}

func TestRunCorruptionDetected(t *testing.T) {
	keys := []engine.Value{engine.Int(1), engine.Int(2), engine.Str("x")}
	run := BuildRun(keys, 2)
	data := run.Marshal()
	if _, err := Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b }, // flipped byte
		func(b []byte) []byte { return b[:len(b)-3] },           // truncated
		func(b []byte) []byte { b[0] = 'X'; return b },          // bad magic
	} {
		b := mut(append([]byte(nil), data...))
		if _, err := Unmarshal(b); err == nil {
			t.Fatal("corrupt run decoded without error")
		}
	}
	// A corrupt file on disk surfaces the same way.
	path := filepath.Join(t.TempDir(), "bad.idx")
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("corrupt run file loaded without error")
	}
}

// TestRunHugeCountIsCorrupt: a 21-byte run with a valid checksum that
// claims 2³¹−1 entries must be refused before anything is allocated for
// them (each entry takes at least three bytes), not size a 2³¹-entry
// key array.
func TestRunHugeCountIsCorrupt(t *testing.T) {
	b := []byte(runMagic)
	b = binary.AppendUvarint(b, 0)            // no bloom filters
	b = binary.AppendUvarint(b, 1<<31-1)      // entries claimed
	b = append(b, byte(engine.KindInt), 0, 0) // what is there of the first
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	if len(b) != 21 {
		t.Fatalf("crafted run is %d bytes, want 21", len(b))
	}
	if _, err := Unmarshal(b); !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("err = %v, want ErrCorruptRun", err)
	}
}

// TestRunKeysAreTyped: a run of ints holds them as an int vector, and a
// probe of any kind that equals an int key finds it.
func TestRunKeysAreTyped(t *testing.T) {
	keys := []engine.Value{engine.Int(5), engine.Int(3), engine.Int(5), engine.Null(), engine.Int(-2)}
	for name, r := range map[string]*Run{"built": BuildRun(keys, 2), "loaded": mustUnmarshal(t, BuildRun(keys, 2).Marshal())} {
		if _, ok := r.intKeys(); !ok {
			t.Fatalf("%s: int keys not held as an int vector: %+v", name, r.keys)
		}
		if r.Len() != 4 || r.NDV() != 3 {
			t.Fatalf("%s: Len %d NDV %d, want 4 and 3", name, r.Len(), r.NDV())
		}
		want := []Loc{{Seg: 0, Row: 0}, {Seg: 1, Row: 0}}
		for _, probe := range []engine.Value{engine.Int(5), engine.Float(5)} {
			if got := r.Lookup(probe, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Lookup(%v) = %v, want %v", name, probe, got, want)
			}
		}
		if got := r.Lookup(engine.Int(4), nil); got != nil {
			t.Fatalf("%s: Lookup(4) = %v, want none", name, got)
		}
	}
	mixed := BuildRun([]engine.Value{engine.Int(1), engine.Str("a")}, 4)
	if _, ok := mixed.intKeys(); ok || mixed.NDV() != 2 || len(mixed.Lookup(engine.Str("a"), nil)) != 1 {
		t.Fatalf("mixed run: keys %+v, NDV %d", mixed.keys, mixed.NDV())
	}
}

func mustUnmarshal(t *testing.T, b []byte) *Run {
	t.Helper()
	r, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
