package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"urel/internal/engine"
)

// FuzzUnmarshalRun runs decodeRun and a reference — the decoder as it
// was before runs held typed keys, kept here over a cursor of its own —
// on the same bytes, with the checksum re-sealed so that mutations reach
// the decoder. Both must decode the same run (compared through what it
// encodes back to, its distinct-key count and its probes) or both
// refuse, and neither may panic. Run it with
//
//	go test -run=NONE -fuzz=FuzzUnmarshalRun -fuzztime=10s -fuzzminimizetime=1s ./internal/store
func FuzzUnmarshalRun(f *testing.F) {
	for _, run := range savedRuns(f) {
		f.Add(run)
	}
	mixed := []engine.Value{engine.Int(3), engine.Str("a"), engine.Float(2.5), engine.Null(), engine.Bool(true), engine.Int(3)}
	f.Add(buildRun(mixed, 2).encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = seal(data[: len(data)-4 : len(data)-4])
		}
		got, err := decodeRun(data)
		want, refErr := refUnmarshal(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder: %v; reference: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if len(got.locs) != len(want.keys) || len(got.blooms) != len(want.blooms) || got.ndv != want.ndv {
			t.Fatalf("len %d segments %d ndv %d, reference %d %d %d",
				len(got.locs), len(got.blooms), got.ndv, len(want.keys), len(want.blooms), want.ndv)
		}
		if !bytes.Equal(got.encode(), want.marshal()) {
			t.Fatal("the decoded run encodes back to other bytes than the reference's")
		}
		for i, k := range want.keys {
			if i == 64 {
				break
			}
			got.lookup(k)
			if k.K == engine.KindInt {
				got.lookup(engine.Float(float64(k.I)))
			}
		}
	})
}

// savedRuns saves TPC-H s 0.02 and returns a run of each lineitem
// partition's tuple ids and the run files CREATE INDEX would build beside
// the partitions of l_orderkey (ints) and l_shipmode (strings).
func savedRuns(f *testing.F) [][]byte {
	dir, _ := savedTPCH(f, 0.02)
	m, err := ReadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	var runs [][]byte
	for _, mr := range m.Relations {
		if mr.Name != "lineitem" {
			continue
		}
		for _, mp := range mr.Parts {
			h, err := OpenPart(filepath.Join(dir, mp.File))
			if err != nil {
				f.Fatal(err)
			}
			// A run of the partition's tuple ids: ascending int keys, as the
			// tuple-id runs older versions wrote beside every layer.
			rows, err := (&PartSource{Layers: []*PartHandle{h}}).Load()
			if err != nil {
				f.Fatal(err)
			}
			tids := make([]engine.Value, len(rows))
			for i, r := range rows {
				tids[i] = engine.Int(r.TID)
			}
			runs = append(runs, buildRun(tids, DefaultSegmentRows).encode())
			for ai, a := range mp.Attrs {
				if a != "l_orderkey" && a != "l_shipmode" {
					continue
				}
				if err := BuildLayerIndex(h, ai); err != nil {
					f.Fatal(err)
				}
				b, err := os.ReadFile(IdxFileName(h.Path(), IdxKeyAttr(ai)))
				if err != nil {
					f.Fatal(err)
				}
				runs = append(runs, b)
			}
			h.Close()
		}
	}
	return runs
}

// refRun is a run as the reference decoder gives it.
type refRun struct {
	blooms [][]uint64
	keys   []engine.Value
	locs   []idxLoc
	ndv    int
}

const refMagic = "URIDXv1\n"

// refUnmarshal is the run decoder as it was before runs held typed keys,
// over refCursor. Two things are added. A count larger than the whole
// input is refused before it sizes an allocation, which the reference
// would otherwise do and die of; such a count can never be met, as every
// bloom filter, word and entry takes at least a byte. And a locator of
// 2³¹, which no int32 holds, is refused: the old decoder took it for a
// negative segment or row, which a probe then indexed with.
func refUnmarshal(data []byte) (*refRun, error) {
	if len(data) < len(refMagic)+4 {
		return nil, fmt.Errorf("truncated")
	}
	if string(data[:len(refMagic)]) != refMagic {
		return nil, fmt.Errorf("bad magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	c := &refCursor{b: body, pos: len(refMagic)}
	nsegs, err := c.size(1 << 30)
	if err != nil {
		return nil, err
	}
	r := &refRun{blooms: make([][]uint64, nsegs)}
	for si := 0; si < nsegs; si++ {
		nw, err := c.size(1 << 28)
		if err != nil {
			return nil, err
		}
		words := make([]uint64, nw)
		for i := range words {
			if words[i], err = c.fixed64(); err != nil {
				return nil, err
			}
		}
		r.blooms[si] = words
	}
	n, err := c.size(1 << 31)
	if err != nil {
		return nil, err
	}
	r.keys = make([]engine.Value, n)
	r.locs = make([]idxLoc, n)
	for i := 0; i < n; i++ {
		if r.keys[i], err = c.value(); err != nil {
			return nil, err
		}
		seg, err := c.count(math.MaxInt32)
		if err != nil {
			return nil, err
		}
		row, err := c.count(math.MaxInt32)
		if err != nil {
			return nil, err
		}
		r.locs[i] = idxLoc{int32(seg), int32(row)}
	}
	if c.pos != len(body) {
		return nil, fmt.Errorf("%d trailing bytes", len(body)-c.pos)
	}
	for i := range r.keys {
		if i == 0 || engine.Compare(r.keys[i], r.keys[i-1]) != 0 {
			r.ndv++
		}
	}
	return r, nil
}

// marshal is the reference's Marshal.
func (r *refRun) marshal() []byte {
	b := []byte(refMagic)
	b = binary.AppendUvarint(b, uint64(len(r.blooms)))
	for _, words := range r.blooms {
		b = binary.AppendUvarint(b, uint64(len(words)))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.keys)))
	for i, v := range r.keys {
		b = append(b, byte(v.K))
		switch v.K {
		case engine.KindInt, engine.KindBool:
			b = binary.AppendVarint(b, v.I)
		case engine.KindFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
		case engine.KindString:
			b = binary.AppendUvarint(b, uint64(len(v.S)))
			b = append(b, v.S...)
		}
		b = binary.AppendUvarint(b, uint64(r.locs[i].seg))
		b = binary.AppendUvarint(b, uint64(r.locs[i].row))
	}
	crc := crc32.ChecksumIEEE(b)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// size is count for a count that sizes an allocation, with the guard
// refUnmarshal's comment describes.
func (c *refCursor) size(max uint64) (int, error) {
	if v, _ := binary.Uvarint(c.b[c.pos:]); v > uint64(len(c.b)) {
		return 0, fmt.Errorf("count %d exceeds the input", v)
	}
	return c.count(max)
}
