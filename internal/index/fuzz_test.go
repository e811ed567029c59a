package index_test

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
	"urel/internal/index"
	"urel/internal/store"
	"urel/internal/tpch"
)

// FuzzUnmarshalRun runs index.Unmarshal and a reference — the decoder as
// it was before runs held typed keys, kept here — on the same bytes,
// with the checksum re-sealed so that mutations reach the decoder. Both
// must decode the same run (compared through what it encodes back to,
// its distinct-key count and its probes) or both refuse, and neither may
// panic. Run it with
//
//	go test -run=NONE -fuzz=FuzzUnmarshalRun -fuzztime=10s -fuzzminimizetime=1s ./internal/index
func FuzzUnmarshalRun(f *testing.F) {
	for _, run := range savedRuns(f) {
		f.Add(run)
	}
	mixed := []engine.Value{engine.Int(3), engine.Str("a"), engine.Float(2.5), engine.Null(), engine.Bool(true), engine.Int(3)}
	f.Add(index.BuildRun(mixed, 2).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			body := data[: len(data)-4 : len(data)-4]
			data = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		}
		got, err := index.Unmarshal(data)
		want, refErr := refUnmarshal(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder: %v; reference: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got.Len() != len(want.keys) || got.Segments() != len(want.blooms) || got.NDV() != want.ndv {
			t.Fatalf("len %d segments %d ndv %d, reference %d %d %d",
				got.Len(), got.Segments(), got.NDV(), len(want.keys), len(want.blooms), want.ndv)
		}
		if !bytes.Equal(got.Marshal(), want.marshal()) {
			t.Fatal("the decoded run encodes back to other bytes than the reference's")
		}
		for i, k := range want.keys {
			if i == 64 {
				break
			}
			got.Lookup(k, nil)
			if k.K == engine.KindInt {
				got.Lookup(engine.Float(float64(k.I)), nil)
			}
		}
	})
}

// savedRuns saves TPC-H s 0.02 and returns a run of each lineitem
// partition's tuple ids and the run files CREATE INDEX would build beside
// the partitions of l_orderkey (ints) and l_shipmode (strings).
func savedRuns(f *testing.F) [][]byte {
	p := tpch.DefaultParams(0.02, 0.01, 0.25)
	p.Seed = 1
	db, _, err := tpch.Generate(p)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := store.Save(db, dir); err != nil {
		f.Fatal(err)
	}
	m, err := store.ReadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	var runs [][]byte
	for _, mr := range m.Relations {
		if mr.Name != "lineitem" {
			continue
		}
		for _, mp := range mr.Parts {
			h, err := store.OpenPart(filepath.Join(dir, mp.File))
			if err != nil {
				f.Fatal(err)
			}
			// A run of the partition's tuple ids: ascending int keys, as the
			// tuple-id runs older versions wrote beside every layer.
			rows, err := (&store.PartSource{Layers: []*store.PartHandle{h}}).Load()
			if err != nil {
				f.Fatal(err)
			}
			tids := make([]engine.Value, len(rows))
			for i, r := range rows {
				tids[i] = engine.Int(r.TID)
			}
			runs = append(runs, index.BuildRun(tids, store.DefaultSegmentRows).Marshal())
			for ai, a := range mp.Attrs {
				if a != "l_orderkey" && a != "l_shipmode" {
					continue
				}
				if err := store.BuildLayerIndex(h, ai); err != nil {
					f.Fatal(err)
				}
				b, err := os.ReadFile(store.IdxFileName(h.Path(), store.IdxKeyAttr(ai)))
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
	locs   []index.Loc
	ndv    int
}

const refMagic = "URIDXv1\n"

// refUnmarshal is index.Unmarshal as it was before runs held typed keys.
// One thing is added: a count larger than the whole input is refused
// before it sizes an allocation, which the reference would otherwise do
// and die of. Such a count can never be met, as every bloom filter,
// word and entry takes at least a byte, so the reference refuses the
// same inputs as before.
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
	r.locs = make([]index.Loc, n)
	for i := 0; i < n; i++ {
		if r.keys[i], err = c.value(); err != nil {
			return nil, err
		}
		seg, err := c.count(1 << 31)
		if err != nil {
			return nil, err
		}
		row, err := c.count(1 << 31)
		if err != nil {
			return nil, err
		}
		r.locs[i] = index.Loc{Seg: int32(seg), Row: int32(row)}
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
		b = binary.AppendUvarint(b, uint64(r.locs[i].Seg))
		b = binary.AppendUvarint(b, uint64(r.locs[i].Row))
	}
	crc := crc32.ChecksumIEEE(b)
	return binary.LittleEndian.AppendUint32(b, crc)
}

type refCursor struct {
	b   []byte
	pos int
}

func (c *refCursor) count(max uint64) (int, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", c.pos)
	}
	if v > max {
		return 0, fmt.Errorf("count %d exceeds bound %d", v, max)
	}
	c.pos += n
	return int(v), nil
}

// size is count for a count that sizes an allocation, with the guard
// refUnmarshal's comment describes.
func (c *refCursor) size(max uint64) (int, error) {
	if v, _ := binary.Uvarint(c.b[c.pos:]); v > uint64(len(c.b)) {
		return 0, fmt.Errorf("count %d exceeds the input", v)
	}
	return c.count(max)
}

func (c *refCursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *refCursor) fixed64() (uint64, error) {
	if c.pos+8 > len(c.b) {
		return 0, fmt.Errorf("truncated at offset %d", c.pos)
	}
	v := binary.LittleEndian.Uint64(c.b[c.pos:])
	c.pos += 8
	return v, nil
}

func (c *refCursor) value() (engine.Value, error) {
	if c.pos >= len(c.b) {
		return engine.Null(), fmt.Errorf("truncated key at offset %d", c.pos)
	}
	k := engine.Kind(c.b[c.pos])
	c.pos++
	switch k {
	case engine.KindNull:
		return engine.Null(), nil
	case engine.KindInt:
		i, err := c.varint()
		return engine.Int(i), err
	case engine.KindBool:
		i, err := c.varint()
		return engine.Bool(i != 0), err
	case engine.KindFloat:
		bits, err := c.fixed64()
		return engine.Float(math.Float64frombits(bits)), err
	case engine.KindString:
		n, err := c.count(uint64(len(c.b)))
		if err != nil {
			return engine.Null(), err
		}
		if c.pos+n > len(c.b) {
			return engine.Null(), fmt.Errorf("truncated string key at offset %d", c.pos)
		}
		s := string(c.b[c.pos : c.pos+n])
		c.pos += n
		return engine.Str(s), nil
	default:
		return engine.Null(), fmt.Errorf("unknown key kind %d", k)
	}
}
