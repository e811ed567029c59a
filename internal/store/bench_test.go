package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/tpch"
)

// benchScanRows builds a 3-attribute partition (int, float, string).
func benchScanRows(n int) []core.URow {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	rows := make([]core.URow, n)
	for i := range rows {
		rows[i] = core.URow{TID: int64(i), Vals: []engine.Value{
			engine.Int(int64(i)),
			engine.Float(float64(i) * 0.5),
			engine.Str(words[i%len(words)]),
		}}
	}
	return rows
}

func benchScanSchema() engine.Schema {
	return engine.NewSchema(
		engine.Column{Name: "tid:r.p0", Kind: engine.KindInt},
		engine.Column{Name: "r.a", Kind: engine.KindInt},
		engine.Column{Name: "r.b", Kind: engine.KindFloat},
		engine.Column{Name: "r.c", Kind: engine.KindString},
	)
}

// BenchmarkStoreScan compares a cold segment-file scan against the
// equivalent in-memory relation scan, plus the pruned cold scan under
// a selective range predicate — the numbers recorded in CHANGES.md.
func BenchmarkStoreScan(b *testing.B) {
	b.ReportAllocs()
	const n = 200000
	rows := benchScanRows(n)
	path := filepath.Join(b.TempDir(), "bench.useg")
	if _, err := WritePartition(path, rows, 3, DefaultSegmentRows); err != nil {
		b.Fatal(err)
	}
	h, err := OpenPart(path)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	sch := benchScanSchema()
	attrIdx := []int{0, 1, 2}

	mem := engine.NewRelation(sch)
	for _, r := range rows {
		mem.Append(engine.Tuple{engine.Int(r.TID), r.Vals[0], r.Vals[1], r.Vals[2]})
	}

	b.Run(fmt.Sprintf("cold-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := &StoreScanIter{Src: srcOf(h), Sch: sch, Width: 0, AttrIdx: attrIdx}
			rel, err := engine.Drain(it)
			if err != nil || rel.Len() != n {
				b.Fatalf("scan: %d rows, err %v", rel.Len(), err)
			}
		}
	})
	b.Run(fmt.Sprintf("memory-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel, err := engine.Drain(engine.NewScan(mem))
			if err != nil || rel.Len() != n {
				b.Fatalf("scan: %d rows, err %v", rel.Len(), err)
			}
		}
	})
	// A 5%-selective range predicate: pruning skips ~95% of segments.
	cond := engine.Cmp(engine.GE, engine.Col("r.a"), engine.ConstInt(n-n/20))
	b.Run(fmt.Sprintf("cold-pruned-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan := &StoreScanPlan{Src: srcOf(h), Sch: sch, Width: 0, AttrIdx: attrIdx, Name: "bench"}
			it, err := engine.Build(engine.Filter(plan, cond), engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rel, err := engine.Drain(it)
			if err != nil || rel.Len() != n/20 {
				b.Fatalf("scan: %d rows, err %v", rel.Len(), err)
			}
		}
	})
	b.Run(fmt.Sprintf("memory-filter-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel, err := engine.Drain(engine.NewFilter(engine.NewScan(mem), cond))
			if err != nil || rel.Len() != n/20 {
				b.Fatalf("scan: %d rows, err %v", rel.Len(), err)
			}
		}
	})
}

// BenchmarkSaveOpen measures snapshotting and reopening a partition.
func BenchmarkSaveOpen(b *testing.B) {
	b.ReportAllocs()
	const n = 100000
	rows := benchScanRows(n)
	dir := b.TempDir()
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := WritePartition(filepath.Join(dir, "s.useg"), rows, 3, DefaultSegmentRows); err != nil {
				b.Fatal(err)
			}
		}
	})
	if _, err := WritePartition(filepath.Join(dir, "s.useg"), rows, 3, DefaultSegmentRows); err != nil {
		b.Fatal(err)
	}
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := OpenPart(filepath.Join(dir, "s.useg"))
			if err != nil {
				b.Fatal(err)
			}
			h.Close()
		}
	})
}

// savedTPCH saves TPC-H data at the given scale, with the uncertainty
// of the stored benchmarks (x 0.01, z 0.25, seed 1), into a fresh
// directory and builds the run of lineitem's l_orderkey beside its
// partition file, which it returns with the directory.
func savedTPCH(tb testing.TB, scale float64) (dir, run string) {
	tb.Helper()
	p := tpch.DefaultParams(scale, 0.01, 0.25)
	p.Seed = 1
	db, _, err := tpch.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	dir = tb.TempDir()
	if err := Save(db, dir); err != nil {
		tb.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, mr := range m.Relations {
		for _, mp := range mr.Parts {
			for ai, a := range mp.Attrs {
				if a != "l_orderkey" {
					continue
				}
				h, err := OpenPart(filepath.Join(dir, mp.File))
				if err != nil {
					tb.Fatal(err)
				}
				defer h.Close()
				if err := BuildLayerIndex(h, ai); err != nil {
					tb.Fatal(err)
				}
				return dir, IdxFileName(h.Path(), IdxKeyAttr(ai))
			}
		}
	}
	tb.Fatal("no l_orderkey partition")
	return "", ""
}

// BenchmarkSegmentDecode decodes every segment of the s 0.25 lineitem
// partitions from its payload; MB/s is payload bytes decoded per second.
func BenchmarkSegmentDecode(b *testing.B) {
	dir, _ := savedTPCH(b, 0.25)
	m, err := ReadManifest(dir)
	if err != nil {
		b.Fatal(err)
	}
	type payload struct {
		data  []byte
		sm    segMeta
		width int
		kinds []byte
	}
	var payloads []payload
	var size int64
	for _, mr := range m.Relations {
		if mr.Name != "lineitem" {
			continue
		}
		for _, mp := range mr.Parts {
			h, err := OpenPart(filepath.Join(dir, mp.File))
			if err != nil {
				b.Fatal(err)
			}
			for _, sm := range h.meta.Segs {
				data := make([]byte, sm.Len)
				if _, err := h.src.ReadAt(data, sm.Off); err != nil {
					b.Fatal(err)
				}
				payloads = append(payloads, payload{data, sm, h.meta.Width, h.meta.Kinds})
				size += int64(sm.Len)
			}
			h.Close()
		}
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			if _, err := decodeSegment(p.data, &p.sm, p.width, p.kinds, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunLoad reads and decodes the l_orderkey run of the s 0.25
// lineitem partition, as the first point lookup of a cold open does.
func BenchmarkRunLoad(b *testing.B) {
	_, run := savedTPCH(b, 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readFile(run, decodeRun); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen opens and closes the saved s 0.25 directory without a
// segment cache: the manifest, the world table of 1 091 variables and
// every partition's footer.
func BenchmarkOpen(b *testing.B) {
	dir, _ := savedTPCH(b, 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkParseManifest decodes the manifest of the saved s 0.25
// directory, as every cold open does after reading it.
func BenchmarkParseManifest(b *testing.B) {
	dir, _ := savedTPCH(b, 0.25)
	buf, err := os.ReadFile(filepath.Join(dir, CatalogName))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseManifest(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadWorldTable reads and decodes the world table of the
// saved s 0.25 directory, 1 091 variables, as every cold open does.
func BenchmarkReadWorldTable(b *testing.B) {
	dir, _ := savedTPCH(b, 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadWorldTable(dir); err != nil {
			b.Fatal(err)
		}
	}
}
