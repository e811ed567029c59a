package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/tpch"
)

// writeV1Partition writes rows as a URSEGv1 file, in the order given and
// segRows to a segment, as the writer before tid order and tid bounds
// did. It returns the padded descriptor width.
func writeV1Partition(t testing.TB, path string, rows []core.URow, nattrs, segRows int) int {
	t.Helper()
	width := 0
	for _, r := range rows {
		width = max(width, len(r.D))
	}
	kinds := deriveKinds(rows, nattrs)
	b := []byte(fileMagicV1)
	m := &fileMeta{Width: width, Kinds: kinds}
	for start := 0; start < len(rows); start += segRows {
		off := len(b)
		var sm segMeta
		b, sm = encodeSegment(b, rowSeq{rows: rows[start:min(start+segRows, len(rows))]}, width, kinds)
		sm.Off, sm.Len, sm.CRC = int64(off), len(b)-off, crc32.ChecksumIEEE(b[off:])
		m.Segs = append(m.Segs, sm)
		m.Rows += sm.Rows
	}
	footerOff := len(b)
	b = appendV1Footer(b, m)
	b = appendFixed64(b, uint64(footerOff))
	b = append(b, tailMagic...)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return width
}

// appendV1Footer is appendFooter as it was before URSEGv2: no tid bounds.
func appendV1Footer(b []byte, m *fileMeta) []byte {
	b = appendUint(b, uint64(m.Width))
	b = appendUint(b, uint64(len(m.Kinds)))
	b = append(b, m.Kinds...)
	b = appendUint(b, uint64(len(m.Segs)))
	for _, s := range m.Segs {
		b = appendUint(b, uint64(s.Off))
		b = appendUint(b, uint64(s.Len))
		b = appendFixed32(b, s.CRC)
		b = appendUint(b, uint64(s.Rows))
		for _, cs := range s.Stats {
			b = appendUint(b, uint64(cs.NonNull))
			if cs.NonNull > 0 {
				b = appendValue(b, cs.Min)
				b = appendValue(b, cs.Max)
			}
		}
	}
	return b
}

// saveV1 saves db into dir as the writer before URSEGv2 left a
// directory: a FormatVersion-2 manifest over URSEGv1 files holding each
// partition's rows in the database's order, segRows to a segment, with
// lineitem(l_orderkey) declared and its run built.
func saveV1(t *testing.T, db *core.UDB, dir string, segRows int) {
	t.Helper()
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Version = 2
	for ri := range m.Relations {
		mr := &m.Relations[ri]
		for pi, mp := range mr.Parts {
			p := db.Rels[mr.Name].Parts[pi]
			writeV1Partition(t, filepath.Join(dir, mp.File), p.Rows, len(p.Attrs), segRows)
		}
		if mr.Name == "lineitem" {
			mr.Indexes = []string{"l_orderkey"}
		}
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	buildOrderKeyRun(t, dir)
}

// buildOrderKeyRun builds the run of l_orderkey beside its partition
// file in dir.
func buildOrderKeyRun(t *testing.T, dir string) {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range m.Relations {
		for _, mp := range mr.Parts {
			for ai, a := range mp.Attrs {
				if a != "l_orderkey" {
					continue
				}
				h, err := OpenPart(filepath.Join(dir, mp.File))
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				if err := BuildLayerIndex(h, ai); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Fatal("no l_orderkey partition")
}

// pointLookup is the stored workloads' point class: two attributes of
// the lineitems of one order, found through the l_orderkey index.
func pointLookup(key int64) core.Query {
	return core.Poss(core.Project(core.Select(core.Rel("lineitem"),
		engine.Eq(engine.Col("l_orderkey"), engine.ConstInt(key))), "l_extendedprice", "l_quantity"))
}

// skippedByJoin sums segments_skipped_by_join over a span tree.
func skippedByJoin(s *obs.Span) int64 {
	n := s.Stat("segments_skipped_by_join")
	for _, c := range s.Children() {
		n += skippedByJoin(c)
	}
	return n
}

// TestV1DirectoryOpens: a directory as the writer before URSEGv2 left
// it — a FormatVersion-2 manifest over URSEGv1 files whose rows are in
// generation order, uncertain alternatives last — opens and answers Q1,
// Q2 and point lookups as the database it was saved from does, and as
// the same database saved in the current format does. Its point lookups
// read every segment of the partitions a join narrows, since a v1
// footer keeps no tid bounds, where the current format's skip all but
// the segments the order is in.
func TestV1DirectoryOpens(t *testing.T) {
	p := tpch.DefaultParams(0.1, 0.01, 0.25)
	p.Seed = 1
	mem, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	v1Dir, v2Dir := t.TempDir(), t.TempDir()
	saveV1(t, mem, v1Dir, 512)
	if err := Save(mem, v2Dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(v2Dir)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range m.Relations {
		if m.Relations[ri].Name == "lineitem" {
			m.Relations[ri].Indexes = []string{"l_orderkey"}
		}
	}
	if err := WriteManifest(v2Dir, m); err != nil {
		t.Fatal(err)
	}
	buildOrderKeyRun(t, v2Dir)

	v1, err := Open(v1Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	v2, err := Open(v2Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	li := v1.Rels["lineitem"].Parts[0].Back.(*PartSource).Layers[0]
	if li.NumSegments() < 4 {
		t.Fatalf("the v1 lineitem partition has %d segments; the test wants several", li.NumSegments())
	}

	queries := map[string]core.Query{"Q1": tpch.Q1(), "Q2": tpch.Q2()}
	for _, key := range []int64{1, 77, 1000, 1876, 3000} {
		queries[fmt.Sprintf("point %d", key)] = pointLookup(key)
	}
	var v2Skipped int64
	for name, q := range queries {
		want, err := mem.EvalPoss(q, engine.ExecConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range []struct {
			dir string
			db  *core.UDB
		}{{"v1", v1}, {"v2", v2}} {
			got, err := c.db.EvalPoss(q, engine.ExecConfig{})
			if err != nil {
				t.Fatalf("%s over %s: %v", name, c.dir, err)
			}
			if !got.EqualAsSet(want) {
				t.Errorf("%s over %s: %d answers, in memory %d", name, c.dir, got.Len(), want.Len())
			}
			if !strings.HasPrefix(name, "point") {
				continue
			}
			res, err := c.db.ExplainAnalyze(q, false, engine.ExecConfig{})
			if err != nil {
				t.Fatalf("%s over %s: %v", name, c.dir, err)
			}
			if c.dir == "v2" {
				v2Skipped += skippedByJoin(res.Trace)
				continue
			}
			// Every scan reads all its unpruned segments ("(a/b segments"
			// on its line), or none when the join above it has nothing to
			// build on.
			var check func(*obs.Span)
			check = func(s *obs.Span) {
				var unpruned, total int64
				if i := strings.Index(s.Op(), "("); strings.HasPrefix(s.Op(), "Store Scan") && i >= 0 {
					fmt.Sscanf(s.Op()[i:], "(%d/%d segments", &unpruned, &total)
					if read := s.Stat("segments_read"); read != 0 && read != unpruned {
						t.Errorf("%s over v1 files: %q read %d segments:\n%s", name, s.Op(), read, res.Text)
					}
				}
				for _, c := range s.Children() {
					check(c)
				}
			}
			check(res.Trace)
		}
	}
	if v2Skipped == 0 {
		t.Error("no point lookup over the current format skipped a segment: the comparison proves nothing")
	}
}
