package store

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
)

// trackingReader records every byte range read through it.
type trackingReader struct {
	r  *bytes.Reader
	mu sync.Mutex
	rd [][2]int64 // (offset, length)
}

func (t *trackingReader) ReadAt(p []byte, off int64) (int, error) {
	t.mu.Lock()
	t.rd = append(t.rd, [2]int64{off, int64(len(p))})
	t.mu.Unlock()
	return t.r.ReadAt(p, off)
}

func (t *trackingReader) reset() {
	t.mu.Lock()
	t.rd = nil
	t.mu.Unlock()
}

func (t *trackingReader) reads() [][2]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][2]int64(nil), t.rd...)
}

// sortedPartition writes 1000 rows with attribute a = row index, 100
// rows per segment, so segment i covers exactly [100i, 100i+99].
func sortedPartition(t *testing.T) (*trackingReader, *PartHandle) {
	t.Helper()
	rows := make([]core.URow, 1000)
	for i := range rows {
		rows[i] = core.URow{TID: int64(i), Vals: []engine.Value{engine.Int(int64(i))}}
	}
	path := t.TempDir() + "/sorted.useg"
	if _, err := WritePartition(path, rows, 1, 100); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trackingReader{r: bytes.NewReader(buf)}
	h, err := NewPartHandle(tr, int64(len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	return tr, h
}

// scanSchema mirrors core's encodePartition layout for a
// zero-descriptor-width, one-attribute partition.
func scanSchema() engine.Schema {
	return engine.NewSchema(
		engine.Column{Name: "tid:r.p0", Kind: engine.KindInt},
		engine.Column{Name: "r.a", Kind: engine.KindInt},
	)
}

// srcOf wraps a single handle as a one-layer partition source.
func srcOf(h *PartHandle) *PartSource { return &PartSource{Layers: []*PartHandle{h}} }

// TestPruningNeverReadsPrunedSegments is the proof demanded by the
// acceptance criteria: after a predicate prunes segments, the byte
// ranges of those segments are never read — verified by intercepting
// every ReadAt against the segment directory.
func TestPruningNeverReadsPrunedSegments(t *testing.T) {
	tr, h := sortedPartition(t)
	plan := &StoreScanPlan{Src: srcOf(h), Sch: scanSchema(), Width: 0, AttrIdx: []int{0}, Name: "u_r_a"}
	cond := engine.And(
		engine.Cmp(engine.GE, engine.Col("r.a"), engine.ConstInt(250)),
		engine.Cmp(engine.LT, engine.Col("r.a"), engine.ConstInt(350)),
	)
	fp := engine.Filter(plan, cond)

	tr.reset()
	it, err := engine.Build(fp, engine.NewCatalog(), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := engine.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 100 {
		t.Fatalf("filter result: %d rows, want 100", rel.Len())
	}

	// Pruning state: segments 2 and 3 survive, 8 pruned.
	if got := numPruned(plan.pruned); got != 8 {
		t.Fatalf("pruned %d segments, want 8", got)
	}
	if est := plan.EstimateRowCount(); est != 200 {
		t.Fatalf("EstimateRowCount = %g, want 200", est)
	}
	if lbl := plan.Label(); !strings.Contains(lbl, "2/10 segments") {
		t.Fatalf("Label = %q, want pruning summary 2/10", lbl)
	}

	// The proof: no read may overlap a pruned segment's byte range.
	for _, rd := range tr.reads() {
		rdEnd := rd[0] + rd[1]
		for i, seg := range h.meta.Segs {
			if i == 2 || i == 3 {
				continue
			}
			segEnd := seg.Off + int64(seg.Len)
			if rd[0] < segEnd && seg.Off < rdEnd {
				t.Fatalf("read [%d, %d) overlaps pruned segment %d [%d, %d)",
					rd[0], rdEnd, i, seg.Off, segEnd)
			}
		}
	}
	// And the surviving segments were actually read.
	readSeg := func(i int) bool {
		for _, rd := range tr.reads() {
			if rd[0] == h.meta.Segs[i].Off && rd[1] == int64(h.meta.Segs[i].Len) {
				return true
			}
		}
		return false
	}
	if !readSeg(2) || !readSeg(3) {
		t.Fatal("surviving segments were not read")
	}
}

// TestPruningSafety cross-checks every comparison operator against a
// full scan: pruning must never change the result.
func TestPruningSafety(t *testing.T) {
	_, h := sortedPartition(t)
	mk := func() *StoreScanPlan {
		return &StoreScanPlan{Src: srcOf(h), Sch: scanSchema(), Width: 0, AttrIdx: []int{0}, Name: "u_r_a"}
	}
	for _, op := range []engine.CmpOp{engine.EQ, engine.NE, engine.LT, engine.LE, engine.GT, engine.GE} {
		for _, c := range []int64{-5, 0, 99, 100, 250, 999, 1000, 2000} {
			cond := engine.Cmp(op, engine.Col("r.a"), engine.ConstInt(c))

			pruned := mk()
			it, err := engine.Build(engine.Filter(pruned, cond), engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.Drain(it)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: same filter, advice suppressed (scan everything).
			plain := mk()
			fit, err := plain.BuildIter(engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			wit := engine.NewFilter(fit, cond)
			want, err := engine.Drain(wit)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualAsBag(want) {
				t.Fatalf("op %v const %d: pruned scan returned %d rows, full scan %d",
					op, c, got.Len(), want.Len())
			}
		}
	}
}

// TestAdviseFilterPrunesDisjunctions: under an OR conjunct a segment is
// pruned when every arm is refuted, each by a column-vs-constant
// conjunct of its own or a nested OR of refuted arms; an arm that no
// zone map can refute keeps every segment. The partition is
// sortedPartition's with segment 4 made NULL-only, which every
// comparison refutes. Each answer equals the unadvised scan's.
func TestAdviseFilterPrunesDisjunctions(t *testing.T) {
	rows := make([]core.URow, 1000)
	for i := range rows {
		v := engine.Int(int64(i))
		if i/100 == 4 {
			v = engine.Null()
		}
		rows[i] = core.URow{TID: int64(i), Vals: []engine.Value{v}}
	}
	path := t.TempDir() + "/nulls.useg"
	if _, err := WritePartition(path, rows, 1, 100); err != nil {
		t.Fatal(err)
	}
	h, err := OpenPart(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	a := engine.Col("r.a")
	cmp := func(op engine.CmpOp, c int64) engine.Expr { return engine.Cmp(op, a, engine.ConstInt(c)) }
	between := func(lo, hi int64) engine.Expr { return engine.And(cmp(engine.GE, lo), cmp(engine.LE, hi)) }
	or := func(arms ...engine.Expr) engine.Expr { return &engine.LogicExpr{Op: engine.OrOp, Args: arms} }
	for _, c := range []struct {
		name string
		cond engine.Expr
		kept []int // the segments left unpruned
	}{
		{"each arm refuted", or(between(150, 180), between(720, 730)), []int{1, 7}},
		{"one arm not refuted", or(between(150, 180), cmp(engine.GE, 0)), []int{0, 1, 2, 3, 5, 6, 7, 8, 9}},
		{"arm without a prunable conjunct", or(between(150, 180), engine.Cmp(engine.EQ, a, engine.Col("tid:r.p0"))), nil},
		{"arm of a negation", or(cmp(engine.LT, 50), engine.Not(cmp(engine.LT, 900))), nil},
		{"NULL-only segment", or(cmp(engine.LT, 450), cmp(engine.GT, 420)), []int{0, 1, 2, 3, 5, 6, 7, 8, 9}},
		{"OR beside a conjunct", engine.And(cmp(engine.LT, 600), or(cmp(engine.LT, 120), cmp(engine.GT, 550))), []int{0, 1, 5}},
		{"nested OR", or(engine.And(cmp(engine.GE, 100), or(cmp(engine.LT, 120), cmp(engine.GT, 950))), cmp(engine.EQ, 555)), []int{1, 5, 9}},
		{"OR as an arm", or(or(cmp(engine.EQ, 5), cmp(engine.EQ, 305)), cmp(engine.EQ, 999)), []int{0, 3, 9}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan := &StoreScanPlan{Src: srcOf(h), Sch: scanSchema(), Width: 0, AttrIdx: []int{0}, Name: "u_r_a"}
			it, err := engine.Build(engine.Filter(plan, c.cond), engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			if c.kept == nil {
				if plan.pruned != nil {
					t.Fatalf("%s pruned %v", c.cond, plan.pruned)
				}
			} else {
				var kept []int
				for i, sk := range plan.pruned[0] {
					if !sk {
						kept = append(kept, i)
					}
				}
				if fmt.Sprint(kept) != fmt.Sprint(c.kept) {
					t.Fatalf("%s kept segments %v, want %v", c.cond, kept, c.kept)
				}
			}

			fit, err := (&StoreScanPlan{Src: srcOf(h), Sch: scanSchema(), Width: 0, AttrIdx: []int{0}, Name: "u_r_a"}).BuildIter(engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.Drain(engine.NewFilter(fit, c.cond))
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualAsBag(want) {
				t.Fatalf("%s: the pruned scan returned %d rows, the full scan %d", c.cond, got.Len(), want.Len())
			}
		})
	}
}

// TestPruningThroughQueryPipeline checks that a selection written at
// the query-algebra level reaches the store scan through translation
// and the optimizer, prunes segments, and still returns exactly the
// in-memory answer.
func TestPruningThroughQueryPipeline(t *testing.T) {
	mem := core.NewUDB()
	mem.MustAddRelation("r", "a", "b")
	u := mem.MustAddPartition("r", "u_r", "a", "b")
	for i := 0; i < 1000; i++ {
		u.Add(nil, int64(i), engine.Int(int64(i)), engine.Str(fmt.Sprintf("s%d", i%7)))
	}
	dir := t.TempDir()
	if err := Save(mem, dir); err != nil {
		t.Fatal(err)
	}
	stored, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()

	// DefaultSegmentRows is 4096 > 1000, so re-save the partition with
	// small segments to give pruning resolution.
	rows, err := stored.Rels["r"].Parts[0].Back.Load()
	if err != nil {
		t.Fatal(err)
	}
	small := dir + "/small.useg"
	if _, err := WritePartition(small, rows, 2, 50); err != nil {
		t.Fatal(err)
	}
	h, err := OpenPart(small)
	if err != nil {
		t.Fatal(err)
	}
	stored.Rels["r"].Parts[0].Back.(*PartSource).Close()
	stored.Rels["r"].Parts[0].Back = srcOf(h)

	inner := core.Select(core.Rel("r"),
		engine.Cmp(engine.LT, engine.Col("a"), engine.ConstInt(120)))
	plan, _, err := stored.Translate(inner)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	opt, err := engine.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	it, err := engine.Build(opt, cat, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Drain(it)
	if err != nil {
		t.Fatal(err)
	}

	// The scan leaf must have pruned: 1000 rows / 50 = 20 segments, and
	// a < 120 keeps only the first three.
	var leaf *StoreScanPlan
	var walk func(engine.Plan)
	walk = func(p engine.Plan) {
		if sp, ok := p.(*StoreScanPlan); ok {
			leaf = sp
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(opt)
	if leaf == nil {
		t.Fatal("no StoreScanPlan in the optimized plan")
	}
	if numPruned(leaf.pruned) != 17 {
		t.Fatalf("pruned %d segments, want 17 (label %q)", numPruned(leaf.pruned), leaf.Label())
	}

	memPlan, _, err := mem.Translate(inner)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(memPlan, engine.NewCatalog(), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsBag(want) {
		t.Fatalf("pruned pipeline result differs: %d vs %d rows", got.Len(), want.Len())
	}
}
