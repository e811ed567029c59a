package txn

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
	"urel/internal/tpch"
)

// readCounter counts the ReadAt calls made on each partition file.
type readCounter struct {
	mu    sync.Mutex
	calls map[string]*atomic.Int64
}

func (c *readCounter) intercept(path string, src io.ReaderAt) io.ReaderAt {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.calls[filepath.Base(path)]
	if n == nil {
		n = new(atomic.Int64)
		c.calls[filepath.Base(path)] = n
	}
	return countingReaderAt{src, n}
}

func (c *readCounter) reads(file string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.calls[file]; n != nil {
		return n.Load()
	}
	return 0
}

type countingReaderAt struct {
	io.ReaderAt
	n *atomic.Int64
}

func (r countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.n.Add(1)
	return r.ReaderAt.ReadAt(p, off)
}

// partFiles lists, per partition of rel, its manifest files.
func partFiles(d *DB, rel string) []string {
	var out []string
	for _, mr := range d.man.Relations {
		if mr.Name != rel {
			continue
		}
		for _, mp := range mr.Parts {
			out = append(out, fmt.Sprint(append([]string{mp.File}, deltaFiles(mp)...)))
		}
	}
	return out
}

// TestCompactRewritesOnlyDirtyPartitions: a compaction after DML on
// partsupp rewrites partsupp's partitions and nothing else. Lineitem
// and orders keep their files and handles, and a warm scan of them
// reads nothing from disk, so their decoded segments stayed cached. A
// partition whose base carries a corrupt run, or a run a lookup found
// stale, is rewritten too, and the rewrite heals it: a lookup meets
// lineitem's stale l_orderkey run only where the zone maps leave two
// segments (an order straddling a boundary), and one they narrow to a
// segment consults no run and records nothing. A crash after the
// compactions reopens to the same answers as a reference that applied
// the same statements. (A replica bootstrapping after such a
// compaction is TestReplicaBootstrapAfterPartialCompaction in
// internal/server.)
func TestCompactRewritesOnlyDirtyPartitions(t *testing.T) {
	p := tpch.DefaultParams(0.15, 0.01, 0.25) // lineitem's partitions span segments
	p.Seed = 1
	base, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	refUDB := base.Clone()
	app, err := NewApplier(refUDB)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refDB{db: refUDB, app: app}
	dir := t.TempDir()
	if err := store.Save(base, dir); err != nil {
		t.Fatal(err)
	}
	counter := &readCounter{calls: map[string]*atomic.Int64{}}
	defer store.SetPartOpenInterceptor(counter.intercept)()
	opts := Options{DisableAutoFlush: true, Cache: store.NewSegCache(256 << 20)}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	if _, err := d.Exec("create index on lineitem(l_orderkey)"); err != nil {
		t.Fatal(err)
	}

	same := func(when string) {
		t.Helper()
		if msg, ok := equalDump(dump(t, d.Snapshot()), dump(t, ref.db)); !ok {
			t.Fatalf("%s: store and reference diverged: %s", when, msg)
		}
	}
	scanned := []string{"lineitem", "orders"}
	warm := func() {
		t.Helper()
		for _, rel := range scanned {
			if got, want := possRows(t, d.Snapshot(), core.Rel(rel)), possRows(t, ref.db, core.Rel(rel)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("poss(%s): %d answers over the store, %d over the reference", rel, len(got), len(want))
			}
		}
	}
	warm()
	files := map[string][]string{}
	handles := map[partKey]*store.PartHandle{}
	for _, rel := range scanned {
		files[rel] = partFiles(d, rel)
		for pk, ls := range d.layers {
			if pk.rel == rel {
				handles[pk] = ls[0]
			}
		}
	}
	psFiles := partFiles(d, "partsupp")

	exec(t, d, ref, "insert into partsupp (ps_partkey, ps_suppkey, ps_availqty, ps_supplycost) values (9001, 1, 5, 10.5), (9002, 2, 6, 11.5), (9003, 3, 7, 12.5)")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	exec(t, d, ref, "update partsupp set ps_supplycost = 99.5 where ps_partkey between 9001 and 9002")
	exec(t, d, ref, "delete from partsupp where ps_partkey = 9003 or ps_partkey = 3")
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	same("after compaction")
	if got, want := d.Stats().PartitionsRewritten, uint64(len(psFiles)); got != want {
		t.Fatalf("compaction rewrote %d partitions, want partsupp's %d", got, want)
	}
	for i, f := range partFiles(d, "partsupp") {
		if f == psFiles[i] {
			t.Fatalf("partsupp partition %d kept %s through a compaction after DML on it", i, f)
		}
	}
	for _, rel := range scanned {
		if got := partFiles(d, rel); fmt.Sprint(got) != fmt.Sprint(files[rel]) {
			t.Fatalf("%s's files went %v → %v", rel, files[rel], got)
		}
	}
	for pk, h := range handles {
		if ls := d.layers[pk]; len(ls) != 1 || ls[0] != h {
			t.Fatalf("%s/%d: the compaction replaced a clean partition's handle", pk.rel, pk.idx)
		}
	}
	before := map[string]int64{}
	for pk, h := range handles {
		before[pk.rel+fmt.Sprint(pk.idx)] = counter.reads(filepath.Base(h.Path()))
	}
	warm()
	for pk, h := range handles {
		if n := counter.reads(filepath.Base(h.Path())) - before[pk.rel+fmt.Sprint(pk.idx)]; n != 0 {
			t.Fatalf("a warm scan of %s/%d read %s %d times after the compaction: its cached segments were dropped", pk.rel, pk.idx, h.Path(), n)
		}
	}

	// Corrupt the declared run of orders' first partition, leave a
	// garbage tuple-id run — a file older versions wrote, read by no one —
	// beside each of the others, and make lineitem's declared run point at
	// the wrong rows.
	if _, err := d.Exec("create index on orders(o_orderkey)"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ords := d.man.Relations[relIndex(d, "orders")].Parts
	ordFile, ordKey := ords[0].File, store.IdxKeyAttr(slices.Index(ords[0].Attrs, "o_orderkey"))
	for _, mp := range ords[1:] {
		if err := os.WriteFile(filepath.Join(dir, store.IdxFileName(mp.File, "t")), []byte("not a run"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, store.IdxFileName(ordFile, ordKey)), []byte("not a run"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	li := partKey{"lineitem", -1}
	var ai int
	for pi, mp := range d.man.Relations[relIndex(d, "lineitem")].Parts {
		for j, a := range mp.Attrs {
			if a == "l_orderkey" {
				li.idx, ai = pi, j
			}
		}
	}
	liFile := filepath.Base(d.layers[li][0].Path())
	rows, err := (&store.PartSource{Layers: d.layers[li]}).Load()
	if err != nil {
		t.Fatal(err)
	}
	straddle := int64(-1) // l_orderkey ascends with the tuple ids
	for i := store.DefaultSegmentRows; i < len(rows) && straddle < 0; i += store.DefaultSegmentRows {
		if k := rows[i].Vals[ai].I; k == rows[i-1].Vals[ai].I {
			straddle = k
		}
	}
	if straddle < 0 {
		t.Fatal("no order straddles a segment boundary of lineitem's l_orderkey")
	}
	for i := range rows {
		rows[i].Vals = append([]engine.Value(nil), rows[i].Vals...)
		rows[i].Vals[ai] = engine.Int(rows[i].Vals[ai].I + 1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePartIndexes(dir, liFile, rows, []int{ai}, store.DefaultSegmentRows); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	lookup := core.Select(core.Rel("lineitem"), engine.Eq(engine.Col("l_orderkey"), engine.ConstInt(7)))
	if got, want := possRows(t, d.Snapshot(), lookup), possRows(t, ref.db, lookup); len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("point lookup in one segment: %v, want %v", got, want)
	}
	if !d.layers[li][0].RunsSound([]int{ai}) {
		t.Fatal("a lookup the zone maps narrowed to one segment consulted the run")
	}
	lookup = core.Select(core.Rel("lineitem"), engine.Eq(engine.Col("l_orderkey"), engine.ConstInt(straddle)))
	if got, want := possRows(t, d.Snapshot(), lookup), possRows(t, ref.db, lookup); len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("point lookup over a stale run: %v, want %v", got, want)
	}
	if d.layers[li][0].RunsSound([]int{ai}) {
		t.Fatal("the lookup that met the stale run did not record it")
	}
	ordOthers := partFiles(d, "orders")[1:]
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	same("after the compaction of the corrupt runs")
	if got := d.Stats().PartitionsRewritten; got != 2 {
		t.Fatalf("the compaction rewrote %d partitions, want the two with a bad run", got)
	}
	if ord := partFiles(d, "orders"); ord[0] == fmt.Sprint([]string{ordFile}) || fmt.Sprint(ord[1:]) != fmt.Sprint(ordOthers) {
		t.Fatalf("orders' files: %v (its first partition had a corrupt run, the rest a leftover tuple-id run)", ord)
	}
	if h := d.layers[li][0]; filepath.Base(h.Path()) == liFile || !h.RunsSound([]int{ai}) {
		t.Fatalf("lineitem's stale run was not rewritten: %s", h.Path())
	}

	d.closeForCrashTest()
	if d, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	same("after a crash")
	if got, want := possRows(t, d.Snapshot(), lookup), possRows(t, ref.db, lookup); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("point lookup after the crash: %v, want %v", got, want)
	}
}

func relIndex(d *DB, rel string) int {
	for i, mr := range d.man.Relations {
		if mr.Name == rel {
			return i
		}
	}
	return -1
}
