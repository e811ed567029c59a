// Micro-benchmarks (ungated) for the measurements the gated benchmark in
// benchmark/ has no metric for: Algorithm 1 normalization, the two
// reductions, the optimizer ablation, the hash join over an indexed
// stored relation and on synthetic input, and the write path's tombstone
// filter and compaction. Run with:
//
//	go test -run=NONE -bench=. -benchmem
//
// Performance claims are made with `go run -C benchmark .`, not here;
// cmd/urbench regenerates the paper's figures.
package urel_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"urel/internal/bench"
	"urel/internal/bench/wsd"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/tpch"
	"urel/internal/txn"
	"urel/internal/ws"
)

// dbPool caches generated databases across benchmarks.
var dbPool sync.Map

func benchDB(b *testing.B, s, x, z float64) *core.UDB {
	b.Helper()
	key := fmt.Sprintf("%g/%g/%g", s, x, z)
	if v, ok := dbPool.Load(key); ok {
		return v.(*core.UDB)
	}
	db, _, err := tpch.Generate(tpch.DefaultParams(s, x, z))
	if err != nil {
		b.Fatal(err)
	}
	dbPool.Store(key, db)
	return db
}

// BenchmarkNormalize measures Algorithm 1 on query results of growing
// descriptor complexity.
func BenchmarkNormalize(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("chain_n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			res, err := wsd.ChainSelectResult(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := res.Normalize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlan times what a paper_mem op spends before its operators
// run: Translate and Optimize of the paper's Q1–Q3 on the lo and the hi
// dataset (s 0.05, x 0.01 and 0.1, z 0.25). The statistics the first
// plan over a partition takes are paid before the timer starts.
func BenchmarkPlan(b *testing.B) {
	for _, d := range []struct {
		name string
		x    float64
	}{{"lo", 0.01}, {"hi", 0.1}} {
		db := benchDB(b, 0.05, d.x, 0.25)
		for _, name := range []string{"Q1", "Q2", "Q3"} {
			q := tpch.Queries()[name]
			b.Run(name+"_"+d.name, func(b *testing.B) {
				b.ReportAllocs()
				plan := func() {
					p, _, err := db.Translate(q)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := engine.Optimize(p, engine.NewCatalog()); err != nil {
						b.Fatal(err)
					}
				}
				plan()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan()
				}
			})
		}
	}
}

// Ablation: merge placement / optimizer on-off (the paper's Figure 3
// P1-vs-P2/P3 discussion — the optimizer pushes selections below the
// merge joins).
func BenchmarkAblation_Optimizer(b *testing.B) {
	b.ReportAllocs()
	db := benchDB(b, 0.05, 0.01, 0.25)
	for _, cfg := range []struct {
		name string
		c    engine.ExecConfig
	}{
		{"optimized", engine.ExecConfig{}},
		{"naive-merge-first", engine.ExecConfig{DisableOptimizer: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			q := tpch.Queries()["Q2"]
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunQuery(db, "Q2", q, cfg.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinStrategy times the figures of docs/ARCHITECTURE.md
// ("Join strategies"): a 20 000-row stored inner side with an index on
// the join column, whose keys are uncorrelated with tid order, and an
// outer side of m rows, hash-joined — cold (no segment cache: the join
// decodes the inner side's segments its key list does not skip) and
// warm (segments stay decoded). Each case runs the join emitting the two answer columns, and
// again emitting three (/out=3): with -benchmem the B/op of the two
// differ by the one column, since the join gathers only its output.
//
// The chain/… cases join a selective side — the m keys 0…m-1 — to
// chain, a 20 000-row relation stored as two partitions (k and v) whose
// keys ascend with its tuple ids: served_mix's orders ⋈ lineitem shape.
// The join's key list reaches the merge of the two partitions, which
// reads only the segments and tid windows it covers.
//
// The warm/probe=… cases take the hash join alone, over the decoded
// inner side, pulled as the scan's column batches, at a build side
// holding 0.1 %, 10 % and all of the inner keys.
//
// The keyless/… cases take the hash join of a condition without an equi
// pair (benchKeyless): every pair of two 400-row relations is tried.
//
//	go test -run=NONE -bench=BenchmarkJoinStrategy -benchtime=15x -count=3 .
func BenchmarkJoinStrategy(b *testing.B) {
	benchKeyless(b)
	const n = 20000
	outers := []int{10, 20, 100, 1000, n/8 - 1}
	db := core.NewUDB()
	db.MustAddRelation("big", "k", "v")
	ub := db.MustAddPartition("big", "u_big", "k", "v")
	for i := 0; i < n; i++ {
		ub.Add(nil, int64(i+1), engine.Int(int64((i*2654435761)%n)), engine.Int(int64(i)))
	}
	for _, m := range outers {
		name := fmt.Sprintf("o%d", m)
		db.MustAddRelation(name, "k", "w")
		uo := db.MustAddPartition(name, "u_"+name, "k", "w")
		for i := 0; i < m; i++ {
			uo.Add(nil, int64(i+1), engine.Int(int64((i*37*2654435761)%n)), engine.Int(int64(i)))
		}
	}
	db.MustAddRelation("chain", "k", "v")
	ck, cv := db.MustAddPartition("chain", "u_chain_k", "k"), db.MustAddPartition("chain", "u_chain_v", "v")
	for i := 0; i < n; i++ {
		ck.Add(nil, int64(i+1), engine.Int(int64(i)))
		cv.Add(nil, int64(i+1), engine.Int(int64(i)))
	}
	selective := []int{10, 100, 1000}
	for _, m := range selective {
		name := fmt.Sprintf("s%d", m)
		db.MustAddRelation(name, "k", "w")
		us := db.MustAddPartition(name, "u_"+name, "k", "w")
		for i := 0; i < m; i++ {
			us.Add(nil, int64(i+1), engine.Int(int64(i)), engine.Int(int64(i)))
		}
	}
	dir := b.TempDir()
	if err := store.Save(db, dir); err != nil {
		b.Fatal(err)
	}
	d, err := txn.Open(dir, txn.Options{DisableAutoFlush: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Exec("create index on big(k)"); err != nil {
		b.Fatal(err)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		cache *store.SegCache
	}{{"cold", nil}, {"warm", store.NewSegCache(64 << 20)}} {
		d, err := txn.Open(dir, txn.Options{DisableAutoFlush: true, Cache: mode.cache})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range outers {
			join := core.Join(core.RelAs(fmt.Sprintf("o%d", m), "s"), core.RelAs("big", "b"),
				engine.Eq(engine.Col("s.k"), engine.Col("b.k")))
			for _, out := range []struct {
				name string
				q    core.Query
			}{{"", core.Project(join, "s.k", "b.v")}, {"/out=3", core.Project(join, "s.k", "s.w", "b.v")}} {
				b.Run(fmt.Sprintf("%s/m=%d%s", mode.name, m, out.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						rel, err := d.Snapshot().EvalPoss(out.q, engine.ExecConfig{})
						if err != nil {
							b.Fatal(err)
						}
						if rel.Len() != m {
							b.Fatalf("%d answers, want %d", rel.Len(), m)
						}
					}
				})
			}
		}
		for _, m := range selective {
			q := core.Project(core.Join(core.RelAs(fmt.Sprintf("s%d", m), "s"), core.RelAs("chain", "c"),
				engine.Eq(engine.Col("s.k"), engine.Col("c.k"))), "s.k", "c.v")
			b.Run(fmt.Sprintf("chain/%s/m=%d", mode.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rel, err := d.Snapshot().EvalPoss(q, engine.ExecConfig{})
					if err != nil {
						b.Fatal(err)
					}
					if rel.Len() != m {
						b.Fatalf("%d answers, want %d", rel.Len(), m)
					}
				}
			})
		}
		if mode.cache != nil {
			benchProbeCurrency(b, d.Snapshot(), n)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKeyless runs BenchmarkJoinStrategy's keyless/… cases: the hash
// join without an equi pair of two in-memory relations of 400 rows
// (k, v, w), v drawn from [0, 10 000) and w = v + 100, under a dense
// condition (l.v < r.v, about half the pairs) and a selective band
// (l.v <= r.v < l.w, about 1 %). Every pair lands on the one chain and
// is checked by the residual.
func benchKeyless(b *testing.B) {
	const n = 400
	rng := rand.New(rand.NewSource(1))
	rel := func(p string) *engine.Relation {
		r := engine.NewRelation(engine.NewSchema(engine.Column{Name: p + ".k", Kind: engine.KindInt},
			engine.Column{Name: p + ".v", Kind: engine.KindInt}, engine.Column{Name: p + ".w", Kind: engine.KindInt}))
		for i := 0; i < n; i++ {
			v := rng.Int63n(10000)
			r.Append(engine.Tuple{engine.Int(int64(i)), engine.Int(v), engine.Int(v + 100)})
		}
		return r
	}
	l, r := rel("l"), rel("r")
	for _, c := range []struct {
		name string
		cond engine.Expr
	}{
		{"dense", engine.Cmp(engine.LT, engine.Col("l.v"), engine.Col("r.v"))},
		{"selective", engine.And(engine.Cmp(engine.LE, engine.Col("l.v"), engine.Col("r.v")), engine.Cmp(engine.LT, engine.Col("r.v"), engine.Col("l.w")))},
	} {
		b.Run("keyless/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				rel, err := engine.Drain(engine.NewHashJoin(engine.NewScan(l), engine.NewScan(r), nil, c.cond, nil))
				if err != nil {
					b.Fatal(err)
				}
				rows = rel.Len()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// benchProbeCurrency runs BenchmarkJoinStrategy's probe=… cases: the
// serial hash join of an in-memory build side with the stored relation
// big (n rows, keys 0…n-1) as its probe side.
func benchProbeCurrency(b *testing.B, stored *core.UDB, n int) {
	inner, _, err := stored.Translate(core.RelAs("big", "b"))
	if err != nil {
		b.Fatal(err)
	}
	cat := engine.NewCatalog()
	for _, match := range []struct {
		name string
		m    int
	}{{"0.1%", n / 1000}, {"10%", n / 10}, {"100%", n}} {
		build := engine.NewRelation(engine.NewSchema(
			engine.Column{Name: "s.k", Kind: engine.KindInt}, engine.Column{Name: "s.w", Kind: engine.KindInt}))
		for i := 0; i < match.m; i++ {
			build.Append(engine.Tuple{engine.Int(int64((i * 37 * 2654435761) % n)), engine.Int(int64(i))})
		}
		b.Run("warm/probe=columnar/match="+match.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := engine.Build(inner, cat, engine.ExecConfig{})
				if err != nil {
					b.Fatal(err)
				}
				rel, err := engine.Drain(engine.NewHashJoin(engine.NewScan(build), r,
					[]engine.EquiPair{{L: "s.k", R: "b.k"}}, nil, []string{"s.k", "b.v"}))
				if err != nil {
					b.Fatal(err)
				}
				if rel.Len() != match.m {
					b.Fatalf("%d rows, want %d", rel.Len(), match.m)
				}
			}
		})
	}
}

// mergeChainKs are the partition counts of mergeChainData's relations.
var mergeChainKs = []int{2, 4, 7}

// mergeChainData builds relations m2, m4 and m7 of k vertical partitions
// each — 2 000 tuples, one attribute a<j> per partition, one field in
// five uncertain between two alternatives — in memory and saved and
// opened behind a segment cache.
func mergeChainData(tb testing.TB) (mem, stored *core.UDB) {
	tb.Helper()
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	db := core.NewUDB()
	for _, k := range mergeChainKs {
		rel := fmt.Sprintf("m%d", k)
		attrs := make([]string, k)
		parts := make([]*core.URelation, k)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		db.MustAddRelation(rel, attrs...)
		for j, a := range attrs {
			parts[j] = db.MustAddPartition(rel, "u_"+rel+"_"+a, a)
		}
		for tid := int64(1); tid <= n; tid++ {
			for _, u := range parts {
				if rng.Intn(5) > 0 {
					u.Add(nil, tid, engine.Int(rng.Int63n(100)))
					continue
				}
				x := db.W.NewBoolVar("")
				u.Add(ws.MustDescriptor(ws.A(x, 1)), tid, engine.Int(rng.Int63n(100)))
				u.Add(ws.MustDescriptor(ws.A(x, 2)), tid, engine.Int(rng.Int63n(100)))
			}
		}
	}
	dir := tb.TempDir()
	if err := store.Save(db, dir); err != nil {
		tb.Fatal(err)
	}
	stored, err := store.OpenCached(dir, store.NewSegCache(64<<20))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { stored.Close() })
	return db, stored
}

// BenchmarkMergeChain times the merge (Fig. 4) of one relation's k
// vertical partitions — the stitch a tuple-level statement runs — in
// memory and stored behind a segment cache, over mergeChainData. Beside
// B/op it reports cells/row, the cells the stitch gathered per output
// row: it gathers each output column once, from the input that owns
// it, so cells/row is the output width, 3k + 1, and both grow linearly
// in k. (The chain of binary tid hash joins the stitch replaced gathered
// 7, 28 and 73 cells per row for 2, 4 and 7 partitions.)
//
//	go test -run=NONE -bench=BenchmarkMergeChain -benchmem .
func BenchmarkMergeChain(b *testing.B) {
	db, stored := mergeChainData(b)
	ks := mergeChainKs
	cat := engine.NewCatalog()
	for _, side := range []struct {
		name string
		db   *core.UDB
	}{{"mem", db}, {"stored", stored}} {
		for _, k := range ks {
			b.Run(fmt.Sprintf("%s/parts=%d", side.name, k), func(b *testing.B) {
				plan, _, err := side.db.TranslateFull(core.Rel(fmt.Sprintf("m%d", k)))
				if err != nil {
					b.Fatal(err)
				}
				root := obs.NewSpan("merge")
				if _, err := engine.Run(plan, cat, engine.ExecConfig{Trace: root}); err != nil {
					b.Fatal(err) // also fills the segment cache and takes the statistics
				}
				var cells, rows int64
				var walk func(*obs.Span)
				walk = func(s *obs.Span) {
					cells += s.Stat("cells_gathered")
					for _, c := range s.Children() {
						walk(c)
					}
				}
				walk(root)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rel, err := engine.Run(plan, cat, engine.ExecConfig{})
					if err != nil {
						b.Fatal(err)
					}
					rows = int64(rel.Len())
				}
				b.ReportMetric(float64(cells)/float64(rows), "cells/row")
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// probedRows sums, over a span tree, the rows its hash joins probed and
// the rows its stitches read from the inputs their driver's tid range
// narrowed — every input but the driver.
func probedRows(s *obs.Span) int64 {
	n := s.Stat("probe_rows")
	if strings.HasPrefix(s.Op(), "Merge Join on tid") {
		n -= s.Stat("driver_rows")
		for _, c := range s.Children() {
			n += c.Rows()
		}
	}
	for _, c := range s.Children() {
		n += probedRows(c)
	}
	return n
}

// syntheticJoinInput builds a deterministic relation (k int, s string,
// v float) with n rows and keys distinct join keys, for controlled
// join measurements.
func syntheticJoinInput(n, keys int, prefix string, seed int64) *engine.Relation {
	r := rand.New(rand.NewSource(seed))
	rel := engine.NewRelation(engine.NewSchema(
		engine.Column{Name: prefix + ".k", Kind: engine.KindInt},
		engine.Column{Name: prefix + ".s", Kind: engine.KindString},
		engine.Column{Name: prefix + ".v", Kind: engine.KindFloat},
	))
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i := 0; i < n; i++ {
		rel.Append(engine.Tuple{
			engine.Int(int64(r.Intn(keys))),
			engine.Str(names[r.Intn(len(names))]),
			engine.Float(r.Float64()),
		})
	}
	return rel
}

// BenchmarkHashJoin times the hash join on synthetic equi joins with a
// residual filter (not a paper figure). Each case runs with the join
// emitting its full six-column row and, as /out=3, through a projection
// to three; the smaller input also runs with its probe side r saved and
// reopened, so the join probes column batches (/probe=columnar).
func BenchmarkHashJoin(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{20000, 100000} {
		l := syntheticJoinInput(n, n/8+1, "l", 1)
		r := syntheticJoinInput(n, n/8+1, "r", 2)
		join := engine.Join(
			engine.Values(l, "l"), engine.Values(r, "r"),
			engine.And(
				engine.EqCols("l.k", "r.k"),
				engine.Cmp(engine.NE, engine.Col("l.s"), engine.Col("r.s")),
			))
		cat := engine.NewCatalog()
		outs := []struct {
			name string
			plan engine.Plan
		}{{"", join}, {"/out=3", engine.Project(join, "l.k", "r.s", "l.v")}}
		if n == 20000 {
			stored := engine.Join(engine.Values(l, "l"), storedScan(b, r, "r"), join.Cond)
			outs = append(outs, outs[1])
			outs[2].name, outs[2].plan = "/probe=columnar", engine.Project(stored, "l.k", "r.s", "l.v")
		}
		for _, out := range outs {
			b.Run(fmt.Sprintf("n=%d%s", n, out.name), func(b *testing.B) {
				b.ReportAllocs()
				var rows int
				for i := 0; i < b.N; i++ {
					rel, err := engine.Run(out.plan, cat, engine.ExecConfig{})
					if err != nil {
						b.Fatal(err)
					}
					rows = rel.Len()
				}
				b.ReportMetric(float64(rows), "out_rows")
			})
		}
	}
}

// storedScan saves rel — whose columns are named alias.attr — as a
// certain relation, reopens it without a segment cache and returns the
// plan of its segment scan under the same column names.
func storedScan(b *testing.B, rel *engine.Relation, alias string) engine.Plan {
	b.Helper()
	attrs := make([]string, rel.Sch.Len())
	for i, c := range rel.Sch.Cols {
		attrs[i] = c.Name[len(alias)+1:]
	}
	db := core.NewUDB()
	db.MustAddRelation(alias, attrs...)
	u := db.MustAddPartition(alias, "u_"+alias, attrs...)
	for i, row := range rel.Rows {
		u.Add(nil, int64(i+1), row...)
	}
	dir := b.TempDir()
	if err := store.Save(db, dir); err != nil {
		b.Fatal(err)
	}
	stored, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { stored.Close() })
	plan, _, err := stored.Translate(core.Rel(alias))
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkReduction measures the exact reduction and the paper's
// semijoin-based relational reduction.
func BenchmarkReduction(b *testing.B) {
	b.ReportAllocs()
	mk := func() *core.UDB { return tpchDB(b, 0.005, 0.05, 42) }
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		db := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Reduce()
		}
	})
	b.Run("semijoin-once", func(b *testing.B) {
		b.ReportAllocs()
		db := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.ReduceSemijoinOnce(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// coinLineage builds a one-tuple result over nvars coins whose lineage
// has one descriptor per conjunction, each listing the coins that must
// show 1; exclusive > 0 adds one variable of that many values and
// conjoins its i-th value to the i-th conjunction, which makes them
// pairwise exclusive.
func coinLineage(nvars, exclusive int, conjs [][]int) *core.UResult {
	w := ws.NewWorldTable()
	vars := make([]ws.Var, nvars)
	for i := range vars {
		vars[i] = w.NewBoolVar("")
	}
	var big ws.Var
	if exclusive > 0 {
		dom := make([]ws.Val, exclusive)
		for i := range dom {
			dom[i] = ws.Val(i + 1)
		}
		big = w.MustNewVar("big", dom...)
	}
	res := &core.UResult{W: w, Attrs: []string{"a"}}
	for i, c := range conjs {
		var as []ws.Assignment
		for _, j := range c {
			as = append(as, ws.A(vars[j], 1))
		}
		if exclusive > 0 {
			as = append(as, ws.A(big, ws.Val(i+1)))
		}
		res.Rows = append(res.Rows, core.UResultRow{D: ws.MustDescriptor(as...), Vals: engine.Tuple{engine.Int(7)}})
	}
	return res
}

// randomDNF draws m conjunctions of the given width over nvars variables.
func randomDNF(seed int64, nvars, m, width int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	conjs := make([][]int, m)
	for i := range conjs {
		conjs[i] = rng.Perm(nvars)[:width]
	}
	return conjs
}

// BenchmarkConfidence measures one ConfidencesDispatch per lineage
// shape, from the linear ones (independent and exclusive descriptors,
// the TPC-H statement of the served workloads) through the ones whose
// variables interlock with small width (chain, grid) to random DNFs at
// and past 22 variables; `path` is 0 for read-once, 1 for exact in more
// steps, 2 for sampled. The steps behind each shape are printed by
// TestConfidenceCoversTheEnumerator in internal/core.
func BenchmarkConfidence(b *testing.B) {
	var independent, chain, grid [][]int
	for i := 0; i < 20000; i++ {
		independent = append(independent, []int{i})
	}
	for i := 0; i+1 < 40; i++ {
		chain = append(chain, []int{i, i + 1})
	}
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			if c+1 < 6 {
				grid = append(grid, []int{6*r + c, 6*r + c + 1})
			}
			if r+1 < 6 {
				grid = append(grid, []int{6*r + c, 6*r + c + 6})
			}
		}
	}
	tpchConf := func() *core.UResult {
		db := benchDB(b, 0.25, 0.01, 0.25)
		q := core.Project(core.Select(core.Rel("orders"),
			engine.Cmp(engine.LT, engine.Col("o_orderkey"), engine.ConstInt(1200))), "o_orderstatus")
		res, err := db.Eval(q, engine.ExecConfig{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	shapes := []struct {
		name string
		res  func() *core.UResult
	}{
		{"independent-20k", func() *core.UResult { return coinLineage(20000, 0, independent) }},
		{"exclusive-64", func() *core.UResult { return coinLineage(64, 64, independent[:64]) }},
		{"chain-40", func() *core.UResult { return coinLineage(40, 0, chain) }},
		{"grid-6x6", func() *core.UResult { return coinLineage(36, 0, grid) }},
		{"dnf3-22v", func() *core.UResult { return coinLineage(22, 0, randomDNF(1, 22, 40, 3)) }},
		{"dnf3-40v", func() *core.UResult { return coinLineage(40, 0, randomDNF(1, 40, 60, 3)) }},
		{"tpch-conf", tpchConf},
	}
	paths := map[string]float64{"read-once": 0, "exact": 1, "monte-carlo": 2}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			res := s.res()
			var stats core.ConfPathStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if _, stats, err = res.ConfidencesDispatch(core.ConfOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(paths[stats.Estimator()], "path")
		})
	}
}

// certainStatements are the CERTAIN statements BenchmarkCertain times and
// TestCopyBudget bounds, on the gated benchmark's stored data (s 0.25,
// x 0.01, z 0.25, seed 1): the three of its served_mix workload, and
// three with a key among the attributes — thousands of answer tuples —
// on which Lemma 4.3's cross products took seconds.
var certainStatements = []struct{ name, sql string }{
	{"mktsegment-112", "certain select c_mktsegment from customer where c_custkey < 113"},
	{"orderstatus-375", "certain select o_orderstatus from orders where o_orderkey < 376"},
	{"shippriority-750", "certain select o_shippriority from orders where o_orderkey < 751"},
	{"orderkey+status-750", "certain select o_orderkey, o_orderstatus from orders where o_orderkey < 751"},
	{"orderkey+status-all", "certain select o_orderkey, o_orderstatus from orders"},
	{"lineitem-qty-750", "certain select l_orderkey, l_quantity from lineitem where l_orderkey < 751"},
}

// servedResult answers q the way the query server does before its
// certain-answer and confidence pipelines: the one translation
// (Translate), run, and its result decoded.
func servedResult(db *core.UDB, q core.Query) (*core.UResult, error) {
	plan, lay, err := db.Translate(q)
	if err != nil {
		return nil, err
	}
	rel, err := engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{})
	if err != nil {
		return nil, err
	}
	return core.Decode(db.W, rel, lay)
}

// servedData saves the gated benchmark's dataset and opens it the way
// its served workloads hold it: behind a 256 MiB segment cache.
func servedData(tb testing.TB) *core.UDB {
	tb.Helper()
	mem := tpchDB(tb, 0.25, 0.01, 1)
	dir := tb.TempDir()
	if err := store.Save(mem, dir); err != nil {
		tb.Fatal(err)
	}
	db, err := store.OpenCached(dir, store.NewSegCache(256<<20))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkCertain times one CERTAIN statement stage by stage: plan-ms
// is the server's plan and its decoding (servedResult: Translate, which
// merges only the partitions the statement reads), certain-ms what the
// server then runs (UResult.CertainTuples: label, and normalize + Lemma
// 4.3 over the unlabelled rest); normalize-ms and lemma-ms put the whole
// result through Normalize and CertainTuplesRA, labels unused — what the
// pipeline costs when nothing is labelled. ns/op is the four together;
// rows and tuples are the result's rows and the answer's tuples, labelled
// the share of the latter decided by label. The statement is planned
// afresh each time, as the server does when it cannot run a cached plan;
// probe-rows is what the executed plan's joins probed (probedRows),
// from one EXPLAIN ANALYZE of it (the tid windows of the scans cut it).
func BenchmarkCertain(b *testing.B) {
	db := servedData(b)
	for _, s := range certainStatements {
		b.Run(s.name, func(b *testing.B) {
			parsed, err := sqlparse.Parse(s.sql)
			if err != nil {
				b.Fatal(err)
			}
			var stage [4]time.Duration
			var stats core.CertainPathStats
			rows := 0
			run := func() {
				t := [5]time.Time{time.Now()}
				res, err := servedResult(db, parsed.Query)
				if err != nil {
					b.Fatal(err)
				}
				t[1], rows = time.Now(), res.Len()
				var rel *engine.Relation
				if rel, stats, err = res.CertainTuples(time.Time{}); err != nil {
					b.Fatal(err)
				}
				t[2] = time.Now()
				norm, err := res.Normalize()
				if err != nil {
					b.Fatal(err)
				}
				t[3] = time.Now()
				ra, err := norm.CertainTuplesRA()
				if err != nil {
					b.Fatal(err)
				}
				t[4] = time.Now()
				if ra.Len() != rel.Len() {
					b.Fatalf("CertainTuples gives %d tuples, Normalize + CertainTuplesRA %d", rel.Len(), ra.Len())
				}
				for i := range stage {
					stage[i] += t[i+1].Sub(t[i])
				}
			}
			run() // fills the segment cache
			stage = [4]time.Duration{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			for i, unit := range []string{"plan-ms", "certain-ms", "normalize-ms", "lemma-ms"} {
				b.ReportMetric(stage[i].Seconds()*1e3/float64(b.N), unit)
			}
			b.ReportMetric(float64(rows), "rows")
			an, err := db.ExplainAnalyze(parsed.Query, false, engine.ExecConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(probedRows(an.Trace)), "probe-rows")
			b.ReportMetric(float64(stats.Labelled+stats.Pipeline), "tuples")
			if n := stats.Labelled + stats.Pipeline; n > 0 {
				b.ReportMetric(float64(stats.Labelled)/float64(n), "labelled")
			}
		})
	}
}

// BenchmarkTombstoneScan times a warm scan of one stored partition —
// 20 480 rows in five segments, behind a segment cache — under 0, 16
// and 64 tombstone batches, each deleting a few of the newest tuple
// ids, the ones served_rw's range deletes hit. It reports ns/row and
// tomb-checked/row, the rows looked up against the tombstones per row
// scanned: a tombstone is consulted only in the segments its tuple id
// falls in, so four of the five segments are served without any per-row
// work, whatever the batch count. The rw case is served_rw's shape:
// rows carry descriptors, and 43 batches, of 32 and 64 consecutive
// tuple ids (an UPDATE's half and a DELETE's whole range), delete half
// of the tail segment, each row by its own descriptor.
//
//	go test -run=NONE -bench=BenchmarkTombstoneScan -benchmem .
func BenchmarkTombstoneScan(b *testing.B) {
	const n, tail = 5 * store.DefaultSegmentRows, 4*store.DefaultSegmentRows + 1
	rows := make([]core.URow, n)
	described := make([]core.URow, n)
	for i := range rows {
		tid := int64(i + 1)
		rows[i] = core.URow{TID: tid, Vals: []engine.Value{engine.Int(int64(i % 97))}}
		d := ws.MustDescriptor(ws.A(ws.Var(1+i%1000), ws.Val(1+i%3)))
		if i%3 == 0 {
			d = ws.MustDescriptor(ws.A(ws.Var(1+i%1000), ws.Val(1+i%3)), ws.A(ws.Var(1001+i%7), 1))
		}
		described[i] = core.URow{D: d, TID: tid, Vals: rows[i].Vals}
	}
	open := func(name string, rows []core.URow) *store.PartHandle {
		path := filepath.Join(b.TempDir(), name)
		if _, err := store.WritePartition(path, rows, 1, store.DefaultSegmentRows); err != nil {
			b.Fatal(err)
		}
		h, err := store.OpenPart(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { h.Close() })
		h.SetCache(store.NewSegCache(64 << 20))
		return h
	}
	plain, rw := open("p.useg", rows), open("rw.useg", described)

	type tombCase struct {
		name    string
		h       *store.PartHandle
		width   int
		batches []store.TombBatch
		dead    int
	}
	var cases []tombCase
	for _, nb := range []int{0, 16, 64} {
		c := tombCase{name: fmt.Sprintf("batches=%d", nb), h: plain, dead: 3 * nb}
		for k := 0; k < nb; k++ {
			tid := int64(n - 8*k)
			c.batches = append(c.batches, store.NewTombBatch([]store.WALTomb{{TID: tid}, {TID: tid - 1}, {TID: tid - 2, Wild: true}}, 1))
		}
		cases = append(cases, c)
	}
	c := tombCase{name: "rw", h: rw, width: 2}
	for tid, size := tail, 32; tid <= n; tid, size = tid+2*size, 96-size {
		var tombs []store.WALTomb
		for t := tid; t < tid+size; t++ {
			tombs = append(tombs, store.WALTomb{TID: int64(t), D: described[t-1].D})
		}
		c.batches = append(c.batches, store.NewTombBatch(tombs, 1))
		c.dead += size
	}
	cases = append(cases, c)

	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var cols []engine.Column
			for k := 0; k < c.width; k++ {
				cols = append(cols, engine.Column{Name: fmt.Sprintf("d.v%d", k), Kind: engine.KindInt},
					engine.Column{Name: fmt.Sprintf("d.r%d", k), Kind: engine.KindInt})
			}
			sch := engine.NewSchema(append(cols, engine.Column{Name: "tid:p", Kind: engine.KindInt}, engine.Column{Name: "p.a", Kind: engine.KindInt})...)
			src := &store.PartSource{Layers: []*store.PartHandle{c.h}, Tomb: store.NewTombView(c.batches)}
			plan := src.ScanPlan(sch, c.width, []int{0}, "p").(*store.StoreScanPlan)
			var checked int64
			scan := func() {
				it, err := plan.BuildIter(engine.ExecConfig{})
				if err != nil {
					b.Fatal(err)
				}
				s := it.(*store.StoreScanIter)
				if err := s.Open(); err != nil {
					b.Fatal(err)
				}
				live := 0
				for {
					cb, ok, err := s.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					live += cb.Rows()
				}
				if live != n-c.dead {
					b.Fatalf("%d live rows, want %d", live, n-c.dead)
				}
				checked += s.TombRowsChecked
				s.Close()
			}
			scan() // decodes into the cache
			checked = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			b.ReportMetric(float64(checked)/float64(b.N)/n, "tomb-checked/row")
		})
	}
}

// BenchmarkCompact times one compaction of a saved TPC-H database
// (s 0.1, x 0.01, z 0.25) after an insert, an update and a delete on
// one relation, partsupp (dirty=1): the compaction rewrites that
// relation's partitions and leaves the others' files, runs and cached
// segments alone. It reports parts/op, the partitions rewritten.
//
//	go test -run=NONE -bench=BenchmarkCompact -benchmem .
func BenchmarkCompact(b *testing.B) {
	mem := tpchDB(b, 0.1, 0.01, 1)
	dir := b.TempDir()
	if err := store.Save(mem, dir); err != nil {
		b.Fatal(err)
	}
	d, err := txn.Open(dir, txn.Options{DisableAutoFlush: true, Cache: store.NewSegCache(64 << 20)})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.Run("dirty=1", func(b *testing.B) {
		b.ReportAllocs()
		start := d.Stats().PartitionsRewritten
		var compact time.Duration
		for i := 0; i < b.N; i++ {
			k := 10_000_000 + 4*i
			for _, sql := range []string{
				fmt.Sprintf("insert into partsupp (ps_partkey, ps_suppkey, ps_availqty, ps_supplycost) values (%d, 1, 1, 1.5), (%d, 2, 2, 2.5)", k, k+1),
				fmt.Sprintf("update partsupp set ps_supplycost = 3.5 where ps_partkey = %d", k),
				fmt.Sprintf("delete from partsupp where ps_partkey = %d", k+1),
			} {
				if _, err := d.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
			t0 := time.Now()
			if err := d.Compact(); err != nil {
				b.Fatal(err)
			}
			compact += time.Since(t0)
		}
		b.ReportMetric(float64(compact.Nanoseconds())/float64(b.N), "compact-ns/op")
		b.ReportMetric(float64(d.Stats().PartitionsRewritten-start)/float64(b.N), "parts/op")
	})
}
