package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
	"urel/internal/tpch"
	"urel/internal/txn"
)

// The uncertainty axis of the paper's evaluation: lo and hi are the
// two uncertainty ratios x the in-memory workload runs side by side;
// the stored workloads use lo. The correlation z is 0.25 in both: at
// z = 0.5 a few huge variables decide a dataset's cost, and bytes
// allocated per Q1 differ by 13 % (quartiles) from seed to seed against
// 4 % at 0.25.
const (
	loX, loZ = 0.01, 0.25
	hiX, hiZ = 0.1, 0.25
)

// indexedRel and indexedCol name the one secondary index the stored
// data carries.
const (
	indexedRel = "lineitem"
	indexedCol = "l_orderkey"
)

// generate builds the uncertain TPC-H database of the run's seed at one
// point of the paper's sweep.
func generate(e *env, scale, x, z float64) (db *core.UDB, st tpch.Stats, err error) {
	p := tpch.DefaultParams(scale, x, z)
	p.Seed = e.seed
	err = e.stage("tpch.generate", func() (err error) {
		db, st, err = tpch.Generate(p)
		return err
	})
	return db, st, err
}

// saveIndexed writes db into dir and builds the lineitem(l_orderkey)
// index beside it.
func saveIndexed(e *env, db *core.UDB, dir string) error {
	if err := e.stage("store.save", func() error { return store.Save(db, dir) }); err != nil {
		return err
	}
	return e.stage("index.build", func() error { return buildIndex(dir) })
}

// buildIndex declares and builds the index through the write path (the
// only way a saved directory gets one), then closes it again so the
// directory is a plain read-only store.
func buildIndex(dir string) error {
	rw, err := txn.Open(dir, txn.Options{DisableAutoFlush: true})
	if err != nil {
		return err
	}
	if _, err := rw.Exec(fmt.Sprintf("create index on %s(%s)", indexedRel, indexedCol)); err != nil {
		rw.Close()
		return err
	}
	return rw.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// keyStream hands out order keys in a seeded permutation, so every
// point lookup of a run carries a literal no earlier op used.
type keyStream struct {
	keys []int64
}

func newKeyStream(seed int64, orders int) *keyStream {
	rng := rand.New(rand.NewSource(seed))
	ks := &keyStream{keys: make([]int64, orders)}
	for i, p := range rng.Perm(orders) {
		ks.keys[i] = int64(p + 1)
	}
	return ks
}

// key returns the n-th key; safe for concurrent use (read-only).
func (ks *keyStream) key(n int) int64 { return ks.keys[n%len(ks.keys)] }

// pointExpectations evaluates, once and in memory, the possible
// (l_orderkey, cols...) tuples of lineitem and groups them by order
// key: the expected answer of every point lookup the run can issue.
func pointExpectations(db *core.UDB, cols ...string) (map[int64]answer, error) {
	attrs := append([]string{indexedCol}, cols...)
	rel, err := db.EvalPoss(core.Project(core.Rel(indexedRel), attrs...), engine.ExecConfig{})
	if err != nil {
		return nil, err
	}
	out := map[int64]answer{}
	for _, t := range rel.Rows {
		a := out[t[0].AsInt()]
		a.add(canonTuple(t[1:]))
		out[t[0].AsInt()] = a
	}
	return out, nil
}

// pointQuery is the lookup the stored workloads issue in process.
func pointQuery(key int64, cols ...string) core.Query {
	return core.Project(core.Select(core.Rel(indexedRel),
		engine.Eq(engine.Col(indexedCol), engine.ConstInt(key))), cols...)
}
