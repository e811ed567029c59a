package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// unnarrowed is a scan without NarrowKeyRange: the same plan with
// narrowing off.
type unnarrowed struct{ engine.ColBatchIterator }

// TestNarrowedJoinsMatchUnnarrowed draws random layered partitions —
// base and delta files written from rows out of tid order, some as
// URSEGv1, under tombstones, with an in-memory delta, NULL keys and the
// odd float among the ints — and joins each with a small build side of
// keys from one window of tuple ids or values, on the tid column and on
// the value column. The inner hash join (serial and partitioned), the
// semi join and the anti join must give the same rows with the probe
// scan narrowed as with narrowing off, and as the join evaluated row by
// row over the partition's live rows.
func TestNarrowedJoinsMatchUnnarrowed(t *testing.T) {
	var skipped int64
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			skipped += checkNarrowLayout(t, rand.New(rand.NewSource(seed)))
		})
	}
	if skipped == 0 {
		t.Error("no join skipped a segment: narrowing was never exercised")
	}
}

// checkNarrowLayout builds one random partition and checks every join
// kind against it; it returns the segments the narrowed scans skipped.
func checkNarrowLayout(t *testing.T, rng *rand.Rand) int64 {
	dir := t.TempDir()
	value := func() engine.Value {
		switch k := int64(rng.Intn(40)); {
		case rng.Intn(10) == 0:
			return engine.Null()
		case rng.Intn(30) == 0:
			return engine.Float(float64(k))
		default:
			return engine.Int(k)
		}
	}
	row := func(tid int64) core.URow {
		var d ws.Descriptor
		if rng.Intn(3) == 0 {
			d = ws.MustDescriptor(ws.A(ws.Var(1+rng.Intn(3)), ws.Val(1+rng.Intn(2))))
		}
		return core.URow{D: d, TID: tid, Vals: []engine.Value{value()}}
	}
	var layers [][]core.URow
	maxTID := int64(0)
	for nl := 1 + rng.Intn(4); nl > 0; nl-- {
		var rows []core.URow
		for i := 20 + rng.Intn(200); i > 0; i-- {
			if maxTID > 0 && rng.Intn(3) == 0 {
				rows = append(rows, row(1+rng.Int63n(maxTID))) // an alternative or a reinsert
			} else {
				maxTID++
				rows = append(rows, row(maxTID))
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		layers = append(layers, rows)
	}
	src := &PartSource{}
	var batches []TombBatch
	for li, rows := range layers {
		path := filepath.Join(dir, fmt.Sprintf("l%d.useg", li))
		segRows := 4 + rng.Intn(40)
		if rng.Intn(3) == 0 {
			writeV1Partition(t, path, rows, 1, segRows)
		} else if _, err := WritePartition(path, rows, 1, segRows); err != nil {
			t.Fatal(err)
		}
		h, err := OpenPart(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		src.Layers = append(src.Layers, h)
		if rng.Intn(2) == 0 {
			var tombs []WALTomb
			for i := 1 + rng.Intn(8); i > 0; i-- {
				r := rows[rng.Intn(len(rows))]
				tombs = append(tombs, WALTomb{TID: r.TID, D: r.D, Wild: rng.Intn(2) == 0})
			}
			batches = append(batches, NewTombBatch(tombs, li+1))
		}
	}
	if len(batches) > 0 {
		src.Tomb = NewTombView(batches)
	}
	for i := rng.Intn(6); i > 0; i-- {
		src.Mem = append(src.Mem, row(1+rng.Int63n(maxTID+5)))
	}
	live, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	w := src.DescriptorWidth()
	sch := widthSchema(w)

	var skipped int64
	for _, on := range []struct {
		col string
		key func(core.URow) engine.Value
		top int64
	}{
		{"tid:r.p0", func(r core.URow) engine.Value { return engine.Int(r.TID) }, maxTID},
		{"r.a", func(r core.URow) engine.Value { return r.Vals[0] }, 40},
	} {
		// Build keys from one window, a NULL now and then, sometimes none.
		lo := rng.Int63n(on.top + 1)
		var keys []int64
		var nulls []bool
		for i := rng.Intn(8); i > 0; i-- {
			keys = append(keys, lo+rng.Int63n(1+rng.Int63n(12)))
			nulls = append(nulls, rng.Intn(8) == 0)
		}
		build := func() engine.Iterator {
			b := &engine.ColBatch{
				Sch:  engine.NewSchema(engine.Column{Name: "b.k", Kind: engine.KindInt}),
				Cols: []engine.ColVec{engine.IntVec(keys, nulls)},
				N:    len(keys),
			}
			it, err := engine.Build(&engine.ValuesPlan{Batch: b, Name: "b"}, engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return it
		}
		// matches counts the build keys a probe row's key equals.
		matches := func(r core.URow) int {
			v, n := on.key(r), 0
			for i, k := range keys {
				if !nulls[i] && !v.IsNull() && engine.Compare(engine.Int(k), v) == 0 {
					n++
				}
			}
			return n
		}
		var wantInner, wantSemi, wantAnti []string
		for _, r := range live {
			n := matches(r)
			for i := 0; i < n; i++ {
				wantInner = append(wantInner, uRowKey(r))
			}
			if n > 0 {
				wantSemi = append(wantSemi, uRowKey(r))
			} else {
				wantAnti = append(wantAnti, uRowKey(r))
			}
		}

		for _, kind := range []string{"inner", "parallel", "semi", "anti"} {
			want := map[string][]string{"inner": wantInner, "parallel": wantInner, "semi": wantSemi, "anti": wantAnti}[kind]
			sort.Strings(want)
			for _, narrow := range []bool{true, false} {
				scan, err := src.ScanPlan(sch, w, []int{0}, "u_r_a").(*StoreScanPlan).BuildIter(engine.ExecConfig{})
				if err != nil {
					t.Fatal(err)
				}
				probe := scan
				if !narrow {
					probe = unnarrowed{scan.(engine.ColBatchIterator)}
				}
				var join engine.Iterator
				probeCols := 0 // where the probe row starts in an output row
				switch kind {
				case "inner":
					join = engine.NewHashJoin(build(), probe, []engine.EquiPair{{L: "b.k", R: on.col}}, nil, nil)
					probeCols = 1
				case "parallel":
					join = engine.NewParallelHashJoin(build(), probe, []engine.EquiPair{{L: "b.k", R: on.col}}, nil, nil, 3)
					probeCols = 1
				default:
					join = engine.NewSemiJoin(probe, build(), []engine.EquiPair{{L: on.col, R: "b.k"}}, nil, kind == "anti")
				}
				rel, err := engine.Drain(join)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, out := range rel.Rows {
					got = append(got, tupleKey(t, out[probeCols:], w))
				}
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s join on %s, keys %v (nulls %v), narrowed %v: %d rows, row by row %d:\n%v\n%v",
						kind, on.col, keys, nulls, narrow, len(got), len(want), got, want)
				}
				if s := scan.(*StoreScanIter); narrow {
					if kind == "anti" && s.SegmentsSkippedByJoin != 0 {
						t.Fatalf("the anti join skipped %d segments", s.SegmentsSkippedByJoin)
					}
					skipped += s.SegmentsSkippedByJoin
				}
			}
		}
	}
	return skipped
}
