package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/txn"
)

const imageTestWorlds = 4000

// checkAgainstFresh runs q over db — whose partitions may hold images
// from earlier queries — and over a fresh Clone, which holds none, by
// the lazy and by the full translation; with worlds set, on instances
// small enough to enumerate, it also checks the possible answers against
// the worlds, and reports whether it did.
func checkAgainstFresh(t *testing.T, when string, db *core.UDB, q core.Query, worlds bool) bool {
	t.Helper()
	for _, name := range db.RelNames() {
		if db.Rels[name].ExistenceComplete {
			if err := db.CheckExistenceComplete(name); err != nil {
				t.Fatalf("%s: %s has the existence-complete bit: %v", when, name, err)
			}
		}
	}
	fresh := db.Clone()
	got, err := db.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatalf("%s: %s: %v", when, q, err)
	}
	want, err := fresh.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatalf("%s: %s on a clone: %v", when, q, err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("%s: poss(%s) has %d answers, a fresh clone gives %d:\n%s\nclone:\n%s", when, q, got.Len(), want.Len(), got, want)
	}
	full, err := db.Eval(q, engine.ExecConfig{})
	if err != nil {
		t.Fatalf("%s: Eval(%s): %v", when, q, err)
	}
	wantFull, err := fresh.Eval(q, engine.ExecConfig{})
	if err != nil {
		t.Fatalf("%s: Eval(%s) on a clone: %v", when, q, err)
	}
	if full.Len() != wantFull.Len() || !full.PossibleTuples().EqualAsSet(wantFull.PossibleTuples()) {
		t.Fatalf("%s: Eval(%s) has %d rows, a fresh clone gives %d", when, q, full.Len(), wantFull.Len())
	}
	if !worlds {
		return false
	}
	if _, err := db.W.CountWorlds(imageTestWorlds); err != nil {
		return false
	}
	gt, err := db.PossibleGroundTruth(q, imageTestWorlds)
	if err != nil {
		t.Fatalf("%s: ground truth of %s: %v", when, q, err)
	}
	if !got.EqualAsSet(gt) {
		t.Fatalf("%s: poss(%s) has %d answers, the worlds have %d", when, q, got.Len(), gt.Len())
	}
	return true
}

// partitionSizes is every partition's row count, in declaration order.
func partitionSizes(db *core.UDB) []int {
	var out []int
	for _, rel := range db.RelNames() {
		for _, p := range db.Rels[rel].Parts {
			out = append(out, len(p.Rows))
		}
	}
	return out
}

func imagesHeld(db *core.UDB) int {
	n := 0
	for _, rel := range db.RelNames() {
		for _, p := range db.Rels[rel].Parts {
			if p.HasImage() {
				n++
			}
		}
	}
	return n
}

// TestLeafImageNeverStale: seeded random interleavings of everything
// that changes an in-memory partition's rows — Add, DML through
// txn.Apply (INSERT, DELETE, and the UPDATE that leaves every row count
// and every slice address as it was), Reduce, ReduceSemijoinOnce, a
// save/reopen/Materialize round trip, Clone — with queries before and
// after each, so the change lands on partitions that hold an image.
// Every answer is the one a fresh clone gives and, wherever the worlds
// can be enumerated, the one the worlds give, and TestMain's audit
// re-encodes on every image reuse. Every relation whose
// existence-complete bit survived the step still passes
// CheckExistenceComplete: even seeds start with every relation
// existence-complete and its bit set, so the lazy translation runs until
// a DELETE or UPDATE acts on part of a tuple (one that selects on an
// uncertain attribute removes the matched alternatives only in the
// partitions its match merged, which is what the cleared bit answers
// for). Each sequence ends with two readers on the one database: the
// images' rows are shared across queries, so under -race this is where a
// consumer that writes into a result row shows.
func TestLeafImageNeverStale(t *testing.T) {
	steps := map[string]int{}
	sameSizeUpdates, enumerated, lazy := 0, 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var db *core.UDB
		if seed%2 == 0 {
			db = core.RandCompleteUDB(rng)
			for _, name := range db.RelNames() {
				db.Rels[name].ExistenceComplete = true
			}
		} else {
			db = core.RandUDB(rng).Reduce()
		}
		nextTID := int64(100)
		randRel := func() (string, *core.URelSet) {
			names := db.RelNames()
			name := names[rng.Intn(len(names))]
			return name, db.Rels[name]
		}
		apply := func(sql string) {
			st, err := sqlparse.ParseStatement(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if _, err := txn.Apply(db, st); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, sql, err)
			}
		}
		for step := 0; step < 20; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			checkAgainstFresh(t, when+" before", db, core.RandQuery(rng, db, 2), true)
			var what string
			switch rng.Intn(9) {
			case 0:
				what = "Add"
				_, rs := randRel()
				nextTID++
				for _, p := range rs.Parts {
					vals := make([]engine.Value, len(p.Attrs))
					for i := range vals {
						vals[i] = engine.Int(int64(rng.Intn(3)))
					}
					p.Add(nil, nextTID, vals...)
				}
			case 1:
				what = "insert"
				name, rs := randRel()
				vals := make([]string, len(rs.Attrs))
				for i := range vals {
					vals[i] = fmt.Sprint(rng.Intn(3))
				}
				apply(fmt.Sprintf("insert into %s values (%s)", name, strings.Join(vals, ", ")))
			case 2:
				what = "delete"
				name, rs := randRel()
				apply(fmt.Sprintf("delete from %s where %s = %d", name, rs.Attrs[rng.Intn(len(rs.Attrs))], rng.Intn(3)))
			case 3, 4:
				what = "update"
				name, rs := randRel()
				before := partitionSizes(db)
				held := imagesHeld(db)
				apply(fmt.Sprintf("update %s set %s = %d where %s <= %d", name,
					rs.Attrs[rng.Intn(len(rs.Attrs))], 3+rng.Intn(3), rs.Attrs[rng.Intn(len(rs.Attrs))], rng.Intn(3)))
				if fmt.Sprint(before) == fmt.Sprint(partitionSizes(db)) && imagesHeld(db) < held {
					sameSizeUpdates++
				}
			case 5:
				what = "Reduce"
				db = db.Reduce()
			case 6:
				what = "ReduceSemijoinOnce"
				next, err := db.ReduceSemijoinOnce()
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				db = next
			case 7:
				what = "Materialize"
				dir := t.TempDir()
				if err := store.Save(db, dir); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				stored, err := store.Open(dir)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				q := core.RandQuery(rng, db, 2)
				want, err := db.EvalPoss(q, engine.ExecConfig{})
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				got, err := stored.EvalPoss(q, engine.ExecConfig{})
				if err != nil || !got.EqualAsSet(want) {
					t.Fatalf("%s: the stored copy answers %s differently (%v)", when, q, err)
				}
				if err := stored.Materialize(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if err := stored.Close(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if got, want := stored.FullMergeRels(), db.FullMergeRels(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: the stored copy merges %v fully, the original %v", when, got, want)
				}
				db = stored
			default:
				what = "Clone"
				db = db.Clone()
			}
			steps[what]++
			q := core.RandQuery(rng, db, 2)
			if checkAgainstFresh(t, when+" after "+what, db, q, true) {
				enumerated++
				for _, rs := range db.Rels {
					if rs.ExistenceComplete && len(rs.Parts) > 1 {
						lazy++
						break
					}
				}
			}
			checkAgainstFresh(t, when+" again after "+what, db, q, false)
		}

		// Two readers, one database, the same queries in opposite order.
		queries := make([]core.Query, 6)
		want := make([]*engine.Relation, len(queries))
		ref := db.Clone()
		for i := range queries {
			queries[i] = core.RandQuery(rng, db, 2)
			var err error
			if want[i], err = ref.EvalPoss(queries[i], engine.ExecConfig{}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range queries {
					i := k
					if g == 1 {
						i = len(queries) - 1 - k
					}
					got, err := db.EvalPoss(queries[i], engine.ExecConfig{})
					if err != nil {
						t.Errorf("seed %d reader %d: %v", seed, g, err)
						return
					}
					if !got.EqualAsSet(want[i]) {
						t.Errorf("seed %d reader %d: %s has %d answers, want %d", seed, g, queries[i], got.Len(), want[i].Len())
					}
					full, err := db.Eval(queries[i], engine.ExecConfig{})
					if err != nil {
						t.Errorf("seed %d reader %d: %v", seed, g, err)
						return
					}
					if !full.PossibleTuples().EqualAsSet(want[i]) {
						t.Errorf("seed %d reader %d: Eval(%s) disagrees with poss", seed, g, queries[i])
					}
				}
			}(g)
		}
		wg.Wait()
	}
	for _, what := range []string{"Add", "insert", "delete", "update", "Reduce", "ReduceSemijoinOnce", "Materialize", "Clone"} {
		if steps[what] < 10 {
			t.Errorf("only %d %s steps ran", steps[what], what)
		}
	}
	if enumerated < 20 {
		t.Errorf("only %d answers were checked against the worlds", enumerated)
	}
	t.Logf("%d answers checked against the worlds, %d with an existence-complete relation of several partitions", enumerated, lazy)
	if lazy < 20 {
		t.Errorf("only %d of them were on a database with an existence-complete relation of several partitions", lazy)
	}
	if sameSizeUpdates < 5 {
		t.Errorf("only %d updates left every partition's size unchanged while dropping an image", sameSizeUpdates)
	}
}
