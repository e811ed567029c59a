package core

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"urel/internal/engine"
)

// TestMain turns the image audit on for every test of the package and of
// core_test: each time a query is about to reuse a partition's image the
// partition is encoded again, and any difference — a change of Rows that
// did not say RowsChanged, a consumer that wrote into a shared row —
// stops the run, and so does an image whose tuple ids do not ascend (a
// stitch merges in that order) or a kept run that is not a fresh sort.
func TestMain(m *testing.M) {
	auditImage = func(u *URelation, img *image) {
		fresh := u.buildImage()
		if err := sameImage(img, fresh); err != nil {
			panic(fmt.Sprintf("core: %s: the kept image is not what encoding the rows now gives: %v", u.Name, err))
		}
		if tids := img.cols[2*img.width].Ints; !slices.IsSorted(tids) {
			panic(fmt.Sprintf("core: %s: the image is not in tuple-id order", u.Name))
		}
		img.runMu.Lock()
		defer img.runMu.Unlock()
		for c, run := range img.runs {
			if run != nil && !slices.Equal(run, engine.ValueOrder(&fresh.cols[c])) {
				panic(fmt.Sprintf("core: %s: the kept run of column %d is not the value order of its rows now", u.Name, c))
			}
		}
	}
	os.Exit(m.Run())
}

func sameImage(kept, fresh *image) error {
	if kept.width != fresh.width || kept.n != fresh.n || len(kept.cols) != len(fresh.cols) {
		return fmt.Errorf("width %d with %d rows, now width %d with %d rows", kept.width, kept.n, fresh.width, fresh.n)
	}
	for ai, k := range fresh.kinds {
		if kept.kinds[ai] != k {
			return fmt.Errorf("attribute %d of kind %v, now %v", ai, kept.kinds[ai], k)
		}
	}
	for c := range fresh.cols {
		for i := 0; i < fresh.n; i++ {
			if v, w := kept.cols[c].Value(i), fresh.cols[c].Value(i); v != w {
				return fmt.Errorf("row %d column %d holds %v, now %v", i, c, v, w)
			}
		}
	}
	return nil
}

// RandUDB and RandQuery hand the property suite's generators to the
// tests of core_test, which can import what imports core (txn, store).
func RandUDB(rng *rand.Rand) *UDB { return randUDB(rng) }

// RandCompleteUDB is RandUDB with every relation existence-complete by
// construction (its bit is left for the caller to set).
func RandCompleteUDB(rng *rand.Rand) *UDB { return randUDBOf(rng, true) }

func RandQuery(rng *rand.Rand, db *UDB, depth int) Query { return randQuery(rng, db, depth) }

// HasImage reports whether the partition holds an image of its current
// rows.
func (u *URelation) HasImage() bool {
	u.imgMu.Lock()
	defer u.imgMu.Unlock()
	return u.img != nil && u.img.describes(u.Rows)
}

// ClassicalPlan is the plan of q over one world's ordinary relations,
// for tests that check a result world by world.
func ClassicalPlan(q Query, world map[string]*engine.Relation) (engine.Plan, error) {
	return classicalPlan(q, world)
}

// Lemma43Plan is the plan CertainTuplesRA runs, with its catalog.
func (n *NormalizedResult) Lemma43Plan() (engine.Plan, *engine.Catalog) { return n.lemma43Plan() }
