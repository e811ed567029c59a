package main

import (
	"fmt"
	"os"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
	"urel/internal/tpch"
)

// storedCold runs the same engine over data read from disk: each op
// opens the saved directory without a segment cache, runs one query
// and closes it again, so every segment decode is paid and no program
// cache can hide the store.
type storedCold struct {
	fx    *storedFixture
	fixed [coldClasses]answer // expected answers of the classes with a fixed query
}

var storedColdSpec = findWorkload("stored_cold")

func (w *storedCold) spec() *workloadSpec { return storedColdSpec }

// Class indexes of stored_cold, in the spec's order.
const (
	coldProj = iota
	coldPoint
	coldQ1
	coldQ2
	coldClasses
)

// storedColdCycle is one cycle of 20: 6 projections, 8 point lookups,
// 3 Q1 and 3 Q2, interleaved.
var storedColdCycle = []int{
	coldPoint, coldProj, coldQ1, coldPoint, coldProj, coldPoint, coldQ2,
	coldPoint, coldProj, coldQ1, coldPoint, coldProj, coldPoint, coldQ2,
	coldPoint, coldProj, coldQ1, coldPoint, coldProj, coldQ2,
}

// pointCols are the value columns a point lookup returns.
var pointCols = []string{"l_extendedprice", "l_quantity"}

// coldQuery is the query of a class; point lookups take the key. The
// projection scans one vertical partition of orders out of seven: the
// case where the attribute-level layout pays.
func coldQuery(cls int, key int64) core.Query {
	switch cls {
	case coldProj:
		return core.Project(core.Rel("orders"), "o_orderstatus")
	case coldPoint:
		return pointQuery(key, pointCols...)
	case coldQ1:
		return tpch.Q1()
	default:
		return tpch.Q2()
	}
}

// storedFixture is the benchmark-side knowledge of the stored
// dataset, computed once per run from the generated database, never
// from the store: the expected point lookups and the key stream.
type storedFixture struct {
	keys   *keyStream
	points map[int64]answer // expected point lookups by order key
	stats  tpch.Stats
}

// newStoredFixture evaluates every possible point lookup in memory.
func newStoredFixture(e *env, db *core.UDB, st tpch.Stats) (*storedFixture, error) {
	points, err := pointExpectations(db, pointCols...)
	if err != nil {
		return nil, err
	}
	return &storedFixture{keys: newKeyStream(e.seed, st.Rows["orders"]), points: points, stats: st}, nil
}

type storedColdSession struct {
	w   *storedCold
	dir string
	rm  func()
}

// storedDir is the part of set-up the three stored workloads share:
// generate the dataset, save it into a fresh directory and index it.
// once, when not nil, computes the run's expectations from the
// generated database, outside the set-up time. The directory's removal
// is on the cleanup stack; rm runs it early.
func storedDir(e *env, prefix string, once func(*core.UDB, tpch.Stats) error) (dir string, rm func(), err error) {
	db, st, err := generate(e, e.size.stored, loX, loZ)
	if err != nil {
		return "", nil, err
	}
	if dir, err = e.mkdir(prefix); err != nil {
		return "", nil, err
	}
	rm = e.cl.push(func() { os.RemoveAll(dir) })
	if err = saveIndexed(e, db, dir); err == nil && once != nil {
		err = e.untimed(func() error { return once(db, st) })
	}
	if err != nil {
		rm()
		return "", nil, err
	}
	return dir, rm, nil
}

func (w *storedCold) setUp(e *env) (session, error) {
	var once func(*core.UDB, tpch.Stats) error
	if w.fx == nil {
		once = func(db *core.UDB, st tpch.Stats) (err error) {
			if w.fx, err = newStoredFixture(e, db, st); err != nil {
				return err
			}
			for _, cls := range []int{coldProj, coldQ1, coldQ2} {
				rel, err := db.EvalPoss(coldQuery(cls, 0), engine.ExecConfig{})
				if err != nil {
					return fmt.Errorf("expected %s: %w", w.spec().classes[cls].name, err)
				}
				w.fixed[cls] = answerOfRelation(rel)
			}
			return nil
		}
	}
	dir, rm, err := storedDir(e, "cold", once)
	if err != nil {
		return nil, err
	}
	return &storedColdSession{w: w, dir: dir, rm: rm}, nil
}

func (s *storedColdSession) close() { s.rm() }

func (s *storedColdSession) do(_, seq int, tr *tracer) opResult {
	cls := storedColdCycle[seq%len(storedColdCycle)]
	name := s.w.spec().classes[cls].name
	key, want := int64(0), s.w.fixed[cls]
	if cls == coldPoint {
		key = s.w.fx.keys.key(seq)
		want = s.w.fx.points[key]
		name = fmt.Sprintf("point lookup %s=%d", indexedCol, key)
	}
	rel, err := coldEval(s.dir, coldQuery(cls, key), tr, s.w.spec().classes[cls].name)
	return checkRelation(cls, rel, err, want, name+" from store")
}

// coldEval is one cold op: open the directory uncached, evaluate,
// close. With a tracer each call into a layer gets its span.
func coldEval(dir string, q core.Query, tr *tracer, opName string) (*engine.Relation, error) {
	if tr == nil {
		db, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		defer db.Close()
		return db.EvalPoss(q, engine.ExecConfig{})
	}
	root := tr.newOp(layerBench, opName)
	var db *core.UDB
	if err := tr.step(root, "store", "open", func() (err error) {
		db, err = store.Open(dir)
		return err
	}); err != nil {
		tr.end(root)
		return nil, err
	}
	rel, err := evalPossSteps(tr, root, db, q)
	tr.step(root, "store", "close", func() error { return db.Close() })
	tr.end(root)
	return rel, err
}
