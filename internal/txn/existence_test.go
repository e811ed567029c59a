package txn

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/tpch"
)

// answerQueries are the fixture queries checkAnswers asks in every
// mode. Projections onto b and onto c read one of r's partitions each,
// the selection two, and r itself all three — so a lazy translation
// that trusts a stale existence-complete bit misses worlds on one of
// them.
var answerQueries = []core.Query{
	core.Rel("r"),
	core.Project(core.Rel("r"), "b"),
	core.Project(core.Rel("r"), "c"),
	core.Project(core.Select(core.Rel("r"), engine.Cmp(engine.LT, engine.Col("a"), engine.ConstInt(25))), "c"),
	core.Project(core.Rel("s"), "y"),
	core.Project(core.Join(core.Rel("r"), core.Rel("s"), engine.Eq(engine.Col("r.a"), engine.Col("s.x"))), "r.c", "s.y"),
}

// checkAnswers holds db's possible answers, certain answers and exact
// confidences, each by Translate (what the server runs) and by
// TranslateFull, to the ones world enumeration of oracle gives — oracle
// being a materialized database with db's rows.
func checkAnswers(t *testing.T, when string, db, oracle *core.UDB) {
	t.Helper()
	const maxWorlds = 64
	keys := func(rel *engine.Relation) string {
		out := make([]string, rel.Len())
		for i, r := range rel.Rows {
			out[i] = engine.KeyString(r)
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	for _, q := range answerQueries {
		possGT, err := oracle.PossibleGroundTruth(q, maxWorlds)
		if err != nil {
			t.Fatalf("%s: worlds of %s: %v", when, q, err)
		}
		certainGT, err := oracle.CertainGroundTruth(q, maxWorlds)
		if err != nil {
			t.Fatalf("%s: worlds of %s: %v", when, q, err)
		}
		confGT, err := oracle.ConfidenceGroundTruth(q, maxWorlds)
		if err != nil {
			t.Fatalf("%s: worlds of %s: %v", when, q, err)
		}
		for _, full := range []bool{false, true} {
			translate, how := db.Translate, "Translate"
			if full {
				translate, how = db.TranslateFull, "TranslateFull"
			}
			plan, _, err := translate(core.Poss(q))
			if err != nil {
				t.Fatalf("%s: %s of poss(%s): %v", when, how, q, err)
			}
			poss, err := engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatalf("%s: %s of poss(%s): %v", when, how, q, err)
			}
			if keys(poss) != keys(possGT) {
				t.Fatalf("%s: %s: poss(%s) has %d answers, the worlds %d", when, how, q, poss.Len(), possGT.Len())
			}
			plan, lay, err := translate(q)
			if err != nil {
				t.Fatalf("%s: %s of %s: %v", when, how, q, err)
			}
			rel, err := engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatalf("%s: %s of %s: %v", when, how, q, err)
			}
			res, err := core.Decode(db.W, rel, lay)
			if err != nil {
				t.Fatalf("%s: %s of %s: %v", when, how, q, err)
			}
			certain, _, err := res.CertainTuples(time.Time{})
			if err != nil {
				t.Fatalf("%s: %s: certain %s: %v", when, how, q, err)
			}
			if keys(certain) != keys(certainGT) {
				t.Fatalf("%s: %s: %s has %d certain answers, the worlds %d", when, how, q, certain.Len(), certainGT.Len())
			}
			confs, stats, err := res.ConfidencesDispatch(core.ConfOptions{})
			if err != nil {
				t.Fatalf("%s: %s: conf %s: %v", when, how, q, err)
			}
			if stats.MC != 0 || len(confs) != len(confGT) {
				t.Fatalf("%s: %s: conf %s gives %d tuples (%d sampled), the worlds %d", when, how, q, len(confs), stats.MC, len(confGT))
			}
			for _, tc := range confs {
				if w := confGT[engine.KeyString(tc.Vals)]; math.Abs(tc.P-w) > 1e-9 {
					t.Fatalf("%s: %s: conf %s: %v for %v, the worlds %v", when, how, q, tc.P, tc.Vals, w)
				}
			}
		}
	}
}

// TestFixtureIsExistenceComplete: the fixture's bits, which fixtureDB
// sets, hold.
func TestFixtureIsExistenceComplete(t *testing.T) {
	db := fixtureDB()
	for _, rel := range db.RelNames() {
		if !db.Rels[rel].ExistenceComplete {
			t.Fatalf("%s: bit clear", rel)
		}
		if err := db.CheckExistenceComplete(rel); err != nil {
			t.Fatal(err)
		}
	}
	// A tuple missing from one partition breaks it.
	db.Rels["r"].Parts[2].Rows = db.Rels["r"].Parts[2].Rows[1:]
	db.Rels["r"].Parts[2].RowsChanged()
	if err := db.CheckExistenceComplete("r"); err == nil {
		t.Fatal("r passes without a row of tuple 1 in u_r_b")
	}
}

// TestDMLKeepsExistenceOnlyWhereItHolds: INSERT, and a DELETE or UPDATE
// of whole certain tuples, keep r's existence-complete bit; an UPDATE
// that matches alternatives clears it. The clear rides the statement's
// WAL record, so a reopen before any flush replays it — read-only and
// writable alike — and flush and compaction write it into the manifest,
// where it stays. Answers match the worlds at every step.
func TestDMLKeepsExistenceOnlyWhereItHolds(t *testing.T) {
	d, ref := openFixture(t)
	bit := func(db *core.UDB) bool { return db.Rels["r"].ExistenceComplete }
	step := func(sql string, keep bool) {
		t.Helper()
		exec(t, d, ref, sql)
		if bit(d.Snapshot()) != keep || bit(ref.db) != keep {
			t.Fatalf("after %q: bit %v in the store, %v in the reference; want %v", sql, bit(d.Snapshot()), bit(ref.db), keep)
		}
		requireSame(t, d, ref, sql)
	}
	step("insert into r values (41, 42, 43)", true)
	step("insert into r (a, b) select x, y from s where x < 3", true)
	step("delete from r where a = 1", true)          // tuple 1: certain in every partition
	step("update r set a = 40 where a = 41", true)   // touches u_r_ab only
	step("update r set c = 7 where a = 3", false)    // tuple 3: c has three alternatives
	step("insert into r values (51, 52, 53)", false) // nothing sets the bit again
	step("delete from r where a = 51", false)        // …not even a whole-tuple delete
	if got := d.Snapshot().FullMergeRels(); fmt.Sprint(got) != "[r]" {
		t.Fatalf("FullMergeRels = %v, want [r]", got)
	}

	// A reopen between the clearing commit and its flush: the manifest
	// still says existence-complete, the WAL clears it.
	man, err := store.ReadManifest(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if !man.Relations[0].ExistenceComplete {
		t.Fatal("the manifest lost the bit before any flush")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := store.Open(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if bit(ro) {
		t.Fatal("a read-only open did not replay the clear")
	}
	checkAnswers(t, "read-only open", ro, ref.db)
	ro.Close()
	if d, err = Open(d.Dir(), Options{DisableAutoFlush: true}); err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	requireSame(t, d, ref, "reopen before flush")

	for _, what := range []string{"flush", "compact"} {
		op := d.Flush
		if what == "compact" {
			op = d.Compact
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if man, err = store.ReadManifest(d.Dir()); err != nil {
			t.Fatal(err)
		}
		if man.Relations[0].ExistenceComplete || !man.Relations[1].ExistenceComplete {
			t.Fatalf("after %s the manifest says r %v, s %v", what, man.Relations[0].ExistenceComplete, man.Relations[1].ExistenceComplete)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if d, err = Open(d.Dir(), Options{DisableAutoFlush: true}); err != nil {
			t.Fatal(err)
		}
		requireSame(t, d, ref, "reopen after "+what)
	}
}

// TestServedRWShapeKeepsExistence: the served_rw workload's writes —
// certain rows inserted into partsupp, half of them updated, all of them
// deleted a few cycles later — act on whole tuples, so partsupp keeps
// its bit through commits, flushes and compactions, and what is left
// still passes CheckExistenceComplete.
func TestServedRWShapeKeepsExistence(t *testing.T) {
	p := tpch.DefaultParams(0.02, 0.1, 0.25)
	p.Seed = 1
	mem, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(mem, dir); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const rows, lag = 64, 4
	key := func(cycle int) int { return 10_000_000 + rows*cycle }
	for cycle := 0; cycle < 12; cycle++ {
		k := key(cycle)
		var vals []string
		for r := 0; r < rows; r++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d.5)", k+r, 1+r%7, 1+r, 1000+r))
		}
		stmts := []string{
			"insert into partsupp (ps_partkey, ps_suppkey, ps_availqty, ps_supplycost) values " + strings.Join(vals, ", "),
			fmt.Sprintf("update partsupp set ps_supplycost = %.1f where ps_partkey between %d and %d", float64(500000+cycle), k, k+rows/2-1),
		}
		if cycle >= lag {
			stmts = append(stmts, fmt.Sprintf("delete from partsupp where ps_partkey between %d and %d", key(cycle-lag), key(cycle-lag)+rows-1))
		}
		for _, sql := range stmts {
			st, err := sqlparse.ParseStatement(sql)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.ExecStmt(st); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if !d.Snapshot().Rels["partsupp"].ExistenceComplete {
				t.Fatalf("cycle %d: %.60s… cleared partsupp's bit", cycle, sql)
			}
		}
		maintain := d.Flush
		if cycle%4 == 3 {
			maintain = d.Compact
		}
		if err := maintain(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Snapshot().FullMergeRels(); len(got) != 0 {
		t.Fatalf("FullMergeRels = %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := snap.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := snap.CheckExistenceComplete("partsupp"); err != nil {
		t.Fatal(err)
	}
}
