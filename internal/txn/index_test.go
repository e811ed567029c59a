package txn

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/store"
)

// TestCreateIndexStatement covers the DDL surface: SQL form, facade
// semantics (idempotent redeclaration), statement errors, and
// persistence of the declaration across flush and reopen.
func TestCreateIndexStatement(t *testing.T) {
	d, _ := openFixture(t)
	res, err := d.Exec("create index on r(a)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "create_index" {
		t.Fatalf("kind = %q, want create_index", res.Kind)
	}
	// Redeclaring is a no-op, not an error.
	if _, err := d.Exec("create index on r(a)"); err != nil {
		t.Fatalf("redeclare: %v", err)
	}
	if _, err := d.Exec("create index on nosuch(a)"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := d.Exec("create index on r(nosuch)"); err == nil {
		t.Fatal("unknown attribute accepted")
	}

	// The declaration is manifest-durable: new layers get runs, and a
	// reopen still advertises the index.
	if _, err := d.Exec("insert into r values (41, 42, 43)"); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	man, err := store.ReadManifest(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	declared := false
	for _, mr := range man.Relations {
		if mr.Name == "r" {
			declared = len(mr.Indexes) == 1 && mr.Indexes[0] == "a"
		}
	}
	if !declared {
		t.Fatalf("manifest does not declare the index: %+v", man.Relations)
	}
	// Every layer of every partition of r that stores "a" carries a run.
	for _, mr := range man.Relations {
		if mr.Name != "r" {
			continue
		}
		for _, mp := range mr.Parts {
			ai := -1
			for j, a := range mp.Attrs {
				if a == "a" {
					ai = j
				}
			}
			if ai < 0 {
				continue
			}
			files := append([]string{mp.File}, deltaFiles(mp)...)
			for _, f := range files {
				if !fileExists(filepath.Join(d.Dir(), store.IdxFileName(f, store.IdxKeyAttr(ai)))) {
					t.Fatalf("layer %s of %s has no run for attr %d", f, mp.Name, ai)
				}
			}
		}
	}
}

func deltaFiles(mp store.ManifestPart) []string {
	var out []string
	for _, md := range mp.Deltas {
		out = append(out, md.File)
	}
	return out
}

func fileExists(path string) bool {
	_, err := filepath.Glob(path)
	if err != nil {
		return false
	}
	m, _ := filepath.Glob(path)
	return len(m) > 0
}

// lookupQuery is the point query the index property test compares
// across the index path and the reference full scan.
func lookupQuery(k int) core.Query {
	return core.Select(core.Rel("r"),
		engine.Eq(engine.Col("a"), engine.ConstInt(int64(k))))
}

// TestIndexPathProperty is the index-correctness proof: randomized DML
// interleaved with flushes, compactions, graceful reopens, and abrupt
// crashes (handles dropped, WAL replayed on reopen) must keep the
// indexed point-lookup path multiset-equal to a full scan of an
// in-memory reference database that applied the same statements — the
// index may degrade to scans (missing or stale runs) but must never
// change answers.
func TestIndexPathProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := fixtureDB()
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
			d, err := Open(dir, Options{DisableAutoFlush: true})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { d.Close() }()
			if _, err := d.Exec("create index on r(a)"); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Exec("create index on s(x)"); err != nil {
				t.Fatal(err)
			}

			check := func(when string) {
				t.Helper()
				for _, k := range []int{0, 1, 2, 3, 7, 13, 25, 41, 49} {
					got := possRows(t, d.Snapshot(), lookupQuery(k))
					want := possRows(t, ref.db, lookupQuery(k))
					if len(got) != len(want) {
						t.Fatalf("%s: a=%d: index path %d rows, full scan %d", when, k, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: a=%d row %d: %q vs %q", when, k, i, got[i], want[i])
						}
					}
				}
			}

			for i := 0; i < 50; i++ {
				switch r := rng.Intn(12); {
				case r == 0:
					if err := d.Flush(); err != nil {
						t.Fatalf("op %d flush: %v", i, err)
					}
				case r == 1:
					if err := d.Compact(); err != nil {
						t.Fatalf("op %d compact: %v", i, err)
					}
				case r == 2:
					if err := d.Close(); err != nil {
						t.Fatalf("op %d close: %v", i, err)
					}
					if d, err = Open(dir, Options{DisableAutoFlush: true}); err != nil {
						t.Fatalf("op %d reopen: %v", i, err)
					}
				case r == 3:
					// Crash: drop the handles without graceful-close work;
					// the reopen replays the WAL, and the index path must
					// agree with the reference over the replayed memtables.
					d.closeForCrashTest()
					if d, err = Open(dir, Options{DisableAutoFlush: true}); err != nil {
						t.Fatalf("op %d crash reopen: %v", i, err)
					}
				default:
					sql := genStmt(rng, stmtKinds)
					st, err := sqlparse.ParseStatement(sql)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					if _, err := d.ExecStmt(st); err != nil {
						t.Fatalf("op %d exec %s: %v", i, sql, err)
					}
					if _, err := ref.app.Apply(st); err != nil {
						t.Fatalf("op %d apply %s: %v", i, sql, err)
					}
				}
				if i%5 == 4 {
					check(fmt.Sprintf("op %d", i))
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			check("final flush")
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
			check("final compact")
			requireSame(t, d, ref, "final")
		})
	}
}

// explainText renders the optimized physical plan for q against the
// snapshot, the way the server's EXPLAIN endpoint does.
func explainText(t *testing.T, db *core.UDB, q core.Query) string {
	t.Helper()
	plan, _, err := db.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	text, err := engine.Explain(plan, engine.NewCatalog(), true)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// planEstimates lists, top down, what each node line of an EXPLAIN
// (rows=) or EXPLAIN ANALYZE (est=) text says the node yields.
func planEstimates(text, key string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, key); i >= 0 {
			out = append(out, strings.FieldsFunc(line[i+len(key):], func(r rune) bool { return r == ' ' || r == ')' })[0])
		}
	}
	return out
}

// joinLabel returns the operator name on the text's first join line.
func joinLabel(t *testing.T, text string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		for _, name := range []string{"Hash Join", "Hash Join (semi)"} {
			if strings.Contains(line, name+"  (") {
				return name
			}
		}
	}
	t.Fatalf("no join line in:\n%s", text)
	return ""
}

// TestJoinChoiceSelectivity is the optimizer acceptance criterion for
// joins over an indexed stored relation, asserted on plan text: an
// index on the join column does not change the strategy. A join of an
// outer side of 5 to 2 499 rows with an indexed 20 000-row inner side is
// a hash join, with segments decoded afresh (no segment cache) and kept
// decoded (cache attached), as are two large inputs and a join on an
// unindexed column. The plan EXPLAIN prints is the plan EXPLAIN ANALYZE
// ran, node for node on the same estimates, and it returns the answers
// of the plans from before the index. The index still serves an
// equality filter: a point query's store scan probes it.
func TestJoinChoiceSelectivity(t *testing.T) {
	const n = 20000
	db := core.NewUDB()
	db.MustAddRelation("big", "k", "v")
	ub := db.MustAddPartition("big", "u_big", "k", "v")
	for i := 0; i < n; i++ {
		ub.Add(nil, int64(i+1), engine.Int(int64((i*2654435761)%n)), engine.Int(int64(i)))
	}
	outers := []int{5, 10, 1000, n/8 - 1}
	for _, m := range outers {
		name := fmt.Sprintf("o%d", m)
		db.MustAddRelation(name, "k", "w")
		uo := db.MustAddPartition(name, "u_"+name, "k", "w")
		for i := 0; i < m; i++ {
			uo.Add(nil, int64(i+1), engine.Int(int64((i*37*2654435761)%n)), engine.Int(int64(i)))
		}
	}
	dir := t.TempDir()
	if err := store.Save(db, dir); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()

	outerJoin := func(m int) core.Query {
		return core.Project(core.Join(core.RelAs(fmt.Sprintf("o%d", m), "s"), core.RelAs("big", "b"),
			engine.Eq(engine.Col("s.k"), engine.Col("b.k"))), "s.k", "b.v")
	}
	largeLarge := core.Project(core.Join(core.RelAs("big", "b1"), core.RelAs("big", "b2"),
		engine.Eq(engine.Col("b1.k"), engine.Col("b2.k"))), "b1.k", "b2.v")
	unindexed := core.Join(core.RelAs("big", "b1"), core.RelAs("big", "b2"),
		engine.Eq(engine.Col("b1.v"), engine.Col("b2.v")))

	// Reference answers before any index exists (pure scan plans).
	want := map[int][]string{}
	for _, m := range outers {
		want[m] = possRows(t, d.Snapshot(), outerJoin(m))
	}
	if _, err := d.Exec("create index on big(k)"); err != nil {
		t.Fatal(err)
	}

	// check asserts that EXPLAIN names a hash join for q, that EXPLAIN
	// ANALYZE ran one on the same per-node estimates, and the answers.
	check := func(what string, q core.Query, want []string) {
		t.Helper()
		plan := explainText(t, d.Snapshot(), q)
		if got := joinLabel(t, plan); got != "Hash Join" {
			t.Fatalf("%s: EXPLAIN chose %s:\n%s", what, got, plan)
		}
		res, err := d.Snapshot().ExplainAnalyze(q, false, engine.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := joinLabel(t, res.Text); got != "Hash Join" {
			t.Fatalf("%s: EXPLAIN ANALYZE ran %s:\n%s", what, got, res.Text)
		}
		rows, ests := planEstimates(plan, "(rows="), planEstimates(res.Text, " est=")
		if len(rows) == 0 || strings.Join(rows, " ") != strings.Join(ests, " ") {
			t.Fatalf("%s: EXPLAIN rows= %v, EXPLAIN ANALYZE est= %v:\n%s\n%s", what, rows, ests, plan, res.Text)
		}
		if want == nil {
			return
		}
		got := possRows(t, d.Snapshot(), q)
		if len(got) != len(want) {
			t.Fatalf("%s answers diverge: %d vs %d rows", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s row %d: %q vs %q", what, i, got[i], want[i])
			}
		}
	}

	for _, mode := range []string{"uncached", "cached"} {
		if mode == "cached" {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if d, err = Open(dir, Options{DisableAutoFlush: true, Cache: store.NewSegCache(64 << 20)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range outers {
			check(fmt.Sprintf("%s, %d-row outer", mode, m), outerJoin(m), want[m])
		}
		check(mode+", large ⋈ large on the indexed column", largeLarge, nil)
		check(mode+", large ⋈ large on an unindexed column", unindexed, nil)
		pointPlan := explainText(t, d.Snapshot(), lookupBigQuery(5))
		if !strings.Contains(pointPlan, ", index big.k = 5)") {
			t.Fatalf("%s: point query did not route through the index:\n%s", mode, pointPlan)
		}
	}
}

func lookupBigQuery(k int) core.Query {
	return core.Select(core.Rel("big"),
		engine.Eq(engine.Col("k"), engine.ConstInt(int64(k))))
}
