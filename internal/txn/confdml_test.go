package txn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/store"
)

// TestConfidenceDifferentialAfterDML pins the confidence fast paths
// across the write path: after randomized DML (insert/delete/update,
// with flushes and compactions interleaved), the persistent snapshot's
// dispatcher confidences must equal brute-force world enumeration over
// an in-memory reference that applied the same statements, the
// read-once detector must agree wherever it fires, and the one-pass
// bounds must sandwich the exact value; and checkAnswers holds the
// translation the server runs to the worlds too, after every step. DML
// only adds certain rows, so the fixture's world count (6) stays
// oracle-sized throughout.
func TestConfidenceDifferentialAfterDML(t *testing.T) {
	const maxWorlds = 64
	queries := []core.Query{
		core.Rel("r"),
		core.Rel("s"),
		core.Project(core.Rel("r"), "b"),
		core.Select(core.Rel("r"), engine.Cmp(engine.LT, engine.Col("a"), engine.ConstInt(30))),
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := fixtureDB()
			refUDB := base.Clone()
			app, err := NewApplier(refUDB)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := store.Save(base, dir); err != nil {
				t.Fatal(err)
			}
			d, err := Open(dir, Options{DisableAutoFlush: true})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { d.Close() }()

			check := func(step string) {
				snap := d.Snapshot()
				for _, q := range queries {
					oracle, err := refUDB.ConfidenceGroundTruth(q, maxWorlds)
					if err != nil {
						t.Fatalf("%s: oracle for %s: %v", step, q, err)
					}
					res, err := snap.Eval(q, engine.ExecConfig{})
					if err != nil {
						t.Fatalf("%s: eval %s: %v", step, q, err)
					}
					confs, stats, err := res.ConfidencesDispatch(core.ConfOptions{})
					if err != nil {
						t.Fatalf("%s: dispatch %s: %v", step, q, err)
					}
					if stats.MC != 0 {
						t.Fatalf("%s: %s sampled %d tuples on a %d-world catalog", step, q, stats.MC, maxWorlds)
					}
					for _, tc := range confs {
						k := engine.KeyString(tc.Vals)
						if w := oracle[k]; math.Abs(tc.P-w) > 1e-9 {
							t.Fatalf("%s: %s: confidence %v for %v, oracle says %v", step, q, tc.P, tc.Vals, w)
						}
					}
					for _, tb := range res.ConfidenceBounds() {
						w := oracle[engine.KeyString(tb.Vals)]
						if tb.Certain > w+1e-9 || w > tb.Possible+1e-9 {
							t.Fatalf("%s: %s: bounds [%v, %v] do not sandwich exact %v for %v",
								step, q, tb.Certain, tb.Possible, w, tb.Vals)
						}
					}
				}
				checkAnswers(t, step, snap, refUDB)
			}

			check("initial")
			for i := 0; i < 24; i++ {
				switch r := rng.Intn(10); {
				case r == 0:
					if err := d.Flush(); err != nil {
						t.Fatalf("op %d flush: %v", i, err)
					}
				case r == 1:
					if err := d.Compact(); err != nil {
						t.Fatalf("op %d compact: %v", i, err)
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
					if _, err := app.Apply(st); err != nil {
						t.Fatalf("op %d apply %s: %v", i, sql, err)
					}
				}
				check(fmt.Sprintf("op %d", i))
			}
			check("final")
		})
	}
}
