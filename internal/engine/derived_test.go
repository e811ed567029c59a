package engine_test

import (
	"testing"

	"urel/internal/engine"
	"urel/internal/tpch"
)

// TestOptimizedPlansReportDerivedSchemas: every node of the optimized
// plans of the paper's Q1–Q3, on the lo and the hi dataset, reports the
// schema its inputs derive. A node derives its schema once and keeps it,
// so a rewrite that wrote a node after reading its schema would leave a
// stale one behind.
func TestOptimizedPlansReportDerivedSchemas(t *testing.T) {
	for _, x := range []float64{0.01, 0.1} {
		p := tpch.DefaultParams(0.05, x, 0.25)
		p.Seed = 1
		db, _, err := tpch.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Q1", "Q2", "Q3"} {
			plan, _, err := db.Translate(tpch.Queries()[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cat := engine.NewCatalog()
			opt, err := engine.Optimize(plan, cat)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			engine.CheckDerivedSchemas(t, opt, cat)
		}
	}
}
