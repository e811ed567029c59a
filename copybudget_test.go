//go:build !race

package urel_test

import (
	"runtime"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/tpch"
)

// TestCopyBudget puts a ceiling on the bytes one serial EvalPoss of the
// paper's Q1–Q3 allocates on an in-memory database (s 0.05, x 0.1,
// z 0.25, seed 1), a quarter above what it takes when a row is copied
// once: by the join that emits it, at its output width, from partitions
// that were encoded by an earlier query. The clock of a shared machine
// cannot resolve a copy coming back; bytes repeat to a hundredth of a
// percent. (The race detector changes what allocates, hence the tag.)
//
// Before build sides kept headers, joins emitted through their
// projection and partitions kept their image, the three took 11.6, 17.8
// and 6.3 MB.
func TestCopyBudget(t *testing.T) {
	p := tpch.DefaultParams(0.05, 0.1, 0.25)
	p.Seed = 1
	db, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		q       core.Query
		ceiling float64 // MB per evaluation, a quarter above the figure beside it
	}{
		{"Q1", tpch.Q1(), 4.65}, // 3.72
		{"Q2", tpch.Q2(), 4.40}, // 3.52
		{"Q3", tpch.Q3(), 3.00}, // 2.41
	} {
		eval := func() {
			if _, err := db.EvalPoss(c.q, engine.ExecConfig{}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		eval() // the first query over a partition encodes it and takes its statistics
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			eval()
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6
		t.Logf("%s: %.2f MB per evaluation (ceiling %.2f)", c.name, mb, c.ceiling)
		if mb > c.ceiling {
			t.Errorf("%s allocates %.2f MB per evaluation, over its ceiling of %.2f MB: a row is being copied again somewhere", c.name, mb, c.ceiling)
		}
	}
}
