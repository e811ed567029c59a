// Package bench regenerates the tables and figures of the paper's
// evaluation (Section 6: Fig. 6/7, 9, 10, 11, 12, 13, 14) on the Go
// substrate; cmd/urbench prints them. The paper's baselines live below
// it (bench/uldb, bench/wsd). It is not where performance is measured:
// the gated benchmark in benchmark/ is, and links none of this.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/tpch"
)

// QueryMeasurement is one timed evaluation of a translated query.
type QueryMeasurement struct {
	Query    string
	Params   tpch.Params
	Elapsed  time.Duration
	ReprRows int // representation-level result tuples (paper's answer size)
	Distinct int // distinct possible tuples (poss output)
}

// RunQuery translates the (poss-wrapped) query lazily, evaluates it,
// and measures both the representation-level answer and the distinct
// poss projection.
func RunQuery(db *core.UDB, name string, q core.Query, cfg engine.ExecConfig) (QueryMeasurement, error) {
	inner := core.StripPoss(q)
	start := time.Now()
	plan, lay, err := db.Translate(inner)
	if err != nil {
		return QueryMeasurement{}, err
	}
	cat := engine.NewCatalog()
	rel, err := engine.Run(plan, cat, cfg)
	if err != nil {
		return QueryMeasurement{}, err
	}
	// poss: distinct projection on the value attributes.
	it := engine.NewDistinct(engine.NewProject(engine.NewScan(rel), lay.Attrs))
	distinct, err := engine.Drain(it)
	if err != nil {
		return QueryMeasurement{}, err
	}
	elapsed := time.Since(start)
	return QueryMeasurement{
		Query:    name,
		Elapsed:  elapsed,
		ReprRows: rel.Len(),
		Distinct: distinct.Len(),
	}, nil
}

// dbCache avoids regenerating identical datasets within one figure.
type dbCache map[string]cached

type cached struct {
	db *core.UDB
	st tpch.Stats
}

func (c dbCache) get(p tpch.Params) (*core.UDB, tpch.Stats, error) {
	k := p.String() + fmt.Sprintf(" seed=%d", p.Seed)
	if e, ok := c[k]; ok {
		return e.db, e.st, nil
	}
	db, st, err := tpch.Generate(p)
	if err != nil {
		return nil, tpch.Stats{}, err
	}
	c[k] = cached{db: db, st: st}
	return db, st, nil
}

// Grid bundles the parameter sweep of the paper's Section 6. The
// default mirrors the paper's grid; callers shrink it for quick runs.
type Grid struct {
	Scales []float64
	Zs     []float64
	Xs     []float64 // excluding the x=0 baseline where not applicable
	Reps   int       // repetitions per point (paper: 4, median)
	// Seed overrides the generator seed for every dataset of the sweep
	// (0 keeps the tpch default).
	Seed int64
}

// params builds the tpch parameters for one sweep point, honoring the
// grid's seed override.
func (g Grid) params(s, x, z float64) tpch.Params {
	p := tpch.DefaultParams(s, x, z)
	if g.Seed != 0 {
		p.Seed = g.Seed
	}
	return p
}

// PaperGrid returns the paper's full sweep.
func PaperGrid() Grid {
	return Grid{
		Scales: []float64{0.01, 0.05, 0.1, 0.5, 1},
		Zs:     []float64{0.1, 0.25, 0.5},
		Xs:     []float64{0.001, 0.01, 0.1},
		Reps:   4,
	}
}

// QuickGrid returns a laptop-minute-scale subset.
func QuickGrid() Grid {
	return Grid{
		Scales: []float64{0.01, 0.05, 0.1},
		Zs:     []float64{0.1, 0.5},
		Xs:     []float64{0.01, 0.1},
		Reps:   2,
	}
}

// SmokeGrid returns a single-point grid: one small dataset, one rep.
func SmokeGrid() Grid {
	return Grid{
		Scales: []float64{0.01},
		Zs:     []float64{0.25},
		Xs:     []float64{0.01},
		Reps:   1,
	}
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
