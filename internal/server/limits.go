package server

import (
	"errors"
	"time"

	"urel/internal/engine"
)

// Sentinel failures of the limited execution path; the handler maps
// them to 413 and 504.
var (
	errRowLimit = errors.New("server: result exceeds the row limit")
	errTimeout  = errors.New("server: query deadline exceeded")
)

// runLimited lowers and drains an optimized plan under a row cap and a
// deadline, making each batch into rows (the sink) and checking both
// between batches so a runaway query stops materializing instead of
// exhausting memory. When truncatable, a result that hits the cap is
// cut there and flagged; otherwise hitting the cap is an error
// (certain/conf answers derived from a truncated representation would
// be wrong). The plan is only read, so a cached plan runs here as
// often, and as concurrently, as it is asked to.
func runLimited(p engine.Plan, cat *engine.Catalog, cfg engine.ExecConfig,
	maxRows int, deadline time.Time, truncatable bool) (*engine.Relation, bool, error) {
	it, err := engine.Build(p, cat, cfg)
	if err != nil {
		return nil, false, err
	}
	if err := it.Open(); err != nil {
		return nil, false, err
	}
	defer it.Close()
	out := engine.NewRelation(it.Schema())
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, false, errTimeout
		}
		cb, ok, err := it.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return out, false, nil
		}
		out.Rows = cb.Materialize(out.Rows)
		if maxRows > 0 && len(out.Rows) >= maxRows {
			if !truncatable {
				return nil, false, errRowLimit
			}
			over := len(out.Rows) > maxRows
			out.Rows = out.Rows[:maxRows]
			if over {
				return out, true, nil
			}
			// Exactly at the cap: truncation is only real if more rows
			// were coming.
			_, more, err := it.Next()
			if err != nil {
				return nil, false, err
			}
			return out, more, nil
		}
	}
}

// checkDeadline returns errTimeout once the deadline has passed; used
// between the plan and the certain-answer or confidence computation
// over its result, each of which probes the deadline itself from there.
func checkDeadline(deadline time.Time) error {
	if !deadline.IsZero() && time.Now().After(deadline) {
		return errTimeout
	}
	return nil
}
