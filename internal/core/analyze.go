package core

import (
	"urel/internal/engine"
	"urel/internal/obs"
)

// ExplainAnalyzeResult is what EXPLAIN ANALYZE produced: the rendered
// plan annotated with actuals, the raw span tree (for JSON transport),
// and the executed plan's representation-level row count.
type ExplainAnalyzeResult struct {
	Text  string
	Trace *obs.Span
	Rows  int
}

// ExplainAnalyze translates q and actually executes the translated
// relational plan with operator tracing, returning the plan annotated
// with per-operator actual rows/batches/time, estimate drift, and
// store-side statistics. full selects the translation: false runs
// Translate, the plan the query server runs in every mode (poss(q) as a
// projection, Theorem 3.5, or the representation that plain, certain
// and conf evaluation decode and post-process — the post-relational
// steps are not iterators and are reported by the caller's timings, not
// the trace); true runs TranslateFull of the poss-free query, the
// reference that merges every partition.
func (db *UDB) ExplainAnalyze(q Query, full bool, cfg engine.ExecConfig) (*ExplainAnalyzeResult, error) {
	var plan engine.Plan
	var err error
	if full {
		if _, ok := q.(*PossQ); ok {
			q = StripPoss(q)
		}
		plan, _, err = db.TranslateFull(q)
	} else {
		// Translate dispatches on *PossQ itself: wrapped queries get the
		// poss projection, bare ones the representation.
		plan, _, err = db.Translate(q)
	}
	if err != nil {
		return nil, err
	}
	cat := engine.NewCatalog()
	text, span, rel, err := engine.ExplainAnalyze(plan, cat, cfg)
	if err != nil {
		return nil, err
	}
	return &ExplainAnalyzeResult{Text: text, Trace: span, Rows: rel.Len()}, nil
}
