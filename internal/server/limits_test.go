package server

import (
	"errors"
	"testing"
	"time"

	"urel/internal/engine"
)

var errScanFault = errors.New("injected scan fault")

// faultyLeaf is a source plan whose iterator serves one batch of rows
// and fails on the second pull, like a scan hitting a corrupt segment.
type faultyLeaf struct{ rel *engine.Relation }

func (l *faultyLeaf) Schema(*engine.Catalog) (engine.Schema, error) { return l.rel.Sch, nil }
func (l *faultyLeaf) Children() []engine.Plan                       { return nil }
func (l *faultyLeaf) WithChildren([]engine.Plan) engine.Plan        { return l }
func (l *faultyLeaf) Label() string                                 { return "faulty scan" }
func (l *faultyLeaf) EstimateRowCount() float64                     { return float64(l.rel.Len()) }
func (l *faultyLeaf) BuildIter(engine.ExecConfig) (engine.Iterator, error) {
	return &faultyIter{Iterator: engine.NewScan(l.rel)}, nil
}

type faultyIter struct {
	engine.Iterator
	pulls int
}

func (f *faultyIter) Next() (*engine.ColBatch, bool, error) {
	if f.pulls++; f.pulls > 1 {
		return nil, false, errScanFault
	}
	return f.Iterator.Next()
}

// TestRunLimitedReportsLookAheadError: when the first batch lands
// exactly on the row cap, runLimited pulls once more to learn whether
// the result was truncated. A failure of that pull is the query's
// failure, not "complete, not truncated".
func TestRunLimitedReportsLookAheadError(t *testing.T) {
	rel := engine.NewRelation(engine.NewSchema(engine.Column{Name: "a", Kind: engine.KindInt}))
	for i := int64(0); i < 3; i++ {
		rel.Append(engine.Tuple{engine.Int(i)})
	}
	_, truncated, err := runLimited(&faultyLeaf{rel: rel}, engine.NewCatalog(),
		engine.ExecConfig{}, rel.Len(), time.Time{}, true)
	if !errors.Is(err, errScanFault) {
		t.Fatalf("runLimited returned truncated=%v, err=%v; want the scan's error", truncated, err)
	}
}
