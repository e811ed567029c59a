package engine

import (
	"fmt"
)

// IndexedSource is a SourcePlan backed by persistent secondary indexes
// (internal/index sorted runs over the store's segment files). The
// engine stays storage-agnostic: it only asks which output columns
// have an equality index, what one probe is expected to return, and
// for an iterator over the rows matching a key — the storage layer
// answers from its runs, bloom filters, tombstones, and memtable, so an
// index hit is never stale.
type IndexedSource interface {
	SourcePlan
	// SourceName names the underlying relation/partition for EXPLAIN.
	SourceName() string
	// IndexedCols returns the canonical output column names that have a
	// usable equality index (every file layer carries a run).
	IndexedCols() []string
	// LookupEq returns an iterator over exactly the live rows whose
	// column equals key, in the source's full output schema.
	LookupEq(col string, key Value) (Iterator, error)
	// LookupEstimate estimates the rows one equality probe returns.
	LookupEstimate(col string) float64
}

// IndexScanPlan is the leaf produced by the optimizer's index rewrite:
// an equality filter over an IndexedSource leaf becomes one probe of
// the source's sorted-run indexes. It is itself a SourcePlan, so the
// generic lowering and the estimator handle it like any storage leaf.
type IndexScanPlan struct {
	Src IndexedSource
	Col string // canonical column name in the source's schema
	Key Value
}

func (p *IndexScanPlan) Schema(cat *Catalog) (Schema, error) { return p.Src.Schema(cat) }
func (p *IndexScanPlan) Children() []Plan                    { return nil }
func (p *IndexScanPlan) WithChildren([]Plan) Plan            { c := *p; return &c }

func (p *IndexScanPlan) Label() string {
	return fmt.Sprintf("Index Scan on %s (%s = %s)", p.Src.SourceName(), p.Col, p.Key.Quoted())
}

// BuildIter lowers the probe to the source's lookup iterator.
func (p *IndexScanPlan) BuildIter(ExecConfig) (Iterator, error) {
	return p.Src.LookupEq(p.Col, p.Key)
}

// EstimateRowCount reports the expected probe result size.
func (p *IndexScanPlan) EstimateRowCount() float64 { return p.Src.LookupEstimate(p.Col) }

// joinChoice is the physical join decision shared by Build, its trace
// spans and EXPLAIN, so the plan printed is the plan executed.
// The nested loop is chosen exactly when the condition has no equi pair.
type joinChoice struct {
	pairs    []EquiPair // the condition's equi pairs…
	residual Expr       // …and what is left of it
}

// label names the join operator the choice lowers to.
func (c joinChoice) label(kind JoinKind) string {
	s := "Nested Loop"
	if len(c.pairs) > 0 {
		s = "Hash Join"
	}
	if kind == SemiJoin {
		s += " (semi)"
	}
	return s
}

// chooseJoin picks the physical strategy for a join from its input
// schemas alone: the nested loop when the condition has no equi pair,
// the hash join otherwise. A semi join has one operator, which hashes
// on whatever pairs there are; for it the choice only names it.
func chooseJoin(n *JoinPlan, cat *Catalog) (joinChoice, error) {
	ls, err := n.L.Schema(cat)
	if err != nil {
		return joinChoice{}, err
	}
	rs, err := n.R.Schema(cat)
	if err != nil {
		return joinChoice{}, err
	}
	var c joinChoice
	c.pairs, c.residual = ExtractEquiJoin(n.Cond, ls, rs)
	return c, nil
}
