package engine

import (
	"testing"

	"urel/internal/obs"
)

// traceRun builds p with tracing rooted at a fresh span, drains it,
// and returns the result with the root.
func traceRun(t *testing.T, p Plan, cat *Catalog, cfg ExecConfig) (*Relation, *obs.Span) {
	t.Helper()
	root := obs.NewSpan("query")
	cfg.Trace = root
	it, err := Build(p, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return out, root
}

// colLeaf is a SourcePlan over a colSource, so plan-level tests can put
// a typed-vector scan under the operators Build produces.
type colLeaf struct {
	rel  *Relation
	name string
}

func (l *colLeaf) Schema(*Catalog) (Schema, error)        { return l.rel.Sch, nil }
func (l *colLeaf) Children() []Plan                       { return nil }
func (l *colLeaf) WithChildren([]Plan) Plan               { return l }
func (l *colLeaf) Label() string                          { return "Seq Scan on " + l.name }
func (l *colLeaf) EstimateRowCount() float64              { return float64(l.rel.Len()) }
func (l *colLeaf) BuildIter(ExecConfig) (Iterator, error) { return newColSource(l.rel, 64), nil }

// spanRows walks the trace tree and returns the recorded row count of
// the span whose operator label matches, -1 when absent.
func findSpan(sp *obs.Span, label string) *obs.Span {
	if sp.Op() == label {
		return sp
	}
	for _, c := range sp.Children() {
		if f := findSpan(c, label); f != nil {
			return f
		}
	}
	return nil
}

func countSpans(sp *obs.Span) int {
	n := 1
	for _, c := range sp.Children() {
		n += countSpans(c)
	}
	return n
}

// TestTraceRowCountsMatchResult asserts the invariant EXPLAIN ANALYZE
// rests on: the root operator's traced row count equals the rows the
// query actually produced — over relation scans, with the inert
// Parallelism field set, and with a filter pulling through the trace
// wrapper of a typed-vector leaf.
func TestTraceRowCountsMatchResult(t *testing.T) {
	cat := planCatalog()
	big := Cmp(GT, Col("o.total"), ConstInt(500))
	onKey := EqCols("c.custkey", "o.custkey")
	p := Project(Filter(Join(Scan("customer"), Scan("orders"), onKey), big),
		"o.orderkey", "c.name")
	cust, _ := cat.Get("customer")
	ord, _ := cat.Get("orders")
	ordLeaf := &colLeaf{rel: ord, name: "orders"}
	colP := Project(Join(&colLeaf{rel: cust, name: "customer"}, Filter(ordLeaf, big), onKey),
		"o.orderkey", "c.name")
	want, err := RunDefault(p, cat)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("fixture query must produce rows")
	}
	for _, tc := range []struct {
		name string
		plan Plan
		cfg  ExecConfig
	}{
		{"serial", p, ExecConfig{}},
		{"parallel", p, ExecConfig{Parallelism: 4}}, // ignored: traces as serial
		{"columnar", colP, ExecConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, root := traceRun(t, tc.plan, cat, tc.cfg)
			if !want.EqualAsBag(out) {
				t.Fatalf("traced run changed the result: want %d rows, got %d", want.Len(), out.Len())
			}
			kids := root.Children()
			if len(kids) != 1 {
				t.Fatalf("query root should have exactly the top operator, got %d children", len(kids))
			}
			top := kids[0]
			if got := top.Rows(); got != int64(out.Len()) {
				t.Fatalf("top operator %q traced %d rows, result has %d", top.Op(), got, out.Len())
			}
			// Every plan node must be present in the trace: project,
			// filter, join, two scans (Build wraps recursively).
			if n := countSpans(top); n != 5 {
				t.Fatalf("trace has %d operator spans, plan has 5 nodes:\n%s", n, top)
			}
			// The scans feed everything: each must have traced exactly
			// its base relation's cardinality.
			for _, sc := range []struct {
				label string
				rows  int64
			}{{"Seq Scan on customer", 50}, {"Seq Scan on orders", 200}} {
				sp := findSpan(top, sc.label)
				if sp == nil {
					t.Fatalf("span %q missing from trace:\n%s", sc.label, top)
				}
				if sp.Rows() != sc.rows {
					t.Fatalf("%s traced %d rows, want %d", sc.label, sp.Rows(), sc.rows)
				}
			}
		})
	}
}

// TestTraceDisabledIsUnwrapped asserts the zero-config build path pays
// nothing for tracing: no wrapper iterators appear.
func TestTraceDisabledIsUnwrapped(t *testing.T) {
	cat := planCatalog()
	it, err := Build(Filter(Scan("orders"), Cmp(GT, Col("o.total"), ConstInt(0))), cat, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, wrapped := it.(*traceIter); wrapped {
		t.Fatal("Build wrapped a trace iterator without cfg.Trace")
	}
}

// TestTraceBatchCounts asserts batch accounting: every pull is recorded
// as a batch and the batch row sums equal the result.
func TestTraceBatchCounts(t *testing.T) {
	cat := planCatalog()
	p := Filter(Scan("orders"), Cmp(GT, Col("o.total"), ConstInt(990)))
	out, root := traceRun(t, p, cat, ExecConfig{})
	top := root.Children()[0]
	if top.Rows() != int64(out.Len()) {
		t.Fatalf("traced %d rows, result has %d", top.Rows(), out.Len())
	}
	if out.Len() > 0 && top.Batches() == 0 {
		t.Fatal("Drain pulls batches; the trace recorded none")
	}
}
