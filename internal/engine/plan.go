package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"urel/internal/obs"
)

// Plan is a logical query plan node. Plans are built against a Catalog
// (scans resolve names at Schema/Build time), optimized by Optimize,
// and lowered to physical iterators by Build. Leaf nodes provided by
// external storage layers implement SourcePlan. A node is immutable once
// built: a rewrite builds a new node, so what a node derives from its
// inputs it derives once, on the first ask, and keeps.
type Plan interface {
	// Schema is the output schema of the node. A node that has to work
	// it out (a projection, rename, extend, join or stitch) does so on the
	// first call and keeps it, with the catalog of that call.
	Schema(cat *Catalog) (Schema, error)
	// Children returns the input plans (empty for leaves). The slice may
	// be the node's own: callers read it and never write to it.
	Children() []Plan
	// WithChildren returns a copy of the node with replaced inputs.
	WithChildren(children []Plan) Plan
	// Label renders the node head for EXPLAIN.
	Label() string
}

// SourcePlan is a leaf plan backed by an external storage layer (e.g.
// internal/store's segment files). The engine treats it opaquely:
// Build lowers it via BuildIter, and the estimator consults
// EstimateRowCount, so storage formats can plug into planning without
// the engine importing them.
type SourcePlan interface {
	Plan
	// BuildIter lowers the leaf to a physical iterator.
	BuildIter(cfg ExecConfig) (Iterator, error)
	// EstimateRowCount estimates the rows the leaf will produce,
	// reflecting any source-level skipping (e.g. segment pruning).
	EstimateRowCount() float64
}

// FilterAdvisor is implemented by source plans that can exploit a
// predicate evaluated directly above them to skip data (segment
// pruning by min/max statistics, an index probe). The advice is purely an
// optimization: the filter is still applied on top, so sources may
// only skip rows that provably fail the predicate. A source takes
// advice once and ignores it after: Optimize advises, and the Build of
// the plan it returns must not write to it.
type FilterAdvisor interface {
	AdviseFilter(cond Expr)
}

// ScanPlan reads a named relation from the catalog.
type ScanPlan struct {
	Name string
}

// Scan builds a catalog scan.
func Scan(name string) *ScanPlan { return &ScanPlan{Name: name} }

func (p *ScanPlan) Schema(cat *Catalog) (Schema, error) {
	r, err := cat.Get(p.Name)
	if err != nil {
		return Schema{}, err
	}
	return r.Sch, nil
}

func (p *ScanPlan) Children() []Plan         { return nil }
func (p *ScanPlan) WithChildren([]Plan) Plan { c := *p; return &c }
func (p *ScanPlan) Label() string            { return "Seq Scan on " + p.Name }

// ValuesPlan scans an anonymous column batch held in memory (Batch,
// whose N rows it serves in windows that share its vectors; it has no
// Sel). The U-relation layer uses it to evaluate over representations
// that are not registered in a catalog — an in-memory partition as
// columns.
type ValuesPlan struct {
	Batch *ColBatch
	Name  string // display name for EXPLAIN
	// Sorted names an int column of Batch whose cells ascend, "" none:
	// keys handed down on it (KeyNarrower) narrow the scan to the window
	// of rows inside their range, found by binary search, and a stitch
	// finds rows by their key in it (RowLookup).
	Sorted string
	// Stats, when non-nil, returns the data's statistics (never nil), by
	// its columns' positions. A producer that already keeps statistics for
	// the data sets it so they travel with the plan; it is only called
	// when an estimate is asked for. Without it the estimator scans the
	// data (ComputeBatchStats), once per planning pass.
	Stats func() *TableStats
	// Runs, when non-nil, returns the value-order run (ValueOrder) of an
	// int column of Batch, nil for none: a key list on the column finds
	// its rows in it. A producer that keeps the data sets it, and keeps
	// each run it builds with the data, as it keeps Stats.
	Runs func(col int) []int32
}

// ValueOrder is the value-order run of v, a typed int column: its rows
// that are not NULL, by value and, among equal values, by row. Nil when
// v holds anything but typed ints.
func ValueOrder(v *ColVec) []int32 {
	if v.Vals != nil || v.Kind != KindInt {
		return nil
	}
	run := make([]int32, 0, len(v.Ints))
	for i := range v.Ints {
		if !v.IsNull(i) {
			run = append(run, int32(i))
		}
	}
	slices.SortFunc(run, func(a, b int32) int {
		if c := cmp.Compare(v.Ints[a], v.Ints[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return run
}

// Values builds a scan over an unregistered relation, laid out once as
// a column batch.
func Values(rel *Relation, name string) *ValuesPlan {
	return &ValuesPlan{Batch: relBatch(rel), Name: name}
}

func (p *ValuesPlan) Schema(*Catalog) (Schema, error) { return p.Batch.Sch, nil }
func (p *ValuesPlan) Children() []Plan                { return nil }
func (p *ValuesPlan) WithChildren([]Plan) Plan        { c := *p; return &c }
func (p *ValuesPlan) Label() string {
	n := p.Name
	if n == "" {
		n = "values"
	}
	return fmt.Sprintf("Seq Scan on %s", n)
}

// FilterPlan applies a predicate.
type FilterPlan struct {
	Child Plan
	Cond  Expr
}

// Filter builds a selection.
func Filter(child Plan, cond Expr) *FilterPlan { return &FilterPlan{Child: child, Cond: cond} }

func (p *FilterPlan) Schema(cat *Catalog) (Schema, error) { return p.Child.Schema(cat) }
func (p *FilterPlan) Children() []Plan                    { return unsafe.Slice(&p.Child, 1) }
func (p *FilterPlan) WithChildren(ch []Plan) Plan         { return &FilterPlan{Child: ch[0], Cond: p.Cond} }
func (p *FilterPlan) Label() string                       { return "Filter: " + p.Cond.String() }

// derivedSchema is a node's schema, worked out on the first ask.
type derivedSchema struct {
	once sync.Once
	sch  Schema
	err  error
}

// get is the schema derive works out, derived on the first call.
func (d *derivedSchema) get(derive func() (Schema, error)) (Schema, error) {
	d.once.Do(func() { d.sch, d.err = derive() })
	return d.sch, d.err
}

// ProjectPlan projects to named columns.
type ProjectPlan struct {
	Child Plan
	Names []string

	d derivedSchema
}

// Project builds a projection.
func Project(child Plan, names ...string) *ProjectPlan {
	return &ProjectPlan{Child: child, Names: names}
}

func (p *ProjectPlan) Schema(cat *Catalog) (Schema, error) {
	return p.d.get(func() (Schema, error) {
		in, err := p.Child.Schema(cat)
		if err != nil {
			return Schema{}, err
		}
		return in.Project(p.Names)
	})
}

func (p *ProjectPlan) Children() []Plan { return unsafe.Slice(&p.Child, 1) }
func (p *ProjectPlan) WithChildren(ch []Plan) Plan {
	return &ProjectPlan{Child: ch[0], Names: p.Names}
}
func (p *ProjectPlan) Label() string { return "Project: " + strings.Join(p.Names, ", ") }

// RenamePlan relabels all columns positionally (relation aliasing).
type RenamePlan struct {
	Child Plan
	Names []string

	d derivedSchema
}

// Rename relabels columns positionally.
func Rename(child Plan, names []string) *RenamePlan {
	return &RenamePlan{Child: child, Names: names}
}

func (p *RenamePlan) Schema(cat *Catalog) (Schema, error) {
	return p.d.get(func() (Schema, error) {
		in, err := p.Child.Schema(cat)
		if err != nil {
			return Schema{}, err
		}
		if len(p.Names) != in.Len() {
			return Schema{}, fmt.Errorf("engine: rename: %d names for %d columns", len(p.Names), in.Len())
		}
		cols := make([]Column, in.Len())
		for i := range cols {
			cols[i] = Column{Name: p.Names[i], Kind: in.Cols[i].Kind}
		}
		return Schema{Cols: cols}, nil
	})
}

func (p *RenamePlan) Children() []Plan { return unsafe.Slice(&p.Child, 1) }
func (p *RenamePlan) WithChildren(ch []Plan) Plan {
	return &RenamePlan{Child: ch[0], Names: p.Names}
}
func (p *RenamePlan) Label() string { return "Rename" }

// JoinKind selects inner join vs semi join.
type JoinKind uint8

// Join kinds.
const (
	InnerJoin JoinKind = iota
	SemiJoin
)

// JoinPlan joins two inputs under an arbitrary predicate (nil = cross
// product). Build lowers it to the hash join, or the semi join.
type JoinPlan struct {
	Kind JoinKind
	L, R Plan
	Cond Expr
	// Out, when non-nil, is the projection an inner join emits through:
	// the columns of L ++ R it produces, in order, named as written (as a
	// ProjectPlan's are). Cond still sees every column. Optimize sets it
	// when it folds a projection into the join below; nil is all columns.
	Out []string

	d joinDerived
}

// joinDerived is what a join or a stitch works out from its inputs'
// schemas on the first ask: the row they concatenate to, the schema it
// emits through Out and the position in that row of each of its columns
// (nil when Out is). inErr is an input's schema error; err is that or
// Out's.
type joinDerived struct {
	once       sync.Once
	full, sch  Schema
	pick       []int
	inErr, err error
}

// Join builds an inner join.
func Join(l, r Plan, cond Expr) *JoinPlan { return &JoinPlan{Kind: InnerJoin, L: l, R: r, Cond: cond} }

// Semi builds a semi-join (rows of l with a match in r).
func Semi(l, r Plan, cond Expr) *JoinPlan { return &JoinPlan{Kind: SemiJoin, L: l, R: r, Cond: cond} }

func (p *JoinPlan) Schema(cat *Catalog) (Schema, error) {
	if p.Kind != InnerJoin {
		return p.L.Schema(cat)
	}
	d := p.derive(cat)
	return d.sch, d.err
}

// derive works out the join's derived facts on the first call.
func (p *JoinPlan) derive(cat *Catalog) *joinDerived {
	d := &p.d
	d.once.Do(func() {
		var ls, rs Schema
		if ls, d.inErr = p.L.Schema(cat); d.inErr == nil {
			rs, d.inErr = p.R.Schema(cat)
		}
		if d.err = d.inErr; d.err != nil {
			return
		}
		if d.full = ls.Concat(rs); p.Kind == InnerJoin {
			d.sch, d.pick, d.err = bindOut(d.full, p.Out)
		}
	})
	return d
}

func (p *JoinPlan) Children() []Plan { return []Plan{p.L, p.R} }
func (p *JoinPlan) WithChildren(ch []Plan) Plan {
	return &JoinPlan{Kind: p.Kind, L: ch[0], R: ch[1], Cond: p.Cond, Out: p.Out}
}

// Label names the operator the join lowers to: every join is a hash
// join, keyed on its condition's equi pairs (split) — with none, on the
// empty key.
func (p *JoinPlan) Label() string {
	if p.Kind == SemiJoin {
		return "Hash Join (semi)"
	}
	return "Hash Join"
}

// split is the join's condition split over its inputs' schemas
// (ExtractEquiJoin): the equi pairs its hash join keys on, and the
// residual it evaluates on each pair of rows of equal key.
func (p *JoinPlan) split(cat *Catalog) ([]EquiPair, Expr, error) {
	ls, err := p.L.Schema(cat)
	if err != nil {
		return nil, nil, err
	}
	rs, err := p.R.Schema(cat)
	if err != nil {
		return nil, nil, err
	}
	pairs, residual := ExtractEquiJoin(p.Cond, ls, rs)
	return pairs, residual, nil
}

// UnionPlan is bag union (UNION ALL) of two width-compatible inputs.
type UnionPlan struct{ L, R Plan }

// Union builds a bag union.
func Union(l, r Plan) *UnionPlan { return &UnionPlan{L: l, R: r} }

func (p *UnionPlan) Schema(cat *Catalog) (Schema, error) { return p.L.Schema(cat) }
func (p *UnionPlan) Children() []Plan                    { return []Plan{p.L, p.R} }
func (p *UnionPlan) WithChildren(ch []Plan) Plan         { return &UnionPlan{L: ch[0], R: ch[1]} }
func (p *UnionPlan) Label() string                       { return "Append" }

// DiffPlan is set difference.
type DiffPlan struct{ L, R Plan }

// Diff builds a set difference.
func Diff(l, r Plan) *DiffPlan { return &DiffPlan{L: l, R: r} }

func (p *DiffPlan) Schema(cat *Catalog) (Schema, error) { return p.L.Schema(cat) }
func (p *DiffPlan) Children() []Plan                    { return []Plan{p.L, p.R} }
func (p *DiffPlan) WithChildren(ch []Plan) Plan         { return &DiffPlan{L: ch[0], R: ch[1]} }
func (p *DiffPlan) Label() string                       { return "Except" }

// DistinctPlan removes duplicates.
type DistinctPlan struct{ Child Plan }

// DistinctOf builds a duplicate elimination.
func DistinctOf(child Plan) *DistinctPlan { return &DistinctPlan{Child: child} }

func (p *DistinctPlan) Schema(cat *Catalog) (Schema, error) { return p.Child.Schema(cat) }
func (p *DistinctPlan) Children() []Plan                    { return unsafe.Slice(&p.Child, 1) }
func (p *DistinctPlan) WithChildren(ch []Plan) Plan         { return &DistinctPlan{Child: ch[0]} }
func (p *DistinctPlan) Label() string                       { return "HashAggregate (distinct)" }

// ExecConfig controls physical lowering; the zero value is the default
// configuration (optimizer on).
type ExecConfig struct {
	// DisableOptimizer skips logical optimization in Run/Explain.
	DisableOptimizer bool
	// Trace, when non-nil, is the parent span operator traces attach
	// under: Build gives every plan node a child span and wraps its
	// iterator so actual rows/batches/time (and store-side stats) are
	// recorded. Nil — the default — builds the exact untraced iterator
	// tree; tracing costs nothing when off.
	Trace *obs.Span

	// Parallelism and ParallelThreshold are ignored — the engine runs
	// every plan serially; kept only so the gated benchmark module
	// compiles, and deleted by the benchmark re-baseline PR.
	Parallelism       int
	ParallelThreshold float64
}

// Build lowers a logical plan to a physical iterator tree, one operator
// per node: a filter lowers to FilterIter and every inner join to
// HashJoinIter, keyed on the equi pairs of its condition — a join
// without one on the empty key. The split reads schemas only, so an
// untraced Build takes no estimate.
// With cfg.Trace set, every node also gets a span recording its actuals
// next to the estimate Optimize and Explain read — one estimator, the
// same type — and the recursion threads each node's span through cfg so
// children attach beneath their parent. A plan Optimize returned is
// only read, so concurrent Builds of it are safe; an unoptimized plan
// is advised here first.
func Build(p Plan, cat *Catalog, cfg ExecConfig) (Iterator, error) {
	adviseFilters(p)
	b := lowering{cat: cat}
	if cfg.Trace != nil {
		b.est = newEstimator(cat)
	}
	return b.lower(p, cfg)
}

// lowering is one Build call: the catalog the plan resolves against,
// and, when it is traced, the estimator its spans' est= come from.
type lowering struct {
	cat *Catalog
	est *estimator // nil when untraced
}

// adviseFilters hands every selection that sits directly on a
// FilterAdvisor leaf to that leaf. It is one walk, made before the first
// estimate of the plan is read, so every node above a pruned scan —
// the join as much as the filter — is estimated on the rows that
// survive.
func adviseFilters(p Plan) {
	if f, ok := p.(*FilterPlan); ok {
		if adv, ok := f.Child.(FilterAdvisor); ok {
			adv.AdviseFilter(f.Cond)
		}
	}
	for _, c := range p.Children() {
		adviseFilters(c)
	}
}

// lower is build plus, when tracing, the node's span: labelled with the
// node's operator and carrying the node's estimate.
func (b *lowering) lower(p Plan, cfg ExecConfig) (Iterator, error) {
	if cfg.Trace == nil {
		return b.build(p, cfg)
	}
	sp := cfg.Trace.Child(p.Label(), b.est.stats(p).Rows)
	cfg.Trace = sp
	it, err := b.build(p, cfg)
	if err != nil {
		return nil, err
	}
	return newTraceIter(it, sp), nil
}

func (b *lowering) build(p Plan, cfg ExecConfig) (Iterator, error) {
	switch n := p.(type) {
	case *ScanPlan:
		r, err := b.cat.Get(n.Name)
		if err != nil {
			return nil, err
		}
		return NewScan(r), nil
	case *ValuesPlan:
		return &colScanIter{src: n.Batch, sorted: n.Batch.Sch.IndexOf(n.Sorted), runs: n.Runs}, nil
	case *FilterPlan:
		return b.unary(cfg, n.Child, func(in Iterator) Iterator { return NewFilter(in, n.Cond) })
	case *ProjectPlan:
		return b.unary(cfg, n.Child, func(in Iterator) Iterator { return NewProject(in, n.Names) })
	case *RenamePlan:
		return b.unary(cfg, n.Child, func(in Iterator) Iterator { return NewRename(in, n.Names) })
	case *JoinPlan:
		pairs, residual, err := n.split(b.cat)
		if err != nil {
			return nil, err
		}
		return b.binary(cfg, n.L, n.R, func(l, r Iterator) Iterator {
			if n.Kind == SemiJoin {
				return NewSemiJoin(l, r, pairs, residual)
			}
			return NewHashJoin(l, r, pairs, residual, n.Out)
		})
	case *StitchPlan:
		ins := make([]Iterator, len(n.Inputs))
		for i, c := range n.Inputs {
			var err error
			if ins[i], err = b.lower(c, cfg); err != nil {
				return nil, err
			}
		}
		st := NewStitch(ins, n.TIDs, n.Cond, n.Driver, n.Out)
		st.Est = n.Est
		return st, nil
	case *UnionPlan:
		return b.binary(cfg, n.L, n.R, func(l, r Iterator) Iterator { return NewUnion(l, r) })
	case *DiffPlan:
		return b.binary(cfg, n.L, n.R, func(l, r Iterator) Iterator { return NewDiff(l, r) })
	case *DistinctPlan:
		return b.unary(cfg, n.Child, func(in Iterator) Iterator { return NewDistinct(in) })
	case *ExtendPlan:
		return b.unary(cfg, n.Child, func(in Iterator) Iterator { return NewExtend(in, n.Exprs) })
	default:
		if sp, ok := p.(SourcePlan); ok {
			return sp.BuildIter(cfg)
		}
		return nil, fmt.Errorf("engine: unknown plan node %T", p)
	}
}

// unary lowers child and builds op over it.
func (b *lowering) unary(cfg ExecConfig, child Plan, op func(Iterator) Iterator) (Iterator, error) {
	in, err := b.lower(child, cfg)
	if err != nil {
		return nil, err
	}
	return op(in), nil
}

// binary lowers l and r and builds op over them.
func (b *lowering) binary(cfg ExecConfig, l, r Plan, op func(l, r Iterator) Iterator) (Iterator, error) {
	li, err := b.lower(l, cfg)
	if err != nil {
		return nil, err
	}
	return b.unary(cfg, r, func(ri Iterator) Iterator { return op(li, ri) })
}

// Run optimizes (unless disabled), lowers, and executes a plan,
// returning a materialized result.
func Run(p Plan, cat *Catalog, cfg ExecConfig) (*Relation, error) {
	if !cfg.DisableOptimizer {
		var err error
		p, err = Optimize(p, cat)
		if err != nil {
			return nil, err
		}
	}
	it, err := Build(p, cat, cfg)
	if err != nil {
		return nil, err
	}
	return Drain(it)
}

// RunDefault executes with the default configuration.
func RunDefault(p Plan, cat *Catalog) (*Relation, error) {
	return Run(p, cat, ExecConfig{})
}
