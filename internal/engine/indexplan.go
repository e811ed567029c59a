package engine

import (
	"fmt"
)

// IndexedSource is a SourcePlan backed by persistent secondary indexes
// (internal/index sorted runs over the store's segment files). The
// engine stays storage-agnostic: it only asks which output columns
// have an equality index, what one probe is expected to return, and
// for an iterator over the rows matching a key — the storage layer
// answers from its runs, bloom filters, tombstones, and memtable, so
// an index hit is never stale.
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

// SortedSource is an IndexedSource that can additionally stream its
// live rows in ascending key order straight off the sorted runs — the
// feed a sort-merge join consumes without sorting. Rows whose key is
// NULL are omitted (an equi-join never matches them), so the iterator
// is only correct as a merge-join input, not as a general scan.
type SortedSource interface {
	IndexedSource
	// SortedCols returns the columns BuildSortedIter supports.
	SortedCols() []string
	// BuildSortedIter returns the live non-NULL-key rows in ascending
	// order of col under Compare.
	BuildSortedIter(col string, cfg ExecConfig) (Iterator, error)
}

// IndexScanPlan is the leaf produced by the optimizer's index rewrite:
// an equality filter over an IndexedSource leaf becomes one probe of
// the source's sorted-run indexes. It is itself a SourcePlan, so the
// generic lowering and estimators handle it like any storage leaf.
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

// IndexJoinCostFactor is the cost model's per-probe overhead of an
// index lookup relative to scanning one row: index-nested-loop wins
// when probing the index once per outer row (outer × factor) is
// cheaper than scanning the inner side in full.
const IndexJoinCostFactor = 8

// MergeJoinMinRows gates the sorted-run merge join: below it the hash
// join's table easily fits in cache and wins on constants.
const MergeJoinMinRows = 4096

// joinChoice is the physical join decision shared by Build and
// EXPLAIN, so the plan printed is the plan executed.
type joinChoice struct {
	algo JoinAlgo

	// Index-nested-loop: probe src on rcol with the left row's lcol.
	src  IndexedSource
	proj []string // projection above the source leaf (nil = bare)
	lcol string
	rcol string
	rest []EquiPair // equi pairs not used as the probe (→ residual)

	// Sorted-run merge: both sides stream presorted on these columns.
	lSorted  SortedSource
	rSorted  SortedSource
	lSortCol string
	rSortCol string
}

// indexedLeaf unwraps a join input down to an IndexedSource leaf,
// tolerating one projection (pruneColumns inserts those above leaves).
func indexedLeaf(p Plan) (IndexedSource, []string) {
	switch n := p.(type) {
	case *ProjectPlan:
		if src, ok := n.Child.(IndexedSource); ok {
			return src, n.Names
		}
	default:
		if src, ok := p.(IndexedSource); ok {
			return src, nil
		}
	}
	return nil, nil
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// chooseJoinAlgo picks the physical algorithm for an inner join under
// JoinAuto, instantiating the uncertain-join strategy suite on
// U-relations: index-nested-loop when the outer side is estimated far
// smaller than an indexed inner side, sort-merge over sorted runs when
// both sides can stream presorted on the (single) join column, and the
// partitioned hash join otherwise. Estimates come from EstimateRows —
// the same standard cardinality machinery the paper leans on.
func chooseJoinAlgo(n *JoinPlan, pairs []EquiPair, cat *Catalog) joinChoice {
	if len(pairs) == 0 {
		return joinChoice{algo: JoinNestedLoop}
	}
	estL := EstimateRows(n.L, cat)
	estR := EstimateRows(n.R, cat)

	// Index-nested-loop: the right side is an indexed leaf and probing
	// it once per left row beats scanning it.
	if estL*IndexJoinCostFactor < estR {
		if c, ok := pickIndexJoin(n, pairs, cat); ok {
			return c
		}
	}

	// Sort-merge over sorted runs: both sides stream presorted on the
	// single join column, so the merge needs no sort and no hash table.
	if len(pairs) == 1 && estL >= MergeJoinMinRows && estR >= MergeJoinMinRows {
		if ls, lok := n.L.(SortedSource); lok {
			if rsrc, rok := n.R.(SortedSource); rok {
				lsch, errL := n.L.Schema(cat)
				rsch, errR := n.R.Schema(cat)
				if errL == nil && errR == nil {
					li, ri := lsch.IndexOf(pairs[0].L), rsch.IndexOf(pairs[0].R)
					if li >= 0 && ri >= 0 &&
						containsStr(ls.SortedCols(), lsch.Cols[li].Name) &&
						containsStr(rsrc.SortedCols(), rsch.Cols[ri].Name) {
						return joinChoice{algo: JoinMerge, lSorted: ls, rSorted: rsrc,
							lSortCol: lsch.Cols[li].Name, rSortCol: rsch.Cols[ri].Name}
					}
				}
			}
		}
	}
	return joinChoice{algo: JoinHash}
}

// pickIndexJoin finds an equi pair whose right column carries a usable
// index on a right-side indexed leaf. It encodes availability only —
// the cost gate lives in chooseJoinAlgo, so a forced cfg.Join =
// JoinIndex can bypass it for ablation runs.
func pickIndexJoin(n *JoinPlan, pairs []EquiPair, cat *Catalog) (joinChoice, bool) {
	src, proj := indexedLeaf(n.R)
	if src == nil {
		return joinChoice{}, false
	}
	rs, err := n.R.Schema(cat)
	if err != nil {
		return joinChoice{}, false
	}
	idxCols := src.IndexedCols()
	for i, pr := range pairs {
		ri := rs.IndexOf(pr.R)
		if ri < 0 {
			continue
		}
		canon := rs.Cols[ri].Name
		if !containsStr(idxCols, canon) {
			continue
		}
		rest := make([]EquiPair, 0, len(pairs)-1)
		rest = append(rest, pairs[:i]...)
		rest = append(rest, pairs[i+1:]...)
		return joinChoice{algo: JoinIndex, src: src, proj: proj,
			lcol: pr.L, rcol: canon, rest: rest}, true
	}
	return joinChoice{}, false
}

// buildSortedLeaf lowers a merge-join input to the source's presorted
// run feed, wiring the same trace span Build would have attached.
func buildSortedLeaf(p Plan, src SortedSource, col string, cat *Catalog, cfg ExecConfig) (Iterator, error) {
	if cfg.Trace == nil {
		return src.BuildSortedIter(col, cfg)
	}
	sp := cfg.Trace.Child(fmt.Sprintf("Sorted Index Scan on %s (%s)", src.SourceName(), col), EstimateRows(p, cat))
	cfg.Trace = sp
	it, err := src.BuildSortedIter(col, cfg)
	if err != nil {
		return nil, err
	}
	return newTraceIter(it, sp), nil
}

// indexJoinResidual folds the unused equi pairs back into the residual
// predicate an index join evaluates on each concatenated row.
func indexJoinResidual(rest []EquiPair, residual Expr) Expr {
	parts := make([]Expr, 0, len(rest)+1)
	for _, pr := range rest {
		parts = append(parts, EqCols(pr.L, pr.R))
	}
	if residual != nil {
		parts = append(parts, residual)
	}
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	return And(parts...)
}

// IndexJoinIter is the index-nested-loop join: for each left row it
// probes the right source's equality index with the left join-key
// value and concatenates the matching right rows, applying an optional
// residual predicate. The right side is never scanned, so a small
// outer against a large indexed inner touches only the segments the
// runs point at.
type IndexJoinIter struct {
	L        Iterator
	Src      IndexedSource
	SrcSch   Schema   // the source's full output schema
	Proj     []string // projection of the source's columns (nil = all)
	LCol     string   // probe column in the left schema
	RCol     string   // canonical indexed column in the source
	Residual Expr     // evaluated on the concatenated row (nil = none)

	sch     Schema
	rsch    Schema // right-side output schema (post-projection)
	li      int
	projIdx []int // source column index per output column (nil = identity)
	bound   Expr
	lbatch  []Tuple // current batch of the left input
	lpos    int
	cur     Tuple // left row whose matches are being drained
	matches []Tuple
	mpos    int
	out     []Tuple // reused output batch headers

	lookups int64
	stats   map[string]int64 // aggregated from probe iterators
}

// NewIndexJoin builds an index-nested-loop join.
func NewIndexJoin(l Iterator, src IndexedSource, srcSch Schema, proj []string, lcol, rcol string, residual Expr) *IndexJoinIter {
	return &IndexJoinIter{L: l, Src: src, SrcSch: srcSch, Proj: proj, LCol: lcol, RCol: rcol, Residual: residual}
}

func (j *IndexJoinIter) Open() error {
	if err := j.L.Open(); err != nil {
		return err
	}
	lsch := j.L.Schema()
	j.li = lsch.IndexOf(j.LCol)
	if j.li < 0 {
		return fmt.Errorf("engine: index join: probe column %q not in left schema %v", j.LCol, lsch.Names())
	}
	j.rsch = j.SrcSch
	j.projIdx = nil
	if j.Proj != nil {
		prj, err := j.SrcSch.Project(j.Proj)
		if err != nil {
			return err
		}
		j.rsch = prj
		j.projIdx = make([]int, len(j.Proj))
		for i, name := range j.Proj {
			j.projIdx[i] = j.SrcSch.MustIndexOf(name)
		}
	}
	j.sch = lsch.Concat(j.rsch)
	j.bound = nil
	if j.Residual != nil {
		b, err := j.Residual.Bind(j.sch)
		if err != nil {
			return err
		}
		j.bound = b
	}
	j.lbatch, j.lpos = nil, 0
	j.matches, j.mpos = nil, 0
	j.lookups = 0
	j.stats = map[string]int64{}
	return nil
}

// probe drains one index lookup for key into j.matches, applying the
// projection and collecting the lookup iterator's operator stats.
func (j *IndexJoinIter) probe(key Value) error {
	j.lookups++
	it, err := j.Src.LookupEq(j.RCol, key)
	if err != nil {
		return err
	}
	if err := it.Open(); err != nil {
		return err
	}
	j.matches = j.matches[:0]
	for {
		batch, ok, nerr := it.NextBatch()
		if nerr != nil {
			it.Close()
			return nerr
		}
		if !ok {
			break
		}
		for _, row := range batch {
			if j.projIdx != nil {
				out := make(Tuple, len(j.projIdx))
				for i, si := range j.projIdx {
					out[i] = row[si]
				}
				row = out
			}
			j.matches = append(j.matches, row)
		}
	}
	err = it.Close()
	if os, ok := it.(OperatorStats); ok {
		os.OperatorStats(func(k string, v int64) { j.stats[k] += v })
	}
	return err
}

// NextBatch emits up to DefaultBatchSize joined rows, resuming from the
// (left row, match position) cursor the previous call stopped at.
func (j *IndexJoinIter) NextBatch() ([]Tuple, bool, error) {
	out := j.out[:0]
	for {
		for j.mpos < len(j.matches) {
			t := j.cur.Concat(j.matches[j.mpos])
			j.mpos++
			if j.bound == nil || j.bound.Eval(t).Truth() {
				if out = append(out, t); len(out) >= DefaultBatchSize {
					j.out = out
					return out, true, nil
				}
			}
		}
		for j.lpos >= len(j.lbatch) {
			batch, ok, err := j.L.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.out = out
				return out, len(out) > 0, nil
			}
			j.lbatch, j.lpos = batch, 0
		}
		row := j.lbatch[j.lpos]
		j.lpos++
		key := row[j.li]
		if key.IsNull() {
			continue // NULL keys never join
		}
		if err := j.probe(key); err != nil {
			return nil, false, err
		}
		j.cur = row
		j.mpos = 0
	}
}

func (j *IndexJoinIter) Close() error {
	j.matches, j.lbatch, j.out = nil, nil, nil
	return j.L.Close()
}

func (j *IndexJoinIter) Schema() Schema {
	if j.sch.Len() > 0 {
		return j.sch
	}
	return j.L.Schema().Concat(j.rsch)
}

// OperatorStats reports the probe count plus the aggregated store-side
// stats of every lookup (runs consulted, bloom rejections, segments
// read), so EXPLAIN ANALYZE attributes index effort to the join node.
func (j *IndexJoinIter) OperatorStats(emit func(key string, v int64)) {
	emit("index_probes", j.lookups)
	for k, v := range j.stats {
		emit(k, v)
	}
}
