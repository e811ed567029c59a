package engine

import (
	"fmt"
)

// IndexedSource is a SourcePlan backed by persistent secondary indexes
// (internal/index sorted runs over the store's segment files). The
// engine stays storage-agnostic: it only asks which output columns
// have an equality index, what one probe is expected to return and to
// cost, and for an iterator over the rows matching a key — the storage
// layer answers from its runs, bloom filters, tombstones, and memtable,
// so an index hit is never stale.
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
	// ProbeCost is what one equality probe on col costs, in rows of a
	// full scan of the source: index-nested-loop beats scanning the
	// source once when outer rows × ProbeCost is below the source's row
	// count. Only the source can tell — it is a handful of rows when the
	// probed data is decoded and cached, a good part of a segment when
	// every probe decodes one.
	ProbeCost(col string) float64
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
type joinChoice struct {
	algo     JoinAlgo   // JoinHash, JoinNestedLoop or JoinIndex
	pairs    []EquiPair // the condition's equi pairs…
	residual Expr       // …and what is left of it

	// Index-nested-loop: probe src on rcol with the left row's lcol.
	src  IndexedSource
	proj []string // projection above the source leaf (nil = bare)
	lcol string
	rcol string
	rest []EquiPair // equi pairs not used as the probe (→ residual)
}

// label names the join operator the choice lowers to.
func (c joinChoice) label(kind JoinKind) string {
	s := "Nested Loop"
	switch c.algo {
	case JoinHash:
		s = "Hash Join"
	case JoinIndex:
		s = "Index Join"
	}
	switch kind {
	case SemiJoin:
		s += " (semi)"
	case AntiJoin:
		s += " (anti)"
	}
	return s
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

// chooseJoin picks the physical strategy for a join: nested loop when
// the condition has no equi pair, index-nested-loop when the right side
// is an indexed leaf and probing it once per estimated left row costs
// less than scanning it, and the hash join otherwise. Semi and anti
// joins have one operator, which hashes on whatever pairs there are;
// for them the choice only names it. forced is ExecConfig.Join:
// JoinHash and JoinNestedLoop override the choice for an inner join,
// JoinIndex skips the cost gate. Whether an index exists is asked first
// because it is free; the estimates — the optimizer's own, est — are
// read only when one does.
func chooseJoin(n *JoinPlan, est *estimator, forced JoinAlgo) (joinChoice, error) {
	ls, err := n.L.Schema(est.cat)
	if err != nil {
		return joinChoice{}, err
	}
	rs, err := n.R.Schema(est.cat)
	if err != nil {
		return joinChoice{}, err
	}
	c := joinChoice{algo: JoinHash}
	c.pairs, c.residual = ExtractEquiJoin(n.Cond, ls, rs)
	if len(c.pairs) == 0 || (forced == JoinNestedLoop && n.Kind == InnerJoin) {
		c.algo = JoinNestedLoop
		return c, nil
	}
	if n.Kind != InnerJoin || forced == JoinHash {
		return c, nil
	}
	ic, ok := pickIndexJoin(c, n.R, rs)
	if ok && (forced == JoinIndex ||
		est.stats(n.L).Rows*ic.src.ProbeCost(ic.rcol) < est.stats(n.R).Rows) {
		return ic, nil
	}
	return c, nil
}

// pickIndexJoin turns c into an index join if one of its equi pairs has
// a right column carrying a usable index on r, a right-side indexed leaf
// of schema rs. It encodes availability only — the cost gate lives in
// chooseJoin.
func pickIndexJoin(c joinChoice, r Plan, rs Schema) (joinChoice, bool) {
	src, proj := indexedLeaf(r)
	if src == nil {
		return c, false
	}
	idxCols := src.IndexedCols()
	for i, pr := range c.pairs {
		ri := rs.IndexOf(pr.R)
		if ri < 0 {
			continue
		}
		canon := rs.Cols[ri].Name
		if !containsStr(idxCols, canon) {
			continue
		}
		rest := make([]EquiPair, 0, len(c.pairs)-1)
		rest = append(rest, c.pairs[:i]...)
		rest = append(rest, c.pairs[i+1:]...)
		c.algo, c.src, c.proj, c.lcol, c.rcol, c.rest = JoinIndex, src, proj, pr.L, canon, rest
		return c, true
	}
	return c, false
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

	outCols []string // output projection of the concatenated row (nil = all)
	pick    []int

	sch     Schema
	rsch    Schema // right-side schema of the concatenated row (post-Proj)
	li      int
	projIdx []int // source column index per right-side column (nil = identity)
	bound   Expr
	lbatch  []Tuple // current batch of the left input
	lpos    int
	cur     Tuple   // left row whose matches are being drained
	matches []Tuple // the probe's rows, as the source returned them
	mpos    int
	out     []Tuple  // reused output batch headers
	arena   outArena // output cells (write-once)
	scratch Tuple    // the concatenated row: residual buffer, Proj target

	lookups int64
	stats   map[string]int64 // aggregated from probe iterators
}

// NewIndexJoin builds an index-nested-loop join; out is NewHashJoin's,
// over the left columns followed by proj's.
func NewIndexJoin(l Iterator, src IndexedSource, srcSch Schema, proj []string, lcol, rcol string, residual Expr, out []string) *IndexJoinIter {
	return &IndexJoinIter{L: l, Src: src, SrcSch: srcSch, Proj: proj, LCol: lcol, RCol: rcol, Residual: residual, outCols: out}
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
	full := lsch.Concat(j.rsch)
	var err error
	if j.sch, j.pick, err = bindOut(full, j.outCols); err != nil {
		return err
	}
	j.bound = nil
	if j.Residual != nil {
		b, err := j.Residual.Bind(full)
		if err != nil {
			return err
		}
		j.bound = b
	}
	j.scratch = make(Tuple, full.Len())
	j.lbatch, j.lpos = nil, 0
	j.matches, j.mpos = nil, 0
	j.lookups = 0
	j.stats = map[string]int64{}
	return nil
}

// probe drains one index lookup for key into j.matches and collects
// the lookup iterator's operator stats.
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
		j.matches = append(j.matches, batch...)
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
			r := j.matches[j.mpos]
			j.mpos++
			s := j.scratch
			if j.projIdx != nil {
				// The source's row narrowed to Proj, in place in the scratch.
				narrowed := s[len(j.cur):]
				for i, si := range j.projIdx {
					narrowed[i] = r[si]
				}
				r = narrowed
			}
			if !residualHolds(j.bound, s, j.cur, r) {
				continue
			}
			out = append(out, j.arena.emit(j.cur, r, j.pick))
			if len(out) >= DefaultBatchSize {
				j.out = out
				return out, true, nil
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
	j.arena = outArena{}
	return j.L.Close()
}

func (j *IndexJoinIter) Schema() Schema {
	if j.sch.Len() > 0 {
		return j.sch
	}
	return joinSchema(j.L.Schema(), j.rsch, j.outCols)
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
