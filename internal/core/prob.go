package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"urel/internal/engine"
	"urel/internal/ws"
)

// Probabilistic U-relations (Section 7): a probability column in the
// world table W makes every variable an independent discrete random
// variable, and the confidence of an answer tuple is the probability of
// the union of the worlds its descriptors select — of its lineage, the
// DNF ∨_i ∧_j (x_j = v_j). The query translation is untouched. Exact
// confidence is #P-hard in general, so there is one exact evaluator
// with a step budget (unionProb), one sampler for the tuples past it
// (sampleConfidences) and one pass of bounds (ConfidenceBounds).

// confBudget is the number of expansion steps unionProb spends on one
// tuple's lineage before it gives up with ErrConfidenceCap. Measured
// (docs/ARCHITECTURE.md, "Confidence computation"): a step costs 7–20
// µs, so exhausting it takes about a second, and no lineage the former
// 2²² joint-domain enumeration could answer needed a fifth of it.
const confBudget = 1 << 16

// ErrConfidenceCap reports that a tuple's lineage is too interlocked to
// evaluate exactly within confBudget expansion steps. ConfidencesDispatch
// detects it with errors.Is and samples that tuple instead.
var ErrConfidenceCap = errors.New("core: exact confidence exceeds the step budget")

// ErrConfDeadline reports that a confidence computation exceeded its
// deadline. Callers (the query server's "auto" accuracy) detect it with
// errors.Is and degrade to ConfidenceBounds.
var ErrConfDeadline = errors.New("core: confidence deadline exceeded")

// TupleConfidence holds one distinct answer tuple with its confidence.
type TupleConfidence struct {
	Vals engine.Tuple
	P    float64
}

// Confidences computes, for every distinct value tuple of the result,
// the exact probability that the tuple appears. It fails with
// ErrConfidenceCap on a tuple whose lineage exhausts the step budget;
// ConfidencesDispatch samples such tuples instead of failing.
func (r *UResult) Confidences() ([]TupleConfidence, error) {
	groups := r.groupDescriptors()
	ps := make([]float64, len(groups))
	for i, g := range groups {
		var err error
		if ps[i], _, err = unionProb(r.W, g.ds, noDeadline); err != nil {
			return nil, err
		}
	}
	return tupleConfidences(groups, ps), nil
}

// TupleProb returns the exact confidence of one specific value tuple in
// the result (0 if the tuple is not possible).
func (r *UResult) TupleProb(vals engine.Tuple) (float64, error) {
	key := engine.KeyString(vals)
	var ds []ws.Descriptor
	for _, row := range r.Rows {
		if engine.KeyString(row.Vals) == key {
			ds = append(ds, row.D)
		}
	}
	p, _, err := unionProb(r.W, ds, noDeadline)
	return p, err
}

// ConfidencesMC estimates every tuple's confidence by Monte-Carlo
// sampling of worlds (n samples with the given seed). The standard
// error of each estimate is ≤ 0.5/sqrt(n).
func (r *UResult) ConfidencesMC(n int, seed int64) []TupleConfidence {
	groups := r.groupDescriptors()
	ps, _ := sampleConfidences(r.W, groups, n, seed, noDeadline) // fails only through its probe
	return tupleConfidences(groups, ps)
}

// TupleBounds holds one distinct answer tuple with lower/upper bounds
// on its confidence.
type TupleBounds struct {
	Vals     engine.Tuple
	Certain  float64 // a lower bound on the tuple's exact confidence
	Possible float64 // an upper bound on it
}

// ConfidenceBounds computes, for every distinct value tuple of the
// result, certain/possible confidence bounds in one pass over the
// representation rows — the under/over-approximation semantics of
// UA-DBs (Feng & Glavic, "Uncertainty Annotated Databases"): Certain =
// max_i P(d_i), the most probable single disjunct, and Possible =
// min(1, Σ_i P(d_i)), Boole's union bound, so certain ≤ exact ≤
// possible always holds and a tuple with an empty descriptor row is
// pinned to [1, 1]. Cost is O(rows × descriptor width).
func (r *UResult) ConfidenceBounds() []TupleBounds {
	groups := r.groupDescriptors()
	out := make([]TupleBounds, len(groups))
	for i, g := range groups {
		lo, sum := 0.0, 0.0
		for _, d := range g.ds {
			p := d.Prob(r.W)
			lo = max(lo, p)
			sum += p
		}
		out[i] = TupleBounds{Vals: g.vals, Certain: lo, Possible: min(sum, 1)}
	}
	return out
}

// ConfOptions configures the confidence dispatcher.
type ConfOptions struct {
	// MCSamples is the Monte-Carlo sample count for tuples whose
	// lineage exhausts the exact step budget (default 20000).
	MCSamples int
	// MCSeed seeds the Monte-Carlo estimator (default 1).
	MCSeed int64
	// Deadline, when non-zero, bounds the whole computation; exceeding
	// it returns ErrConfDeadline.
	Deadline time.Time
}

// ConfPathStats counts the distinct answer tuples of one
// ConfidencesDispatch call by what they cost: ReadOnce were exact in at
// most one expansion step per descriptor of their lineage, Enum were
// exact in more, MC exhausted the step budget and were sampled.
type ConfPathStats struct {
	ReadOnce int
	Enum     int
	MC       int
}

// Estimator returns the response label summarizing the costs:
// "monte-carlo" if any tuple was sampled, else "exact" if any tuple
// took more than linearly many steps, else "read-once".
func (s ConfPathStats) Estimator() string {
	switch {
	case s.MC > 0:
		return "monte-carlo"
	case s.Enum > 0:
		return "exact"
	default:
		return "read-once"
	}
}

// ConfidencesDispatch computes per-tuple confidences: exactly through
// unionProb, and by seeded Monte-Carlo sampling for the tuples whose
// lineage exhausts its step budget (those counted in stats.MC). The
// deadline (if set) is probed at every expansion step and every sample,
// so an overrun surfaces as ErrConfDeadline, not as an unbounded stall.
func (r *UResult) ConfidencesDispatch(opts ConfOptions) ([]TupleConfidence, ConfPathStats, error) {
	if opts.MCSamples <= 0 {
		opts.MCSamples = 20000
	}
	if opts.MCSeed == 0 {
		opts.MCSeed = 1
	}
	check := deadlineChecker(opts.Deadline, ErrConfDeadline)
	groups := r.groupDescriptors()
	ps := make([]float64, len(groups))
	stats := ConfPathStats{}
	var pastBudget []descGroup
	var pastBudgetAt []int // their indices in groups
	for i, g := range groups {
		var steps int
		var err error
		ps[i], steps, err = unionProb(r.W, g.ds, check)
		switch {
		case errors.Is(err, ErrConfidenceCap):
			pastBudget, pastBudgetAt = append(pastBudget, g), append(pastBudgetAt, i)
		case err != nil:
			return nil, ConfPathStats{}, err
		case steps <= len(g.ds):
			stats.ReadOnce++
		default:
			stats.Enum++
		}
	}
	if stats.MC = len(pastBudget); stats.MC > 0 {
		est, err := sampleConfidences(r.W, pastBudget, opts.MCSamples, opts.MCSeed, check)
		if err != nil {
			return nil, ConfPathStats{}, err
		}
		for j, i := range pastBudgetAt {
			ps[i] = est[j]
		}
	}
	return tupleConfidences(groups, ps), stats, nil
}

// deadlineChecker returns a cheap deadline probe that fails with timeout
// once the deadline has passed. The probe rate-limits time.Now to every
// 256th call, so it can be invoked per expansion step / per sample.
func deadlineChecker(deadline time.Time, timeout error) func() error {
	if deadline.IsZero() {
		return noDeadline
	}
	calls := 0
	return func() error {
		if calls++; calls%256 == 1 && time.Now().After(deadline) {
			return timeout
		}
		return nil
	}
}

func noDeadline() error { return nil }

// descGroup is one distinct answer tuple with its representation rows' descriptors.
type descGroup struct {
	vals engine.Tuple
	ds   []ws.Descriptor
}

// groupDescriptors groups the result's rows by value tuple, in order of
// first appearance.
func (r *UResult) groupDescriptors() []descGroup {
	var groups []descGroup
	at := map[string]int{}
	for _, row := range r.Rows {
		k := engine.KeyString(row.Vals)
		i, ok := at[k]
		if !ok {
			i = len(groups)
			at[k] = i
			groups = append(groups, descGroup{vals: row.Vals})
		}
		groups[i].ds = append(groups[i].ds, row.D)
	}
	return groups
}

func tupleConfidences(groups []descGroup, ps []float64) []TupleConfidence {
	out := make([]TupleConfidence, len(groups))
	for i, g := range groups {
		out[i] = TupleConfidence{Vals: g.vals, P: ps[i]}
	}
	return out
}

// unionProb computes P(∪ events(d)) of one tuple's lineage exactly and
// reports how many expansion steps that took. One recursive rule:
//
//   - an empty descriptor holds in every world, so the union is 1;
//     duplicates add nothing and are dropped;
//   - descriptors that share no variable, directly or through others,
//     fall into independent components: P(∪) = 1 − ∏_c (1 − P(∪ c)),
//     and a single descriptor is the product of its assignments;
//   - a larger component is expanded on its most frequent variable x
//     (one step): Σ_v P(x = v) · P(∪ of what x = v leaves) over the
//     values v its descriptors mention, plus one branch for the rest of
//     x's domain, weighted 1 − Σ_v P(x = v), in which only the
//     descriptors silent on x survive. Residual components are
//     memoized by their canonical form, so a chain or a grid costs
//     steps in its width, not in its number of variables (Amarilli et
//     al., "Structurally Tractable Uncertain Data").
//
// check is probed at every step and its error aborts the evaluation;
// past confBudget steps the error is ErrConfidenceCap.
func unionProb(w *ws.WorldTable, ds []ws.Descriptor, check func() error) (float64, int, error) {
	own := make([]ws.Descriptor, len(ds)) // less the trivial assignments padding leaves
	for i, d := range ds {
		own[i] = slices.DeleteFunc(slices.Clone(d), func(a ws.Assignment) bool { return a.Var == ws.TrivialVar })
	}
	e := unionEval{w: w, check: check, memo: map[string]float64{}}
	p, err := e.union(own)
	return p, e.steps, err
}

type unionEval struct {
	w     *ws.WorldTable
	check func() error
	steps int
	memo  map[string]float64 // componentKey → probability
}

// union evaluates descriptors free of trivial assignments, reordering ds.
func (e *unionEval) union(ds []ws.Descriptor) (float64, error) {
	for _, d := range ds {
		if len(d) == 0 {
			return 1, nil
		}
	}
	// Sorted and duplicate-free is the canonical form the memo keys on;
	// descriptors list their variables in order, so equal sets are equal.
	slices.SortFunc(ds, func(a, b ws.Descriptor) int {
		return slices.CompareFunc(a, b, func(x, y ws.Assignment) int {
			if c := cmp.Compare(x.Var, y.Var); c != 0 {
				return c
			}
			return cmp.Compare(x.Val, y.Val)
		})
	})
	ds = slices.CompactFunc(ds, func(a, b ws.Descriptor) bool { return slices.Equal(a, b) })
	none := 1.0 // probability that no component holds
	for _, c := range components(ds) {
		p, err := e.component(c)
		if err != nil {
			return 0, err
		}
		none *= 1 - p
	}
	return min(max(1-none, 0), 1), nil
}

// components splits non-empty descriptors into variable-connected
// groups, each keeping the order of ds.
func components(ds []ws.Descriptor) [][]ws.Descriptor {
	uf := newUnionFind(len(ds))
	for _, d := range ds {
		for _, a := range d[1:] {
			uf.union(d[0].Var, a.Var)
		}
	}
	var comps [][]ws.Descriptor
	at := map[ws.Var]int{} // component root → index in comps
	for _, d := range ds {
		root := uf.find(d[0].Var)
		i, ok := at[root]
		if !ok {
			i = len(comps)
			at[root] = i
			comps = append(comps, nil)
		}
		comps[i] = append(comps[i], d)
	}
	return comps
}

// component evaluates variable-connected, canonically ordered descriptors.
func (e *unionEval) component(c []ws.Descriptor) (float64, error) {
	if len(c) == 1 {
		return c[0].Prob(e.w), nil
	}
	key := componentKey(c)
	if p, ok := e.memo[key]; ok {
		return p, nil
	}
	if e.steps++; e.steps > confBudget {
		return 0, fmt.Errorf("%w of %d expansion steps; ConfidencesDispatch samples such a tuple", ErrConfidenceCap, confBudget)
	}
	if err := e.check(); err != nil {
		return 0, err
	}

	// The most frequent variable, the smallest such on a tie.
	count := make(map[ws.Var]int, len(c))
	for _, d := range c {
		for _, a := range d {
			count[a.Var]++
		}
	}
	x, n := ws.Var(0), 0
	for y, k := range count {
		if k > n || (k == n && y < x) {
			x, n = y, k
		}
	}

	var silent []ws.Descriptor           // descriptors that do not mention x
	with := map[ws.Val][]ws.Descriptor{} // v → descriptors with x = v, less x
	for _, d := range c {
		if v, ok := d.Lookup(x); ok {
			with[v] = append(with[v], slices.DeleteFunc(slices.Clone(d), func(a ws.Assignment) bool { return a.Var == x }))
		} else {
			silent = append(silent, d)
		}
	}
	p, rest := 0.0, 1.0 // rest: the weight of the values no descriptor mentions
	for _, v := range e.w.Domain(x) {
		if len(with[v]) == 0 {
			continue
		}
		q, err := e.union(append(with[v], silent...))
		if err != nil {
			return 0, err
		}
		pv := e.w.Prob(x, v)
		p += pv * q
		rest -= pv
	}
	if len(silent) > 0 && len(with) < e.w.DomainSize(x) {
		q, err := e.union(silent)
		if err != nil {
			return 0, err
		}
		p += rest * q
	}
	e.memo[key] = p
	return p, nil
}

// componentKey encodes a canonically ordered component injectively.
func componentKey(c []ws.Descriptor) string {
	var b []byte
	for _, d := range c {
		b = binary.AppendUvarint(b, uint64(len(d)))
		for _, a := range d {
			b = binary.AppendVarint(b, int64(a.Var))
			b = binary.AppendVarint(b, int64(a.Val))
		}
	}
	return string(b)
}

// sampleConfidences estimates the confidence of each group as the share
// of n sampled worlds (drawn with the seed) in which one of its
// descriptors holds. Only the variables the groups mention are drawn,
// in increasing order, so the cost and the estimate depend on the
// lineage and not on what else W holds. check is probed once per sample.
func sampleConfidences(w *ws.WorldTable, groups []descGroup, n int, seed int64, check func() error) ([]float64, error) {
	var ds []ws.Descriptor
	for _, g := range groups {
		ds = append(ds, g.ds...)
	}
	vars := mentionedVars(ds)
	rng := rand.New(rand.NewSource(seed))
	ps := make([]float64, len(groups)) // hits, then shares
	f := ws.Valuation{ws.TrivialVar: 0}
	for i := 0; i < n; i++ {
		if err := check(); err != nil {
			return nil, err
		}
		w.SampleWorld(rng, vars, f)
		for gi, g := range groups {
			if slices.ContainsFunc(g.ds, func(d ws.Descriptor) bool { return d.ExtendedBy(f) }) {
				ps[gi]++
			}
		}
	}
	for gi := range ps {
		ps[gi] /= float64(n)
	}
	return ps, nil
}
