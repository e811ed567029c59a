package ws

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"urel/internal/engine"
)

// Var identifies a world-set variable. TrivialVar (0) is the reserved
// variable with the singleton domain {0}; the empty ws-descriptor is a
// shortcut for {TrivialVar -> 0} (see Section 2 of the paper).
type Var int64

// Val is a domain value of a variable.
type Val int64

// TrivialVar is the reserved singleton-domain variable.
const TrivialVar Var = 0

// WorldTable is the relational world table W(Var, Rng[, P]). It owns
// the variable id space: ids are dense, 0 (the trivial variable) then
// 1, 2, … in the order NewVar allocates them, so every per-variable
// attribute is a slice indexed by Var. A domain and a distribution are
// never changed once added (SetProbs replaces the distribution), which
// lets clones and decoded tables share them. probs and names stop at the
// last variable that has one, so unnamed uniform variables cost neither.
type WorldTable struct {
	doms  [][]Val
	probs [][]float64 // nil entry or none = uniform
	names []string    // "" or none = the default name c<id>
}

// NewWorldTable creates a world table containing only the trivial
// variable.
func NewWorldTable() *WorldTable { return NewWorldTableSized(0) }

// NewWorldTableSized is NewWorldTable with room for n variables beside
// the trivial one.
func NewWorldTableSized(n int) *WorldTable {
	return &WorldTable{doms: append(make([][]Val, 0, n+1), []Val{0})}
}

// NewVar allocates a fresh variable with the given domain (order is
// preserved and duplicates are rejected). name is for display only.
func (w *WorldTable) NewVar(name string, dom []Val) (Var, error) {
	return w.AppendVar(name, append([]Val(nil), dom...), nil)
}

// AppendVar allocates a fresh variable over dom with the distribution
// probs (nil = uniform), validated as NewVar and SetProbs would. The
// table keeps dom and probs themselves: the caller must not change them
// afterwards. A decoder uses it to read each domain once, into the
// slice the table keeps.
func (w *WorldTable) AppendVar(name string, dom []Val, probs []float64) (Var, error) {
	if len(dom) == 0 {
		return 0, fmt.Errorf("ws: variable %q needs a non-empty domain", name)
	}
	if v, dup := duplicate(dom); dup {
		return 0, fmt.Errorf("ws: variable %q has duplicate domain value %d", name, v)
	}
	id := w.NextID()
	if probs != nil {
		if err := checkProbs(name, probs, len(dom)); err != nil {
			return 0, err
		}
	}
	w.doms = append(w.doms, dom)
	if probs != nil {
		w.probs = put(w.probs, id, probs)
	}
	if name != "" {
		w.names = put(w.names, id, name)
	}
	return id, nil
}

// put sets xs[x] to v, growing xs to reach x.
func put[T any](xs []T, x Var, v T) []T {
	for len(xs) <= int(x) {
		xs = append(xs, *new(T))
	}
	xs[x] = v
	return xs
}

// duplicate returns a value dom holds twice. One pass clears a domain
// in ascending order, as generators write them; any other goes through
// a set.
func duplicate(dom []Val) (Val, bool) {
	ascending := true
	for i := 1; i < len(dom) && ascending; i++ {
		ascending = dom[i-1] < dom[i]
	}
	if ascending {
		return 0, false
	}
	seen := make(map[Val]struct{}, len(dom))
	for _, v := range dom {
		if _, ok := seen[v]; ok {
			return v, true
		}
		seen[v] = struct{}{}
	}
	return 0, false
}

// MustNewVar is NewVar that panics; for tests and examples.
func (w *WorldTable) MustNewVar(name string, dom ...Val) Var {
	id, err := w.NewVar(name, dom)
	if err != nil {
		panic(err)
	}
	return id
}

// NewBoolVar allocates a fresh two-valued variable with domain {1, 2},
// matching the paper's running example.
func (w *WorldTable) NewBoolVar(name string) Var {
	return w.MustNewVar(name, 1, 2)
}

// known reports whether x is a variable of w.
func (w *WorldTable) known(x Var) bool { return x >= 0 && x < Var(len(w.doms)) }

// Domain returns the domain of x (nil if unknown).
func (w *WorldTable) Domain(x Var) []Val {
	if !w.known(x) {
		return nil
	}
	return w.doms[x]
}

// DomainSize returns |dom(x)|.
func (w *WorldTable) DomainSize(x Var) int { return len(w.Domain(x)) }

// Has reports whether (x, v) ∈ W.
func (w *WorldTable) Has(x Var, v Val) bool {
	for _, d := range w.Domain(x) {
		if d == v {
			return true
		}
	}
	return false
}

// Name returns the display name of x.
func (w *WorldTable) Name(x Var) string {
	if x > 0 && int(x) < len(w.names) && w.names[x] != "" {
		return w.names[x]
	}
	return x.String()
}

// Vars returns all variables in ascending id order, including the
// trivial variable.
func (w *WorldTable) Vars() []Var {
	out := make([]Var, len(w.doms))
	for i := range out {
		out[i] = Var(i)
	}
	return out
}

// NontrivialVars returns all variables except the trivial one, in
// ascending id order. The result is a copy; callers may keep it.
func (w *WorldTable) NontrivialVars() []Var { return w.Vars()[1:] }

// SetProbs assigns a probability distribution to x; the values must sum
// to 1 (within 1e-9) and be parallel to the domain.
func (w *WorldTable) SetProbs(x Var, p []float64) error {
	if err := checkProbs(w.Name(x), p, w.DomainSize(x)); err != nil {
		return err
	}
	w.probs = put(w.probs, x, append([]float64(nil), p...))
	return nil
}

// checkProbs validates a distribution over a domain of n values.
func checkProbs(name string, p []float64, n int) error {
	if len(p) != n {
		return fmt.Errorf("ws: %d probabilities for %d domain values of %s", len(p), n, name)
	}
	sum := 0.0
	for _, q := range p {
		if q < 0 {
			return fmt.Errorf("ws: negative probability on %s", name)
		}
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("ws: probabilities of %s sum to %g, want 1", name, sum)
	}
	return nil
}

// Probs returns the explicit distribution of x, parallel to its domain,
// or nil when x is uniform. The slice belongs to the table.
func (w *WorldTable) Probs(x Var) []float64 {
	if x < 0 || int(x) >= len(w.probs) {
		return nil
	}
	return w.probs[x]
}

// Prob returns P(x = v); uniform over the domain when no explicit
// distribution was set.
func (w *WorldTable) Prob(x Var, v Val) float64 {
	dom := w.Domain(x)
	if len(dom) == 0 {
		return 0
	}
	if p := w.Probs(x); p != nil {
		for i, d := range dom {
			if d == v {
				return p[i]
			}
		}
		return 0
	}
	if !w.Has(x, v) {
		return 0
	}
	return 1 / float64(len(dom))
}

// NumWorlds returns the exact number of worlds ∏ |dom(x)| as a big
// integer (the paper's Figure 9 reports numbers like 10^6702).
func (w *WorldTable) NumWorlds() *big.Int {
	n := big.NewInt(1)
	for _, dom := range w.doms[1:] {
		n.Mul(n, big.NewInt(int64(len(dom))))
	}
	return n
}

// Log10Worlds returns log10 of the number of worlds. Summation runs in
// variable order so the result is deterministic.
func (w *WorldTable) Log10Worlds() float64 {
	s := 0.0
	for _, dom := range w.doms[1:] {
		s += math.Log10(float64(len(dom)))
	}
	return s
}

// MaxDomainSize returns the largest domain size among non-trivial
// variables (the paper's "max. number of local worlds", lworlds).
func (w *WorldTable) MaxDomainSize() int {
	m := 0
	for _, dom := range w.doms[1:] {
		m = max(m, len(dom))
	}
	return m
}

// Valuation is a (partial or total) assignment of variables to values.
type Valuation map[Var]Val

// Clone copies the valuation.
func (f Valuation) Clone() Valuation {
	out := make(Valuation, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// Total reports whether f assigns every non-trivial variable of w.
func (w *WorldTable) Total(f Valuation) bool {
	for x := Var(1); x < w.NextID(); x++ {
		if _, ok := f[x]; !ok {
			return false
		}
	}
	return true
}

// AllWorlds enumerates every total valuation (including the trivial
// variable's forced assignment) and calls yield; enumeration stops when
// yield returns false. Intended for ground-truth testing on small
// world-sets.
func (w *WorldTable) AllWorlds(yield func(Valuation) bool) {
	vars := w.NontrivialVars()
	f := Valuation{TrivialVar: 0}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return yield(f)
		}
		for _, v := range w.doms[vars[i]] {
			f[vars[i]] = v
			if !rec(i + 1) {
				return false
			}
		}
		delete(f, vars[i])
		return true
	}
	rec(0)
}

// CountWorlds returns the number of worlds as an int64, or an error if
// it exceeds max (guards accidental exponential enumeration in tests).
func (w *WorldTable) CountWorlds(max int64) (int64, error) {
	n := int64(1)
	for _, dom := range w.doms[1:] {
		n *= int64(len(dom))
		if n > max || n < 0 {
			return 0, fmt.Errorf("ws: more than %d worlds", max)
		}
	}
	return n, nil
}

// SampleWorld draws a value for each of vars from the product
// distribution into f, consuming the random source in the order vars
// lists them: a fixed seed and variable list yield the same sequence of
// worlds whatever else w holds (the seeded Monte-Carlo estimator relies
// on this for deterministic CI assertions and for a cost in the size of
// the lineage, not of the database).
func (w *WorldTable) SampleWorld(rng *rand.Rand, vars []Var, f Valuation) {
	for _, x := range vars {
		dom := w.doms[x]
		if p := w.Probs(x); p != nil {
			u := rng.Float64()
			acc := 0.0
			chosen := dom[len(dom)-1]
			for i, q := range p {
				acc += q
				if u < acc {
					chosen = dom[i]
					break
				}
			}
			f[x] = chosen
		} else {
			f[x] = dom[rng.Intn(len(dom))]
		}
	}
}

// WorldProb returns the probability of a total valuation under the
// product distribution.
func (w *WorldTable) WorldProb(f Valuation) float64 {
	p := 1.0
	for x, v := range f {
		if x == TrivialVar {
			continue
		}
		p *= w.Prob(x, v)
	}
	return p
}

// Relation encodes the world table as an engine relation W(var, rng),
// ordered by (var, rng). The trivial variable is included, matching the
// paper's convention that every ws-descriptor is a subset of W.
func (w *WorldTable) Relation() *engine.Relation {
	sch := engine.NewSchema(
		engine.Column{Name: "w.var", Kind: engine.KindInt},
		engine.Column{Name: "w.rng", Kind: engine.KindInt},
	)
	r := engine.NewRelation(sch)
	for x, dom := range w.doms {
		for _, v := range dom {
			r.Append(engine.Tuple{engine.Int(int64(x)), engine.Int(int64(v))})
		}
	}
	return r
}

// SizeBytes estimates the footprint of the world table (for the
// Figure 9 dbsize accounting).
func (w *WorldTable) SizeBytes() int64 {
	var n int64
	for _, dom := range w.doms {
		n += int64(len(dom)) * 18 // (var, rng) pair of tagged ints
	}
	return n
}

// NextID returns the next variable id the table would allocate, one
// past the largest.
func (w *WorldTable) NextID() Var { return Var(len(w.doms)) }

// Clone copies the world table. Domains and distributions are shared:
// neither is changed once added.
func (w *WorldTable) Clone() *WorldTable {
	return &WorldTable{
		doms:  append([][]Val(nil), w.doms...),
		probs: append([][]float64(nil), w.probs...),
		names: append([]string(nil), w.names...),
	}
}
