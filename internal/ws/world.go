package ws

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"

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
// the variable id space.
type WorldTable struct {
	doms  map[Var][]Val
	probs map[Var][]float64 // parallel to doms; nil = uniform
	names map[Var]string
	next  Var
	// order holds the nontrivial variables sorted by id, maintained
	// eagerly at construction time (NewVar allocates ascending ids;
	// ImportWorldTable sorts once). Keeping it materialized makes the
	// hot iteration paths (world sampling, enumeration) allocation-free
	// and deterministic without mutating shared state on reads.
	order []Var
}

// NewWorldTable creates a world table containing only the trivial
// variable.
func NewWorldTable() *WorldTable {
	w := &WorldTable{
		doms:  map[Var][]Val{TrivialVar: {0}},
		probs: map[Var][]float64{},
		names: map[Var]string{TrivialVar: "⊤"},
		next:  1,
	}
	return w
}

// NewVar allocates a fresh variable with the given domain (order is
// preserved and duplicates are rejected). name is for display only.
func (w *WorldTable) NewVar(name string, dom []Val) (Var, error) {
	if len(dom) == 0 {
		return 0, fmt.Errorf("ws: variable %q needs a non-empty domain", name)
	}
	seen := map[Val]bool{}
	for _, v := range dom {
		if seen[v] {
			return 0, fmt.Errorf("ws: variable %q has duplicate domain value %d", name, v)
		}
		seen[v] = true
	}
	id := w.next
	w.next++
	w.doms[id] = append([]Val(nil), dom...)
	w.order = append(w.order, id)
	if name == "" {
		name = fmt.Sprintf("c%d", id)
	}
	w.names[id] = name
	return id, nil
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

// Domain returns the domain of x (nil if unknown).
func (w *WorldTable) Domain(x Var) []Val { return w.doms[x] }

// DomainSize returns |dom(x)|.
func (w *WorldTable) DomainSize(x Var) int { return len(w.doms[x]) }

// Has reports whether (x, v) ∈ W.
func (w *WorldTable) Has(x Var, v Val) bool {
	for _, d := range w.doms[x] {
		if d == v {
			return true
		}
	}
	return false
}

// Name returns the display name of x.
func (w *WorldTable) Name(x Var) string {
	if n, ok := w.names[x]; ok {
		return n
	}
	return fmt.Sprintf("c%d", x)
}

// Vars returns all variables in ascending id order, including the
// trivial variable.
func (w *WorldTable) Vars() []Var {
	out := make([]Var, 0, len(w.doms))
	for x := range w.doms {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NontrivialVars returns all variables except the trivial one, in
// ascending id order. The result is a copy; callers may keep it.
func (w *WorldTable) NontrivialVars() []Var {
	return append([]Var(nil), w.order...)
}

// SetProbs assigns a probability distribution to x; the values must sum
// to 1 (within 1e-9) and be parallel to the domain.
func (w *WorldTable) SetProbs(x Var, p []float64) error {
	dom := w.doms[x]
	if len(p) != len(dom) {
		return fmt.Errorf("ws: %d probabilities for %d domain values of %s",
			len(p), len(dom), w.Name(x))
	}
	sum := 0.0
	for _, q := range p {
		if q < 0 {
			return fmt.Errorf("ws: negative probability on %s", w.Name(x))
		}
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("ws: probabilities of %s sum to %g, want 1", w.Name(x), sum)
	}
	w.probs[x] = append([]float64(nil), p...)
	return nil
}

// Prob returns P(x = v); uniform over the domain when no explicit
// distribution was set.
func (w *WorldTable) Prob(x Var, v Val) float64 {
	dom := w.doms[x]
	if len(dom) == 0 {
		return 0
	}
	if p, ok := w.probs[x]; ok {
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
	for x, dom := range w.doms {
		if x == TrivialVar {
			continue
		}
		n.Mul(n, big.NewInt(int64(len(dom))))
	}
	return n
}

// Log10Worlds returns log10 of the number of worlds. Summation runs in
// variable order so the result is deterministic.
func (w *WorldTable) Log10Worlds() float64 {
	s := 0.0
	for _, x := range w.Vars() {
		if x == TrivialVar {
			continue
		}
		s += math.Log10(float64(len(w.doms[x])))
	}
	return s
}

// MaxDomainSize returns the largest domain size among non-trivial
// variables (the paper's "max. number of local worlds", lworlds).
func (w *WorldTable) MaxDomainSize() int {
	m := 0
	for x, dom := range w.doms {
		if x == TrivialVar {
			continue
		}
		if len(dom) > m {
			m = len(dom)
		}
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
	for x := range w.doms {
		if x == TrivialVar {
			continue
		}
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
	for x, dom := range w.doms {
		if x == TrivialVar {
			continue
		}
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
		if p, ok := w.probs[x]; ok {
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
	for _, x := range w.Vars() {
		for _, v := range w.doms[x] {
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

// VarDef is the serializable form of one world-table variable, used by
// the persistent store (internal/store) to snapshot world tables.
type VarDef struct {
	X     Var
	Name  string
	Dom   []Val
	Probs []float64 // nil = uniform over Dom
}

// Export returns the non-trivial variables as VarDefs in ascending id
// order, sharing no mutable state with the table.
func (w *WorldTable) Export() []VarDef {
	var out []VarDef
	for _, x := range w.Vars() {
		if x == TrivialVar {
			continue
		}
		d := VarDef{X: x, Name: w.names[x], Dom: append([]Val(nil), w.doms[x]...)}
		if p, ok := w.probs[x]; ok {
			d.Probs = append([]float64(nil), p...)
		}
		out = append(out, d)
	}
	return out
}

// NextID returns the next variable id the table would allocate;
// persisted with the VarDefs so a reopened table keeps allocating
// fresh ids.
func (w *WorldTable) NextID() Var { return w.next }

// ImportWorldTable rebuilds a world table from exported variable
// definitions. Domains and probabilities are validated exactly as
// NewVar/SetProbs would.
func ImportWorldTable(next Var, defs []VarDef) (*WorldTable, error) {
	w := NewWorldTable()
	for _, d := range defs {
		if d.X <= TrivialVar {
			return nil, fmt.Errorf("ws: import: invalid variable id %d", d.X)
		}
		if _, dup := w.doms[d.X]; dup {
			return nil, fmt.Errorf("ws: import: duplicate variable id %d", d.X)
		}
		if len(d.Dom) == 0 {
			return nil, fmt.Errorf("ws: import: variable %q has empty domain", d.Name)
		}
		seen := map[Val]bool{}
		for _, v := range d.Dom {
			if seen[v] {
				return nil, fmt.Errorf("ws: import: variable %q has duplicate domain value %d", d.Name, v)
			}
			seen[v] = true
		}
		w.doms[d.X] = append([]Val(nil), d.Dom...)
		w.order = append(w.order, d.X)
		name := d.Name
		if name == "" {
			name = fmt.Sprintf("c%d", d.X)
		}
		w.names[d.X] = name
		if d.X >= w.next {
			w.next = d.X + 1
		}
		if d.Probs != nil {
			if err := w.SetProbs(d.X, d.Probs); err != nil {
				return nil, fmt.Errorf("ws: import: %w", err)
			}
		}
	}
	if next > w.next {
		w.next = next
	}
	// Exported defs may arrive in any id order; restore the invariant.
	sort.Slice(w.order, func(i, j int) bool { return w.order[i] < w.order[j] })
	return w, nil
}

// Clone deep-copies the world table.
func (w *WorldTable) Clone() *WorldTable {
	out := &WorldTable{
		doms:  make(map[Var][]Val, len(w.doms)),
		probs: make(map[Var][]float64, len(w.probs)),
		names: make(map[Var]string, len(w.names)),
		next:  w.next,
		order: append([]Var(nil), w.order...),
	}
	for k, v := range w.doms {
		out.doms[k] = append([]Val(nil), v...)
	}
	for k, v := range w.probs {
		out.probs[k] = append([]float64(nil), v...)
	}
	for k, v := range w.names {
		out.names[k] = v
	}
	return out
}
