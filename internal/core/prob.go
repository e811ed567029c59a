package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"urel/internal/engine"
	"urel/internal/ws"
)

// Probabilistic U-relations (Section 7): adding a probability column to
// the world table W makes every variable an independent discrete random
// variable; the probability of a world is the product of its choices,
// and the confidence of an answer tuple is the probability of the union
// of the worlds its descriptors select. The query translation is
// untouched; only confidence computation is new (and inherently hard in
// general — the paper points to approximation, which ConfidenceMC
// provides).

// maxExactConfidenceWorlds caps the enumeration size of the exact
// confidence computation over the variables involved in a tuple's
// descriptors.
const maxExactConfidenceWorlds = 1 << 22

// ErrConfidenceCap reports that the exact confidence computation would
// enumerate more than maxExactConfidenceWorlds joint assignments.
// Callers (e.g. the query server) detect it with errors.Is and fall
// back to the Monte-Carlo estimator.
var ErrConfidenceCap = errors.New("core: exact confidence enumeration exceeds cap")

// TupleConfidence holds one distinct answer tuple with its confidence.
type TupleConfidence struct {
	Vals engine.Tuple
	P    float64
}

// Confidences computes, for every distinct value tuple of the result,
// the exact probability that the tuple appears (the probability of the
// union of its descriptors' events), by enumerating the joint domain of
// the involved variables. Returns an error if that joint domain exceeds
// the cap; use ConfidencesMC then.
func (r *UResult) Confidences() ([]TupleConfidence, error) {
	groups, order := r.groupDescriptors()
	out := make([]TupleConfidence, 0, len(order))
	for _, k := range order {
		g := groups[k]
		p, err := descriptorUnionProb(r.W, g.ds)
		if err != nil {
			return nil, err
		}
		out = append(out, TupleConfidence{Vals: g.vals, P: p})
	}
	return out, nil
}

// ConfidencesMC estimates confidences by Monte-Carlo sampling of worlds
// (n samples with the given seed). The standard error of each estimate
// is ≤ 0.5/sqrt(n).
func (r *UResult) ConfidencesMC(n int, seed int64) []TupleConfidence {
	groups, order := r.groupDescriptors()
	rng := rand.New(rand.NewSource(seed))
	// Collect involved variables per group for cheap evaluation.
	hits := make(map[string]int, len(order))
	for i := 0; i < n; i++ {
		f := r.W.SampleWorld(rng)
		for k, g := range groups {
			for _, d := range g.ds {
				if d.ExtendedBy(f) {
					hits[k]++
					break
				}
			}
		}
	}
	out := make([]TupleConfidence, 0, len(order))
	for _, k := range order {
		out = append(out, TupleConfidence{
			Vals: groups[k].vals,
			P:    float64(hits[k]) / float64(n),
		})
	}
	return out
}

type descGroup struct {
	vals engine.Tuple
	ds   []ws.Descriptor
}

func (r *UResult) groupDescriptors() (map[string]*descGroup, []string) {
	groups := map[string]*descGroup{}
	var order []string
	for _, row := range r.Rows {
		k := engine.KeyString(row.Vals)
		g, ok := groups[k]
		if !ok {
			g = &descGroup{vals: row.Vals}
			groups[k] = g
			order = append(order, k)
		}
		g.ds = append(g.ds, row.D)
	}
	return groups, order
}

// descriptorUnionProb computes P(∪ events(d)) exactly by enumerating
// the joint domain of the involved variables.
func descriptorUnionProb(w *ws.WorldTable, ds []ws.Descriptor) (float64, error) {
	return descriptorUnionProbCheck(w, ds, nil)
}

// descriptorUnionProbCheck is descriptorUnionProb with an optional
// per-leaf check hook (the dispatcher's deadline probe; see
// conffast.go). A non-nil check error aborts the enumeration.
func descriptorUnionProbCheck(w *ws.WorldTable, ds []ws.Descriptor, check func() error) (float64, error) {
	varSet := map[ws.Var]bool{}
	for _, d := range ds {
		for _, a := range d {
			if a.Var != ws.TrivialVar {
				varSet[a.Var] = true
			}
		}
	}
	// A tuple with an empty (trivial) descriptor is present in every
	// world.
	for _, d := range ds {
		nontrivial := false
		for _, a := range d {
			if a.Var != ws.TrivialVar {
				nontrivial = true
				break
			}
		}
		if !nontrivial {
			return 1, nil
		}
	}
	vars := make([]ws.Var, 0, len(varSet))
	for x := range varSet {
		vars = append(vars, x)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	size := int64(1)
	for _, x := range vars {
		size *= int64(w.DomainSize(x))
		if size > maxExactConfidenceWorlds {
			return 0, fmt.Errorf("%w: %d variables involved; use ConfidencesMC", ErrConfidenceCap, len(vars))
		}
	}
	total := 0.0
	var checkErr error
	val := ws.Valuation{ws.TrivialVar: 0}
	var rec func(i int, p float64)
	rec = func(i int, p float64) {
		if p == 0 || checkErr != nil {
			return
		}
		if i == len(vars) {
			if check != nil {
				if err := check(); err != nil {
					checkErr = err
					return
				}
			}
			for _, d := range ds {
				if d.ExtendedBy(val) {
					total += p
					return
				}
			}
			return
		}
		for _, v := range w.Domain(vars[i]) {
			val[vars[i]] = v
			rec(i+1, p*w.Prob(vars[i], v))
		}
		delete(val, vars[i])
	}
	rec(0, 1)
	if checkErr != nil {
		return 0, checkErr
	}
	return total, nil
}

// TupleProb returns the exact confidence of one specific value tuple in
// the result (0 if the tuple is not possible).
func (r *UResult) TupleProb(vals engine.Tuple) (float64, error) {
	key := engine.KeyString(vals)
	groups, _ := r.groupDescriptors()
	g, ok := groups[key]
	if !ok {
		return 0, nil
	}
	return descriptorUnionProb(r.W, g.ds)
}
