package core

import (
	"fmt"
	"slices"
	"sort"

	"urel/internal/ws"
)

// Normalization (Section 4, Algorithm 1) rewrites a reduced U-relational
// database so that every ws-descriptor has size one: variables that
// co-occur in some descriptor are grouped into connected components,
// each component is replaced by a single fresh variable, and that
// variable's domain is the product of the component's domains (encoded
// injectively into integers by a mixed-radix code — the paper's f_|Gi|).

// maxNormalizeDomain caps the product domain of a component; exceeding
// it returns an error instead of exploding (normalization is inherently
// exponential — Theorem 5.2's separation between U-relations and WSDs).
const maxNormalizeDomain = 1 << 22

// unionFind is a plain union-find over variable ids.
type unionFind struct {
	parent map[ws.Var]ws.Var
}

// newUnionFind makes an empty union-find with room for n variables.
func newUnionFind(n int) *unionFind { return &unionFind{parent: make(map[ws.Var]ws.Var, n)} }

func (u *unionFind) find(x ws.Var) ws.Var {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	r := u.find(p)
	if r != p {
		u.parent[x] = r
	}
	return r
}

func (u *unionFind) union(a, b ws.Var) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// component describes one connected component of co-occurring
// variables: its sorted member variables, the fresh variable replacing
// it, and the mixed-radix strides for encoding valuations.
type component struct {
	vars    []ws.Var
	newVar  ws.Var
	domains [][]ws.Val
	strides []int64
}

// encode maps a total valuation of the component's variables to the
// injective integer code (the paper's f_|Gi|).
func (c *component) encode(val map[ws.Var]ws.Val) (ws.Val, error) {
	var code int64
	for i, x := range c.vars {
		v, ok := val[x]
		if !ok {
			return 0, fmt.Errorf("core: normalize: component valuation missing %s", x)
		}
		idx := -1
		for j, dv := range c.domains[i] {
			if dv == v {
				idx = j
				break
			}
		}
		if idx < 0 {
			return 0, fmt.Errorf("core: normalize: value %d not in domain of %s", v, x)
		}
		code += int64(idx) * c.strides[i]
	}
	return ws.Val(code), nil
}

// buildComponents groups vars (non-trivial, ascending) by co-occurrence
// in the provided descriptors, which mention no other variable, and
// assigns each group a fresh variable in the new world table.
// Probabilities carry over as products. check is probed once per code of
// a product domain.
func buildComponents(w *ws.WorldTable, vars []ws.Var, descriptors []ws.Descriptor, check func() error) (*ws.WorldTable, map[ws.Var]*component, error) {
	uf := newUnionFind(len(vars))
	for _, d := range descriptors {
		dv := d.Vars()
		for i := 1; i < len(dv); i++ {
			if dv[0] == ws.TrivialVar || dv[i] == ws.TrivialVar {
				continue
			}
			uf.union(dv[0], dv[i])
		}
	}
	groups := map[ws.Var][]ws.Var{}
	for _, x := range vars {
		r := uf.find(x)
		groups[r] = append(groups[r], x)
	}
	newW := ws.NewWorldTable()
	byVar := make(map[ws.Var]*component, len(vars))
	// Deterministic order over components.
	var roots []ws.Var
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		members := groups[r] // ascending, as vars is
		c := &component{vars: members, strides: make([]int64, len(members))}
		size := int64(1)
		for i, x := range members {
			dom := w.Domain(x)
			if len(dom) == 0 {
				return nil, nil, fmt.Errorf("core: normalize: unknown variable %s", x)
			}
			c.domains = append(c.domains, dom)
			c.strides[i] = size
			size *= int64(len(dom))
			if size > maxNormalizeDomain {
				return nil, nil, fmt.Errorf("core: normalize: component of %d vars exceeds domain cap", len(members))
			}
		}
		// Fresh variable with the product domain 0..size-1 and product
		// probabilities.
		dom := make([]ws.Val, size)
		probs := make([]float64, size)
		for code := int64(0); code < size; code++ {
			if err := check(); err != nil {
				return nil, nil, err
			}
			dom[code] = ws.Val(code)
			p := 1.0
			for i, x := range members {
				p *= w.Prob(x, c.domains[i][code/c.strides[i]%int64(len(c.domains[i]))])
			}
			probs[code] = p
		}
		name := "g"
		for i, x := range members {
			if i > 0 {
				name += "+"
			}
			name += w.Name(x)
		}
		nv, err := newW.NewVar(name, dom)
		if err != nil {
			return nil, nil, err
		}
		c.newVar = nv
		if err := newW.SetProbs(nv, probs); err != nil {
			return nil, nil, err
		}
		for _, x := range members {
			byVar[x] = c
		}
	}
	return newW, byVar, nil
}

// normalizeDescriptor rewrites one descriptor into the set of singleton
// descriptors it expands to: all total valuations of its component
// consistent with it, each encoded as one assignment of the fresh
// variable. An empty (or all-trivial) descriptor stays empty. check is
// probed once per valuation.
func normalizeDescriptor(w *ws.WorldTable, byVar map[ws.Var]*component, d ws.Descriptor, check func() error) ([]ws.Descriptor, error) {
	var comp *component
	base := map[ws.Var]ws.Val{}
	for _, a := range d {
		if a.Var == ws.TrivialVar {
			continue
		}
		c := byVar[a.Var]
		if c == nil {
			return nil, fmt.Errorf("core: normalize: unknown variable %s", a.Var)
		}
		if comp == nil {
			comp = c
		} else if comp != c {
			return nil, fmt.Errorf("core: normalize: descriptor %s spans two components", d)
		}
		base[a.Var] = a.Val
	}
	if comp == nil {
		return []ws.Descriptor{nil}, nil
	}
	// Enumerate the unassigned variables of the component.
	var free []ws.Var
	for _, x := range comp.vars {
		if _, ok := base[x]; !ok {
			free = append(free, x)
		}
	}
	var out []ws.Descriptor
	val := make(map[ws.Var]ws.Val, len(comp.vars))
	for k, v := range base {
		val[k] = v
	}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(free) {
			if err := check(); err != nil {
				return err
			}
			code, err := comp.encode(val)
			if err != nil {
				return err
			}
			out = append(out, ws.MustDescriptor(ws.A(comp.newVar, code)))
			return nil
		}
		for _, v := range w.Domain(free[i]) {
			val[free[i]] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(val, free[i])
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// Normalize applies Algorithm 1 to the database: the result is a
// normalized (all descriptors of size ≤ 1), reduced U-relational
// database representing the same world-set (Theorem 4.2).
func (db *UDB) Normalize() (*UDB, error) {
	if err := db.requireMaterialized("Normalize"); err != nil {
		return nil, err
	}
	var descriptors []ws.Descriptor
	for _, name := range db.relOrder {
		for _, p := range db.Rels[name].Parts {
			for _, r := range p.Rows {
				descriptors = append(descriptors, r.D)
			}
		}
	}
	newW, byVar, err := buildComponents(db.W, db.W.NontrivialVars(), descriptors, noDeadline)
	if err != nil {
		return nil, err
	}
	out := &UDB{W: newW, Rels: map[string]*URelSet{}, relOrder: append([]string(nil), db.relOrder...)}
	for _, name := range db.relOrder {
		rs := db.Rels[name]
		nrs := &URelSet{Attrs: append([]string(nil), rs.Attrs...)}
		for _, p := range rs.Parts {
			np := &URelation{Name: p.Name, RelName: p.RelName, Attrs: append([]string(nil), p.Attrs...)}
			for _, r := range p.Rows {
				ds, err := normalizeDescriptor(db.W, byVar, r.D, noDeadline)
				if err != nil {
					return nil, err
				}
				for _, nd := range ds {
					np.Rows = append(np.Rows, URow{D: nd, TID: r.TID, Vals: r.Vals})
				}
			}
			sortURows(np.Rows)
			nrs.Parts = append(nrs.Parts, np)
		}
		out.Rels[name] = nrs
	}
	return out, nil
}

// Normalize applies the same rewriting to a query result, yielding a
// tuple-level normalized U-relation on which certain answers can be
// computed relationally (Lemma 4.3). Each result row keeps its identity
// through a synthesized tuple id. Where the database's Normalize rewrites
// the whole world table, the result's new world table holds components of
// the variables its descriptors mention and nothing else: no other
// variable can appear in a row, so none can cover a tuple.
func (r *UResult) Normalize() (*NormalizedResult, error) { return r.normalize(noDeadline) }

// normalize is Normalize under a deadline probe (see deadlineChecker).
func (r *UResult) normalize(check func() error) (*NormalizedResult, error) {
	descriptors := make([]ws.Descriptor, len(r.Rows))
	for i, row := range r.Rows {
		descriptors[i] = row.D
	}
	newW, byVar, err := buildComponents(r.W, mentionedVars(descriptors), descriptors, check)
	if err != nil {
		return nil, err
	}
	out := &NormalizedResult{W: newW, Attrs: append([]string{}, r.Attrs...)}
	for i, row := range r.Rows {
		ds, err := normalizeDescriptor(r.W, byVar, row.D, check)
		if err != nil {
			return nil, err
		}
		for _, nd := range ds {
			out.Rows = append(out.Rows, NormalizedRow{D: nd, TID: int64(i), Vals: row.Vals})
		}
	}
	return out, nil
}

// mentionedVars lists the non-trivial variables of the descriptors, in
// ascending order.
func mentionedVars(ds []ws.Descriptor) []ws.Var {
	var vars []ws.Var
	for _, d := range ds {
		for _, a := range d {
			if a.Var != ws.TrivialVar {
				vars = append(vars, a.Var)
			}
		}
	}
	slices.Sort(vars)
	return slices.Compact(vars)
}
