package uldb

import (
	"fmt"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// ToUDB translates a ULDB into a U-relational database in linear time
// (Lemma 5.5): every x-tuple t gets a variable c_t whose domain indexes
// its alternatives (plus a fresh value for '?'-optional x-tuples); the
// alternative (t, j) with lineage {(t1,j1),...,(tn,jn)} becomes a
// U-relation tuple with ws-descriptor
//
//	[(c_t, j), (c_t1, j1), ..., (c_tn, jn)].
//
// One refinement keeps the world-set exact for the paper's own Example
// 5.4: when a non-optional x-tuple's alternatives are fully
// distinguished by their lineage (mutually exclusive lineage that
// exhausts the referenced choice), the alternative choice carries no
// information of its own and c_t is elided — the descriptor is the
// lineage alone, exactly how Figure 1 shares variable x between the
// mutually constrained vehicles b and c. Without elision the encoding
// would admit spurious worlds in which a lineage-bound, non-optional
// x-tuple disappears.
//
// The result is tuple-level: one partition carrying all attributes.
func (db *DB) ToUDB() (*core.UDB, error) {
	out := core.NewUDB()
	all, err := db.allXTuples()
	if err != nil {
		return nil, err
	}
	// First pass: decide which x-tuples need their own variable.
	vars := map[int64]ws.Var{}
	elide := map[int64]bool{}
	for _, xt := range all {
		if db.lineageDistinguished(xt) {
			elide[xt.ID] = true
			continue
		}
		k := len(xt.Alts)
		if xt.Maybe || len(xt.Alts) == 0 {
			k++ // the "none" world
		}
		if k < 2 {
			// Single mandatory alternative without distinguishing
			// lineage: certain content, no variable needed.
			elide[xt.ID] = true
			continue
		}
		dom := make([]ws.Val, k)
		for i := range dom {
			dom[i] = ws.Val(i + 1)
		}
		x, err := out.W.NewVar(fmt.Sprintf("ct%d", xt.ID), dom)
		if err != nil {
			return nil, err
		}
		vars[xt.ID] = x
	}
	for _, name := range db.order {
		r := db.Rels[name]
		if err := out.AddRelation(name, r.Attrs...); err != nil {
			return nil, err
		}
		part, err := out.AddPartition(name, "u_"+name, r.Attrs...)
		if err != nil {
			return nil, err
		}
		for _, xt := range r.XTs {
			for ai, a := range xt.Alts {
				var assigns []ws.Assignment
				if !elide[xt.ID] {
					assigns = append(assigns, ws.A(vars[xt.ID], ws.Val(ai+1)))
				}
				bad := false
				for _, dep := range a.Lineage {
					x, exists := vars[dep.XT]
					if !exists {
						if elide[dep.XT] {
							// The target x-tuple is certain (single
							// mandatory alternative): the dependency
							// is vacuous if it points at that
							// alternative, unsatisfiable otherwise.
							if dep.Alt != 0 {
								bad = true
							}
							continue
						}
						return nil, fmt.Errorf("uldb: lineage references unknown x-tuple %d", dep.XT)
					}
					assigns = append(assigns, ws.A(x, ws.Val(dep.Alt+1)))
				}
				if bad {
					continue
				}
				d, err := ws.NewDescriptor(assigns...)
				if err != nil {
					// Lineage internally inconsistent: the alternative
					// is erroneous and appears in no world; skip it
					// (U-relations have no erroneous tuples).
					continue
				}
				part.Add(d, xt.ID, a.Vals...)
			}
		}
	}
	return out, nil
}

// lineageDistinguished reports whether a non-optional x-tuple's
// alternatives are fully determined by their lineage: every alternative
// has a single-assignment lineage on one shared target x-tuple, with
// pairwise distinct alternatives that exhaust the target's choices.
func (db *DB) lineageDistinguished(xt *XTuple) bool {
	if xt.Maybe || len(xt.Alts) < 2 {
		return false
	}
	var target int64 = -1
	seen := map[int]bool{}
	for _, a := range xt.Alts {
		if len(a.Lineage) != 1 {
			return false
		}
		dep := a.Lineage[0]
		if target == -1 {
			target = dep.XT
		} else if target != dep.XT {
			return false
		}
		if seen[dep.Alt] {
			return false
		}
		seen[dep.Alt] = true
	}
	// Exhaustiveness: the lineage must cover every alternative of the
	// (non-optional) target.
	for _, r := range db.Rels {
		for _, t := range r.XTs {
			if t.ID == target {
				return !t.Maybe && len(seen) == len(t.Alts)
			}
		}
	}
	return false
}

// FromTupleLevelResult converts a tuple-level U-relational query result
// into a ULDB relation the way the paper's experiment maps MayBMS data
// into Trio: one x-tuple per tuple id (group of result rows), one
// alternative per row, and auxiliary "variable" x-tuples whose
// alternatives stand for the domain values; descriptor assignments
// become lineage pointers to those auxiliary alternatives. The second
// return value is the auxiliary relation.
func FromTupleLevelResult(res *core.UResult, name string, ids *idGen) (*Relation, *Relation, error) {
	aux := &Relation{Name: name + "_vars", Attrs: []string{"var", "rng"}}
	auxByVar := map[ws.Var]*XTuple{}
	valIdx := map[ws.Var]map[ws.Val]int{}
	ensureVar := func(x ws.Var) *XTuple {
		if xt, ok := auxByVar[x]; ok {
			return xt
		}
		xt := aux.AddXTuple(ids.get(), false)
		valIdx[x] = map[ws.Val]int{}
		for i, v := range res.W.Domain(x) {
			xt.AddAlt(nil, engine.Int(int64(x)), engine.Int(int64(v)))
			valIdx[x][v] = i
		}
		auxByVar[x] = xt
		return xt
	}
	out := &Relation{Name: name, Attrs: append([]string{}, res.Attrs...)}
	groups := map[string]*XTuple{}
	for _, row := range res.Rows {
		key := engine.KeyString(row.TIDs)
		xt, ok := groups[key]
		if !ok {
			xt = out.AddXTuple(ids.get(), true)
			groups[key] = xt
		}
		var lin []AltID
		for _, a := range row.D {
			if a.Var == ws.TrivialVar {
				continue
			}
			av := ensureVar(a.Var)
			lin = append(lin, AltID{XT: av.ID, Alt: valIdx[a.Var][a.Val]})
		}
		xt.AddAlt(lin, row.Vals...)
	}
	return out, aux, nil
}

// OrSetUDB builds an or-set relation (Theorem 5.6's separating family)
// as attribute-level U-relations: n tuples over `arity` attributes,
// each field independently one of k values. Linear in n·arity·k.
func OrSetUDB(n, arity, k int) *core.UDB {
	db := core.NewUDB()
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	db.MustAddRelation("r", attrs...)
	for ai, a := range attrs {
		p := db.MustAddPartition("r", "u_r_"+a, a)
		for tid := int64(1); tid <= int64(n); tid++ {
			dom := make([]ws.Val, k)
			for j := range dom {
				dom[j] = ws.Val(j + 1)
			}
			x := db.W.MustNewVar(fmt.Sprintf("t%d_%s", tid, a), dom...)
			for j := 0; j < k; j++ {
				p.Add(ws.MustDescriptor(ws.A(x, ws.Val(j+1))), tid,
					engine.Int(int64(ai*1000+j)))
			}
		}
	}
	return db
}

// OrSetULDB builds the same or-set world-set as a ULDB: each x-tuple
// must enumerate all k^arity value combinations as alternatives —
// exponential in the arity (Theorem 5.6).
func OrSetULDB(n, arity, k int) *DB {
	db := NewDB()
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	r := db.AddRelation("r", attrs...)
	var id int64
	for tid := 1; tid <= n; tid++ {
		id++
		xt := r.AddXTuple(id, false)
		combos := 1
		for i := 0; i < arity; i++ {
			combos *= k
		}
		for c := 0; c < combos; c++ {
			vals := make(engine.Tuple, arity)
			rem := c
			for i := 0; i < arity; i++ {
				vals[i] = engine.Int(int64(i*1000 + rem%k))
				rem /= k
			}
			xt.AddAlt(nil, vals...)
		}
	}
	return db
}
