package uldb

import (
	"fmt"

	"urel/internal/engine"
)

// Query evaluation with lineage propagation, in the regime of the
// paper's Figure 14 comparison: selections and joins over ULDB
// relations produce result relations whose alternatives carry lineage
// to the input alternatives. No erroneous-tuple removal happens during
// evaluation — that is Trio's separate, expensive data-minimization
// step (Minimize below).

// nextID hands out fresh x-tuple ids for results.
type idGen struct{ next int64 }

func (g *idGen) get() int64 { g.next++; return g.next }

// NewIDGen creates an id generator starting above the given id.
func NewIDGen(above int64) *idGen { return &idGen{next: above} }

// MaxXTupleID returns the largest x-tuple id in the database.
func (db *DB) MaxXTupleID() int64 {
	var m int64
	for _, r := range db.Rels {
		for _, xt := range r.XTs {
			if xt.ID > m {
				m = xt.ID
			}
		}
	}
	return m
}

// Select filters alternatives by a predicate over the relation's
// attributes. X-tuples that lose alternatives become '?'-optional
// (Trio semantics); x-tuples losing all alternatives are dropped.
func Select(r *Relation, pred engine.Expr, ids *idGen) (*Relation, error) {
	sch := attrSchema(r)
	bound, err := pred.Bind(sch)
	if err != nil {
		return nil, err
	}
	out := &Relation{Name: "sel(" + r.Name + ")", Attrs: r.Attrs}
	for _, xt := range r.XTs {
		var kept []Alternative
		for ai, a := range xt.Alts {
			if bound.Eval(a.Vals).Truth() {
				// Result lineage points to the source alternative.
				lin := append(append([]AltID{}, a.Lineage...), AltID{XT: xt.ID, Alt: ai})
				kept = append(kept, Alternative{Vals: a.Vals, Lineage: lin})
			}
		}
		if len(kept) == 0 {
			continue
		}
		nxt := out.AddXTuple(ids.get(), xt.Maybe || len(kept) < len(xt.Alts))
		nxt.Alts = kept
	}
	return out, nil
}

// Project maps every alternative to the named attribute subset,
// preserving lineage.
func Project(r *Relation, attrs []string, ids *idGen) (*Relation, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := indexOf(r.Attrs, a)
		if j < 0 {
			return nil, fmt.Errorf("uldb: project: attribute %q not in %v", a, r.Attrs)
		}
		idx[i] = j
	}
	out := &Relation{Name: "proj(" + r.Name + ")", Attrs: attrs}
	for _, xt := range r.XTs {
		nxt := out.AddXTuple(ids.get(), xt.Maybe)
		for ai, a := range xt.Alts {
			vals := make(engine.Tuple, len(idx))
			for i, j := range idx {
				vals[i] = a.Vals[j]
			}
			lin := append(append([]AltID{}, a.Lineage...), AltID{XT: xt.ID, Alt: ai})
			nxt.Alts = append(nxt.Alts, Alternative{Vals: vals, Lineage: lin})
		}
	}
	return out, nil
}

// Join combines alternatives of both inputs under a predicate over the
// concatenated attributes. The result's lineage points to both source
// alternatives — which is exactly how erroneous tuples arise: lineage
// only references the immediate inputs, so combinations whose sources
// never co-occur in a world still produce result alternatives
// (Section 5's discussion of ULDB data minimization).
func Join(l, r *Relation, cond engine.Expr, ids *idGen) (*Relation, error) {
	attrs := append(append([]string{}, l.Attrs...), r.Attrs...)
	out := &Relation{Name: "join(" + l.Name + "," + r.Name + ")", Attrs: attrs}
	var bound engine.Expr
	if cond != nil {
		sch := attrSchemaNames(attrs, l, r)
		b, err := cond.Bind(sch)
		if err != nil {
			return nil, err
		}
		bound = b
	}
	for _, lx := range l.XTs {
		for _, rx := range r.XTs {
			var alts []Alternative
			for lai, la := range lx.Alts {
				for rai, ra := range rx.Alts {
					row := la.Vals.Concat(ra.Vals)
					if bound != nil && !bound.Eval(row).Truth() {
						continue
					}
					lin := append(append([]AltID{}, la.Lineage...), ra.Lineage...)
					lin = append(lin, AltID{XT: lx.ID, Alt: lai}, AltID{XT: rx.ID, Alt: rai})
					alts = append(alts, Alternative{Vals: row, Lineage: lin})
				}
			}
			if len(alts) == 0 {
				continue
			}
			nxt := out.AddXTuple(ids.get(), true)
			nxt.Alts = alts
		}
	}
	return out, nil
}

// Minimize removes erroneous alternatives: those whose transitive
// lineage requires two different alternatives of the same x-tuple. This
// is the expensive operation U-relations avoid by carrying all
// dependencies in ws-descriptors (ψ filters inconsistent combinations
// during the join itself).
func Minimize(r *Relation) *Relation {
	out := &Relation{Name: "min(" + r.Name + ")", Attrs: r.Attrs}
	for _, xt := range r.XTs {
		var kept []Alternative
		for _, a := range xt.Alts {
			if lineageConsistent(a.Lineage) {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 {
			continue
		}
		nxt := out.AddXTuple(xt.ID, xt.Maybe || len(kept) < len(xt.Alts))
		nxt.Alts = kept
	}
	return out
}

// lineageConsistent reports whether a lineage conjunction avoids
// requiring two alternatives of one x-tuple.
func lineageConsistent(lin []AltID) bool {
	chosen := map[int64]int{}
	for _, d := range lin {
		if prev, ok := chosen[d.XT]; ok && prev != d.Alt {
			return false
		}
		chosen[d.XT] = d.Alt
	}
	return true
}

// PossibleTuples returns the distinct value tuples across alternatives
// (NOT worlds-aware: erroneous alternatives contribute too, unless the
// relation was minimized first — exactly the paper's point).
func (r *Relation) PossibleTuples() *engine.Relation {
	rel := engine.NewRelation(attrSchema(r))
	for _, xt := range r.XTs {
		for _, a := range xt.Alts {
			rel.Rows = append(rel.Rows, a.Vals)
		}
	}
	return rel.Distinct()
}

func attrSchema(r *Relation) engine.Schema {
	cols := make([]engine.Column, len(r.Attrs))
	for i, a := range r.Attrs {
		k := engine.KindNull
		for _, xt := range r.XTs {
			if len(xt.Alts) > 0 && !xt.Alts[0].Vals[i].IsNull() {
				k = xt.Alts[0].Vals[i].K
				break
			}
		}
		cols[i] = engine.Column{Name: a, Kind: k}
	}
	return engine.Schema{Cols: cols}
}

func attrSchemaNames(attrs []string, l, r *Relation) engine.Schema {
	cols := make([]engine.Column, len(attrs))
	for i, a := range attrs {
		cols[i] = engine.Column{Name: a, Kind: engine.KindNull}
	}
	return engine.Schema{Cols: cols}
}

func indexOf(list []string, s string) int {
	for i, x := range list {
		if x == s {
			return i
		}
	}
	return -1
}
