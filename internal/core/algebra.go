package core

import (
	"fmt"
	"strings"

	"urel/internal/engine"
)

// Query is a positive relational algebra query over the logical schema,
// extended with the poss operator (Section 3 of the paper). Conditions
// are engine expressions over qualified logical attribute names
// ("<alias>.<attr>"; unqualified names resolve when unambiguous).
type Query interface {
	// Attrs returns the qualified output attributes of the query given
	// the database's logical schema.
	Attrs(db *UDB) ([]string, error)
	// String renders the query algebraically.
	String() string
}

// RelQ references a logical relation, optionally under an alias
// (aliases are required to be unique within a query; self-joins must
// alias at least one side, cf. Figure 4's T1 ∩ T2 = ∅ requirement).
type RelQ struct {
	Name string
	As   string
}

// Rel references a logical relation.
func Rel(name string) *RelQ { return &RelQ{Name: name} }

// RelAs references a logical relation under an alias.
func RelAs(name, as string) *RelQ { return &RelQ{Name: name, As: as} }

func (r *RelQ) alias() string {
	if r.As != "" {
		return r.As
	}
	return r.Name
}

// Attrs returns the alias-qualified attributes of the relation.
func (r *RelQ) Attrs(db *UDB) ([]string, error) {
	rs, ok := db.Rels[r.Name]
	if !ok {
		return nil, fmt.Errorf("core: unknown relation %q", r.Name)
	}
	out := make([]string, len(rs.Attrs))
	for i, a := range rs.Attrs {
		out[i] = r.alias() + "." + a
	}
	return out, nil
}

func (r *RelQ) String() string {
	if r.As != "" {
		return r.Name + " AS " + r.As
	}
	return r.Name
}

// SelectQ is a selection σ_cond(Q).
type SelectQ struct {
	Q    Query
	Cond engine.Expr
}

// Select builds a selection.
func Select(q Query, cond engine.Expr) *SelectQ { return &SelectQ{Q: q, Cond: cond} }

// Attrs of a selection are those of its input.
func (s *SelectQ) Attrs(db *UDB) ([]string, error) { return attrsOf(s, db, nil) }

func (s *SelectQ) String() string {
	return fmt.Sprintf("σ[%s](%s)", s.Cond, s.Q)
}

// ProjectQ is a projection π_attrs(Q). Attribute names may be qualified
// or unqualified (resolved against the input attributes).
type ProjectQ struct {
	Q      Query
	Attrs_ []string
}

// Project builds a projection.
func Project(q Query, attrs ...string) *ProjectQ { return &ProjectQ{Q: q, Attrs_: attrs} }

// Attrs resolves the projection list against the input attributes.
func (p *ProjectQ) Attrs(db *UDB) ([]string, error) { return attrsOf(p, db, nil) }

func (p *ProjectQ) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Attrs_, ","), p.Q)
}

// JoinQ is a join Q1 ⋈_cond Q2 (cond nil = cross product).
type JoinQ struct {
	L, R Query
	Cond engine.Expr
}

// Join builds a join.
func Join(l, r Query, cond engine.Expr) *JoinQ { return &JoinQ{L: l, R: r, Cond: cond} }

// Attrs of a join is the concatenation of both inputs' attributes.
func (j *JoinQ) Attrs(db *UDB) ([]string, error) { return attrsOf(j, db, nil) }

func (j *JoinQ) String() string {
	if j.Cond == nil {
		return fmt.Sprintf("(%s × %s)", j.L, j.R)
	}
	return fmt.Sprintf("(%s ⋈[%s] %s)", j.L, j.Cond, j.R)
}

// UnionQ is a union of two schema-compatible queries (positional on
// attributes; output attribute names from the left input).
type UnionQ struct {
	L, R Query
}

// UnionOf builds a union.
func UnionOf(l, r Query) *UnionQ { return &UnionQ{L: l, R: r} }

// Attrs of a union are the left input's attributes.
func (u *UnionQ) Attrs(db *UDB) ([]string, error) { return attrsOf(u, db, nil) }

func (u *UnionQ) String() string { return fmt.Sprintf("(%s ∪ %s)", u.L, u.R) }

// PossQ closes the possible-worlds semantics: poss(Q) is the set of
// tuples possible in Q across all worlds. It translates to a
// (duplicate-eliminating) projection on the value attributes of the
// representation (Figure 4).
type PossQ struct {
	Q Query
}

// Poss builds a poss query.
func Poss(q Query) *PossQ { return &PossQ{Q: q} }

// Attrs of poss are its input's attributes.
func (p *PossQ) Attrs(db *UDB) ([]string, error) { return attrsOf(p, db, nil) }

func (p *PossQ) String() string { return fmt.Sprintf("poss(%s)", p.Q) }

// attrsOf is q.Attrs(db), with the attributes of every query node below
// q recorded in memo (nil: none) and read from it: a translation asks
// for a node's attributes at every level above it, and works each list
// out once. The lists are shared and must not be written to.
func attrsOf(q Query, db *UDB, memo map[Query][]string) ([]string, error) {
	if a, ok := memo[q]; ok {
		return a, nil
	}
	var out []string
	var err error
	switch n := q.(type) {
	case *SelectQ:
		out, err = attrsOf(n.Q, db, memo)
	case *PossQ:
		out, err = attrsOf(n.Q, db, memo)
	case *ProjectQ:
		var in []string
		if in, err = attrsOf(n.Q, db, memo); err != nil {
			return nil, err
		}
		out = make([]string, len(n.Attrs_))
		for i, a := range n.Attrs_ {
			if out[i], err = resolveAttr(a, in); err != nil {
				return nil, err
			}
		}
	case *JoinQ:
		var l, r []string
		if l, r, err = bothAttrs(n.L, n.R, db, memo); err == nil {
			out = concat(l, r)
		}
	case *UnionQ:
		var r []string
		if out, r, err = bothAttrs(n.L, n.R, db, memo); err == nil && len(out) != len(r) {
			err = fmt.Errorf("core: union arity mismatch: %d vs %d", len(out), len(r))
		}
	default:
		out, err = q.Attrs(db)
	}
	if err != nil {
		return nil, err
	}
	if memo != nil {
		memo[q] = out
	}
	return out, nil
}

// bothAttrs is attrsOf of the two inputs of a join or a union.
func bothAttrs(lq, rq Query, db *UDB, memo map[Query][]string) (l, r []string, err error) {
	if l, err = attrsOf(lq, db, memo); err != nil {
		return nil, nil, err
	}
	if r, err = attrsOf(rq, db, memo); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// resolveAttr resolves a possibly-unqualified attribute against a list
// of qualified attributes.
func resolveAttr(name string, attrs []string) (string, error) {
	switch a, n := findAttr(name, attrs); n {
	case 0:
		return "", fmt.Errorf("core: unknown attribute %q in %v", name, attrs)
	case 1:
		return a, nil
	}
	return "", fmt.Errorf("core: ambiguous attribute %q in %v", name, attrs)
}

// findAttr is the attribute name resolves to among attrs — an exact
// match, or else the one attribute it qualifies — and 1; or "" and the
// number of attributes it qualifies (0 or 2, for two or more).
func findAttr(name string, attrs []string) (string, int) {
	found, n := "", 0
	for _, a := range attrs {
		if a == name {
			return a, 1
		}
		if n < 2 && unqualify(a) == name { // never true for a qualified name
			found, n = a, n+1
		}
	}
	if n != 1 {
		return "", n
	}
	return found, 1
}

// collectAliases walks the query and returns the relation aliases in
// occurrence order, erroring on duplicates (which would violate the
// translation's disjoint-tuple-id requirement).
func collectAliases(q Query) ([]*RelQ, error) {
	var rels []*RelQ
	seen := map[string]bool{}
	err := eachRel(q, func(r *RelQ) error {
		a := r.alias()
		if seen[a] {
			return fmt.Errorf("core: duplicate relation alias %q (alias self-joins explicitly)", a)
		}
		seen[a] = true
		rels = append(rels, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rels, nil
}

// Relations returns the distinct logical relation names a query
// references, in first-reference order. The cluster coordinator uses
// it to route: a query touching a hash-sharded relation must scatter,
// one touching only replicated relations can run on any single shard.
// Unlike collectAliases it tolerates duplicate aliases — routing
// happens before plan validation, which reports that error properly.
func Relations(q Query) []string {
	var names []string
	seen := map[string]bool{}
	_ = eachRel(q, func(r *RelQ) error { // an unsupported node is the translation's error to report
		if !seen[r.Name] {
			seen[r.Name] = true
			names = append(names, r.Name)
		}
		return nil
	})
	return names
}

// eachRel calls f on every relation reference of q, in occurrence order,
// and returns f's first error, or else an error for the first node of a
// type no translation knows.
func eachRel(q Query, f func(*RelQ) error) error {
	var l, r Query
	switch m := q.(type) {
	case *RelQ:
		return f(m)
	case *SelectQ:
		return eachRel(m.Q, f)
	case *ProjectQ:
		return eachRel(m.Q, f)
	case *PossQ:
		return eachRel(m.Q, f)
	case *JoinQ:
		l, r = m.L, m.R
	case *UnionQ:
		l, r = m.L, m.R
	default:
		return fmt.Errorf("core: unsupported query node %T", q)
	}
	err := eachRel(l, f)
	if rerr := eachRel(r, f); err == nil {
		err = rerr
	}
	return err
}
