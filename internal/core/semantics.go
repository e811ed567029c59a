package core

import (
	"fmt"
	"sort"

	"urel/internal/engine"
	"urel/internal/ws"
)

// Instantiate materializes the single possible world selected by the
// total valuation f (Section 2 semantics): for every tuple (d, t, a) of
// every partition whose descriptor d is extended by f, the values a are
// inserted into the fields of the tuple with id t; tuples left partial
// (some field never provided) are removed from the world.
func (db *UDB) Instantiate(f ws.Valuation) map[string]*engine.Relation {
	db.mustMaterialized("Instantiate")
	out := make(map[string]*engine.Relation, len(db.Rels))
	for _, name := range db.relOrder {
		out[name] = db.instantiateRel(name, f)
	}
	return out
}

func (db *UDB) instantiateRel(name string, f ws.Valuation) *engine.Relation {
	rs := db.Rels[name]
	kinds := db.inferKinds(name)
	attrIdx := map[string]int{}
	cols := make([]engine.Column, len(rs.Attrs))
	for i, a := range rs.Attrs {
		attrIdx[a] = i
		cols[i] = engine.Column{Name: name + "." + a, Kind: kinds[a]}
	}
	type partial struct {
		vals engine.Tuple
		set  []bool
	}
	fields := map[int64]*partial{}
	var tids []int64
	for _, p := range rs.Parts {
		for _, r := range p.Rows {
			if !r.D.ExtendedBy(f) {
				continue
			}
			pt, ok := fields[r.TID]
			if !ok {
				pt = &partial{vals: make(engine.Tuple, len(rs.Attrs)), set: make([]bool, len(rs.Attrs))}
				fields[r.TID] = pt
				tids = append(tids, r.TID)
			}
			for ai, a := range p.Attrs {
				i := attrIdx[a]
				pt.vals[i] = r.Vals[ai]
				pt.set[i] = true
			}
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	rel := engine.NewRelation(engine.Schema{Cols: cols})
	for _, tid := range tids {
		pt := fields[tid]
		complete := true
		for _, s := range pt.set {
			if !s {
				complete = false
				break
			}
		}
		if complete {
			rel.Rows = append(rel.Rows, pt.vals)
		}
	}
	return rel
}

// EnumWorlds enumerates every possible world (valuation plus
// instantiated relations) and calls yield until it returns false.
// Intended for ground-truth testing; guard the world count first with
// db.W.CountWorlds.
func (db *UDB) EnumWorlds(yield func(f ws.Valuation, world map[string]*engine.Relation) bool) {
	db.W.AllWorlds(func(f ws.Valuation) bool {
		return yield(f, db.Instantiate(f))
	})
}

// WorldSignature renders a world deterministically (relation name ->
// sorted tuples); used to compare world-sets structurally in tests and
// in the normalization-preserves-worlds property.
func WorldSignature(world map[string]*engine.Relation) string {
	names := make([]string, 0, len(world))
	for n := range world {
		names = append(names, n)
	}
	sort.Strings(names)
	sig := ""
	for _, n := range names {
		sig += "#" + n + "{"
		for _, t := range world[n].Sorted() {
			sig += engine.KeyString(t) + ";"
		}
		sig += "}"
	}
	return sig
}

// WorldSetSignature enumerates all worlds and returns the sorted set of
// world signatures — a canonical fingerprint of the represented
// world-set. maxWorlds guards against exponential blowup.
func (db *UDB) WorldSetSignature(maxWorlds int64) ([]string, error) {
	if err := db.requireMaterialized("WorldSetSignature"); err != nil {
		return nil, err
	}
	if _, err := db.W.CountWorlds(maxWorlds); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	db.EnumWorlds(func(_ ws.Valuation, world map[string]*engine.Relation) bool {
		seen[WorldSignature(world)] = true
		return true
	})
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// classicalPlan compiles a logical Query into an ordinary engine plan
// over a single instantiated world. This is the "evaluate Q in each
// world" side of the semantics, used as ground truth for the Figure 4
// translation.
func classicalPlan(q Query, world map[string]*engine.Relation) (engine.Plan, error) {
	switch n := q.(type) {
	case *RelQ:
		rel, ok := world[n.Name]
		if !ok {
			return nil, fmt.Errorf("core: unknown relation %q", n.Name)
		}
		alias := n.alias()
		names := make([]string, rel.Sch.Len())
		for i, c := range rel.Sch.Cols {
			// Stored as "<relname>.<attr>"; re-qualify with the alias.
			names[i] = alias + "." + unqualify(c.Name)
		}
		return engine.Rename(engine.Values(rel, n.Name), names), nil
	case *SelectQ:
		child, err := classicalPlan(n.Q, world)
		if err != nil {
			return nil, err
		}
		return engine.Filter(child, n.Cond), nil
	case *ProjectQ:
		child, err := classicalPlan(n.Q, world)
		if err != nil {
			return nil, err
		}
		return engine.Project(child, n.Attrs_...), nil
	case *JoinQ:
		l, err := classicalPlan(n.L, world)
		if err != nil {
			return nil, err
		}
		r, err := classicalPlan(n.R, world)
		if err != nil {
			return nil, err
		}
		return engine.Join(l, r, n.Cond), nil
	case *UnionQ:
		l, err := classicalPlan(n.L, world)
		if err != nil {
			return nil, err
		}
		r, err := classicalPlan(n.R, world)
		if err != nil {
			return nil, err
		}
		return engine.Union(l, r), nil
	case *PossQ:
		child, err := classicalPlan(n.Q, world)
		if err != nil {
			return nil, err
		}
		return engine.DistinctOf(child), nil
	default:
		return nil, fmt.Errorf("core: classicalPlan: unsupported node %T", q)
	}
}

// PossibleGroundTruth computes poss(q) by brute force: evaluate q in
// every world and union the answers (set semantics). maxWorlds guards
// the enumeration.
func (db *UDB) PossibleGroundTruth(q Query, maxWorlds int64) (*engine.Relation, error) {
	if err := db.requireMaterialized("PossibleGroundTruth"); err != nil {
		return nil, err
	}
	if _, err := db.W.CountWorlds(maxWorlds); err != nil {
		return nil, err
	}
	inner := stripPoss(q)
	var out *engine.Relation
	var evalErr error
	cat := engine.NewCatalog()
	db.EnumWorlds(func(_ ws.Valuation, world map[string]*engine.Relation) bool {
		p, err := classicalPlan(inner, world)
		if err != nil {
			evalErr = err
			return false
		}
		res, err := engine.Run(p, cat, engine.ExecConfig{DisableOptimizer: true})
		if err != nil {
			evalErr = err
			return false
		}
		if out == nil {
			out = engine.NewRelation(res.Sch)
		}
		out.Rows = append(out.Rows, res.Rows...)
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if out == nil {
		return nil, fmt.Errorf("core: no worlds enumerated")
	}
	return out.Distinct(), nil
}

// CertainGroundTruth computes the certain answers of q by brute force:
// the tuples present in q's answer in every world.
func (db *UDB) CertainGroundTruth(q Query, maxWorlds int64) (*engine.Relation, error) {
	if err := db.requireMaterialized("CertainGroundTruth"); err != nil {
		return nil, err
	}
	if _, err := db.W.CountWorlds(maxWorlds); err != nil {
		return nil, err
	}
	inner := stripPoss(q)
	var out *engine.Relation
	var evalErr error
	first := true
	cat := engine.NewCatalog()
	db.EnumWorlds(func(_ ws.Valuation, world map[string]*engine.Relation) bool {
		p, err := classicalPlan(inner, world)
		if err != nil {
			evalErr = err
			return false
		}
		res, err := engine.Run(p, cat, engine.ExecConfig{DisableOptimizer: true})
		if err != nil {
			evalErr = err
			return false
		}
		res = res.Distinct()
		if first {
			out = res
			first = false
			return true
		}
		keep := map[string]bool{}
		for _, t := range res.Rows {
			keep[engine.KeyString(t)] = true
		}
		filtered := engine.NewRelation(out.Sch)
		for _, t := range out.Rows {
			if keep[engine.KeyString(t)] {
				filtered.Rows = append(filtered.Rows, t)
			}
		}
		out = filtered
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if out == nil {
		return nil, fmt.Errorf("core: no worlds enumerated")
	}
	return out, nil
}

// ConfidenceGroundTruth computes every possible answer tuple's exact
// confidence by brute force: evaluate q in every world and accumulate
// each distinct tuple's world-probability mass. The result maps
// engine.KeyString of the value tuple to its confidence. maxWorlds
// guards the enumeration; this is the oracle of the confidence
// differential test suite (prob_test.go, txn's DML differential).
func (db *UDB) ConfidenceGroundTruth(q Query, maxWorlds int64) (map[string]float64, error) {
	if err := db.requireMaterialized("ConfidenceGroundTruth"); err != nil {
		return nil, err
	}
	if _, err := db.W.CountWorlds(maxWorlds); err != nil {
		return nil, err
	}
	inner := stripPoss(q)
	out := map[string]float64{}
	var evalErr error
	cat := engine.NewCatalog()
	db.EnumWorlds(func(f ws.Valuation, world map[string]*engine.Relation) bool {
		p, err := classicalPlan(inner, world)
		if err != nil {
			evalErr = err
			return false
		}
		rel, err := engine.Run(p, cat, engine.ExecConfig{DisableOptimizer: true})
		if err != nil {
			evalErr = err
			return false
		}
		wp := db.W.WorldProb(f)
		for _, row := range rel.Distinct().Rows {
			out[engine.KeyString(row)] += wp
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// stripPoss removes a top-level poss operator (world-by-world
// evaluation already yields ordinary relations).
func stripPoss(q Query) Query {
	if p, ok := q.(*PossQ); ok {
		return stripPoss(p.Q)
	}
	return q
}

// StripPoss removes a top-level poss operator, exposing the inner
// query (harnesses measure both the representation-level result size
// and the distinct possible tuples).
func StripPoss(q Query) Query { return stripPoss(q) }

func unqualify(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}
