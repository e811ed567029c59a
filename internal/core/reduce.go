package core

import (
	"urel/internal/engine"
	"urel/internal/ws"
)

// A U-relational database is *reduced* when no partition contains a
// tuple that cannot be completed to an actual tuple in any world
// (Section 3, Example 3.2). On reduced inputs the translation's output
// is again reduced (Proposition 3.8), and a projection query can answer
// from a single partition without merging the rest.

// IsReduced reports whether every row of every partition of every
// relation is completable: there exists a choice of rows, one from each
// other partition with the same tuple id, whose descriptors are jointly
// consistent. (Joint consistency of a set of descriptors equals
// pairwise consistency, since any conflict — one variable, two values —
// is pairwise.)
func (db *UDB) IsReduced() bool {
	db.mustMaterialized("IsReduced")
	for _, name := range db.relOrder {
		rs := db.Rels[name]
		for pi, p := range rs.Parts {
			for _, r := range p.Rows {
				if !completable(rs, pi, r, db) {
					return false
				}
			}
		}
	}
	return true
}

// Reduce returns a copy of the database with all non-completable rows
// removed — the exact reduction promised by Proposition 3.3. (The
// proposition's construction is relational: semijoin each partition
// with the full α∧ψ merge of its siblings; this implementation computes
// the same fixpoint directly. See ReduceSemijoinOnce for the one-pass
// pairwise operator.)
func (db *UDB) Reduce() *UDB {
	db.mustMaterialized("Reduce")
	out := db.Clone()
	for _, name := range out.relOrder {
		rs := out.Rels[name]
		for pi, p := range rs.Parts {
			var kept []URow
			for _, r := range p.Rows {
				if completable(rs, pi, r, out) {
					kept = append(kept, r)
				}
			}
			p.Rows = kept
			p.RowsChanged()
		}
	}
	return out
}

// completable checks whether row r of partition pi can be completed to
// an actual tuple in some world: a backtracking search for rows with
// the same tuple id, at most one per other partition, whose descriptors
// are jointly consistent with r's and which together provide every
// attribute of the relation. (Joint consistency of descriptors equals
// pairwise consistency, since a conflict — one variable, two values —
// is always pairwise.)
func completable(rs *URelSet, pi int, r URow, db *UDB) bool {
	need := map[string]bool{}
	for _, a := range rs.Attrs {
		need[a] = true
	}
	uncovered := len(need)
	cover := func(p *URelation, delta int) {
		for _, a := range p.Attrs {
			if need[a] {
				if delta > 0 {
					uncovered--
				} else {
					uncovered++
				}
				need[a] = false
			}
		}
	}
	// Recover helper: recomputes coverage from a set of contributing
	// partitions (simplest correct bookkeeping for backtracking).
	recompute := func(contrib []int) {
		for a := range need {
			need[a] = true
		}
		uncovered = len(rs.Attrs)
		for _, j := range contrib {
			cover(rs.Parts[j], 1)
		}
	}
	chosen := []ws.Descriptor{r.D}
	contrib := []int{pi}
	recompute(contrib)
	var rec func(j int) bool
	rec = func(j int) bool {
		if j == len(rs.Parts) {
			return uncovered == 0
		}
		if j == pi {
			return rec(j + 1)
		}
		p := rs.Parts[j]
		for _, cand := range p.Rows {
			if cand.TID != r.TID {
				continue
			}
			ok := true
			for _, d := range chosen {
				if !cand.D.ConsistentWith(d) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen = append(chosen, cand.D)
			contrib = append(contrib, j)
			recompute(contrib)
			if rec(j + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
			contrib = contrib[:len(contrib)-1]
			recompute(contrib)
		}
		// Skipping this partition is allowed if the remaining ones can
		// still cover everything.
		return rec(j + 1)
	}
	return rec(0)
}

// ReduceSemijoinOnce applies one pass of the paper's pairwise semijoin
// reduction, expressed through the engine: each partition is semijoined
// (α∧ψ) with every sibling partition. For singleton-descriptor
// (normalized) databases one pass computes the exact reduction; in
// general it is an upper approximation and can be iterated to a
// fixpoint (ReduceSemijoinFixpoint).
func (db *UDB) ReduceSemijoinOnce() (*UDB, error) {
	if err := db.requireMaterialized("ReduceSemijoinOnce"); err != nil {
		return nil, err
	}
	out := db.Clone()
	tr := &translator{db: out}
	for _, name := range out.relOrder {
		rs := out.Rels[name]
		if len(rs.Parts) <= 1 {
			continue
		}
		newRows := make([][]URow, len(rs.Parts))
		for i, p := range rs.Parts {
			plan, lay := tr.encodePartition(p, name, i, p.Attrs, "")
			cur := plan
			for j, q := range rs.Parts {
				if i == j {
					continue
				}
				qplan, qlay := tr.encodePartition(q, name+"~sj", j, nil, "")
				alpha := engine.EqCols(lay.TIDs[0], qlay.TIDs[0])
				cond := engine.And(alpha, psiCond(lay.DPairs, qlay.DPairs))
				cur = engine.Semi(cur, qplan, cond)
			}
			cat := engine.NewCatalog()
			rel, err := engine.Run(cur, cat, engine.ExecConfig{})
			if err != nil {
				return nil, err
			}
			ur, err := decodeUResult(out.W, rel, lay)
			if err != nil {
				return nil, err
			}
			rows := make([]URow, 0, len(ur.Rows))
			for _, rr := range ur.Rows {
				rows = append(rows, URow{D: rr.D, TID: rr.TIDs[0].AsInt(), Vals: rr.Vals})
			}
			newRows[i] = rows
		}
		for i, p := range rs.Parts {
			p.Rows = newRows[i]
			p.RowsChanged()
		}
	}
	return out, nil
}

// ReduceSemijoinFixpoint iterates ReduceSemijoinOnce until no partition
// shrinks, returning the fixpoint and the number of passes.
func (db *UDB) ReduceSemijoinFixpoint() (*UDB, int, error) {
	cur := db
	passes := 0
	for {
		next, err := cur.ReduceSemijoinOnce()
		if err != nil {
			return nil, passes, err
		}
		passes++
		if totalRows(next) == totalRows(cur) {
			return next, passes, nil
		}
		cur = next
	}
}

func totalRows(db *UDB) int {
	n := 0
	for _, rs := range db.Rels {
		for _, p := range rs.Parts {
			n += len(p.Rows)
		}
	}
	return n
}
