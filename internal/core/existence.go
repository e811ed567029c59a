package core

import (
	"fmt"
	"sort"

	"urel/internal/ws"
)

// fullMergeMark ends the EXPLAIN name of every leaf of a merge chain that
// Translate merged fully because its relation is not known to be
// existence-complete, where the query needed fewer partitions.
const fullMergeMark = " [full merge]"

// lazyExact reports whether a translation may read only the partitions
// a query needs: the relation is existence-complete, or has one
// partition, which alone says when its tuples exist.
func (rs *URelSet) lazyExact() bool { return rs.ExistenceComplete || len(rs.Parts) <= 1 }

// FullMergeRels lists, in declaration order, the relations every
// translation merges fully: more than one partition and the
// existence-complete bit clear.
func (db *UDB) FullMergeRels() []string {
	out := []string{}
	for _, name := range db.relOrder {
		if !db.Rels[name].lazyExact() {
			out = append(out, name)
		}
	}
	return out
}

// maxExistenceCheckWorlds bounds the valuations CheckExistenceComplete
// enumerates for one tuple id.
const maxExistenceCheckWorlds = 1 << 16

// CheckExistenceComplete verifies that relation rel is existence-complete
// (URelSet.ExistenceComplete), whatever its bit says: for every tuple id,
// the rows of each partition cover the same set of worlds. It enumerates,
// per tuple id, the valuations of the variables that tuple's rows
// mention, and fails on a tuple with more than 2^16 of them. The error
// names the first tuple id that breaks the property. The database must
// be materialized.
func (db *UDB) CheckExistenceComplete(rel string) error {
	if err := db.requireMaterialized("CheckExistenceComplete"); err != nil {
		return err
	}
	rs, ok := db.Rels[rel]
	if !ok {
		return fmt.Errorf("core: unknown relation %q", rel)
	}
	// byTID[t][pi] holds the descriptors of partition pi's rows of t.
	byTID := map[int64][][]ws.Descriptor{}
	for pi, p := range rs.Parts {
		for _, r := range p.Rows {
			ds := byTID[r.TID]
			if ds == nil {
				ds = make([][]ws.Descriptor, len(rs.Parts))
				byTID[r.TID] = ds
			}
			ds[pi] = append(ds[pi], r.D)
		}
	}
	tids := make([]int64, 0, len(byTID))
	for tid := range byTID {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		if err := sameWorlds(db.W, byTID[tid]); err != nil {
			return fmt.Errorf("core: %s is not existence-complete: tuple %d: %w", rel, tid, err)
		}
	}
	return nil
}

// sameWorlds checks that every partition's descriptors (parts[pi]) cover
// the same worlds, valuation by valuation of the variables they mention.
func sameWorlds(w *ws.WorldTable, parts [][]ws.Descriptor) error {
	var vars []ws.Var
	seen := map[ws.Var]bool{}
	n := 1
	for _, ds := range parts {
		for _, d := range ds {
			for _, a := range d {
				if seen[a.Var] {
					continue
				}
				seen[a.Var] = true
				vars = append(vars, a.Var)
				if n *= w.DomainSize(a.Var); n > maxExistenceCheckWorlds {
					return fmt.Errorf("its rows mention more than %d worlds", maxExistenceCheckWorlds)
				}
			}
		}
	}
	covers := func(ds []ws.Descriptor, f ws.Valuation) bool {
		for _, d := range ds {
			if d.ExtendedBy(f) {
				return true
			}
		}
		return false
	}
	f := ws.Valuation{}
	var walk func(i int) error
	walk = func(i int) error {
		if i == len(vars) {
			in := covers(parts[0], f)
			for pi := 1; pi < len(parts); pi++ {
				if covers(parts[pi], f) != in {
					return fmt.Errorf("partitions 0 and %d disagree on whether it exists in world %v", pi, f)
				}
			}
			return nil
		}
		for _, v := range w.Domain(vars[i]) {
			f[vars[i]] = v
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}
