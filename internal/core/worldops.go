package core

import (
	"fmt"

	"urel/internal/engine"
	"urel/internal/ws"
)

// World-creation constructs (the Section 7 "support for new language
// constructs" direction, realized in MayBMS as repair-key / pick-tuples):
// turning ordinary relations into uncertain ones.

// AddCertainRelation imports an ordinary relation as a certain logical
// relation (every tuple in every world): a single tuple-level partition
// with empty ws-descriptors. Column names may be qualified; the
// unqualified suffixes become the attribute names.
func (db *UDB) AddCertainRelation(name string, rel *engine.Relation) error {
	attrs := make([]string, rel.Sch.Len())
	for i, c := range rel.Sch.Cols {
		attrs[i] = unqualify(c.Name)
	}
	if err := db.AddRelation(name, attrs...); err != nil {
		return err
	}
	p, err := db.AddPartition(name, "u_"+name, attrs...)
	if err != nil {
		return err
	}
	for i, row := range rel.Rows {
		p.Add(nil, int64(i+1), row.Clone()...)
	}
	db.Rels[name].ExistenceComplete = true
	return nil
}

// RepairKey interprets a relation with a (possibly violated) key as an
// uncertain relation: tuples sharing a key value are mutually exclusive
// alternatives; one fresh world-set variable per key group chooses
// among them; independent groups multiply. If weightCol is non-empty,
// its (positive) values become the alternatives' probabilities after
// normalization within the group; the weight column is dropped from the
// uncertain relation's schema.
//
// This is MayBMS's repair-key construct: the resulting world-set is the
// set of all maximal repairs of the key constraint.
func (db *UDB) RepairKey(name string, rel *engine.Relation, keyCols []string, weightCol string) error {
	keyIdx := make([]int, len(keyCols))
	for i, k := range keyCols {
		j := rel.Sch.IndexOf(k)
		if j < 0 {
			return fmt.Errorf("core: repair-key: key column %q not in %v", k, rel.Sch.Names())
		}
		keyIdx[i] = j
	}
	weightIdx := -1
	if weightCol != "" {
		weightIdx = rel.Sch.IndexOf(weightCol)
		if weightIdx < 0 {
			return fmt.Errorf("core: repair-key: weight column %q not in %v", weightCol, rel.Sch.Names())
		}
	}
	// Output attributes: all columns except the weight.
	var attrs []string
	var outIdx []int
	for i, c := range rel.Sch.Cols {
		if i == weightIdx {
			continue
		}
		attrs = append(attrs, unqualify(c.Name))
		outIdx = append(outIdx, i)
	}
	if err := db.AddRelation(name, attrs...); err != nil {
		return err
	}
	p, err := db.AddPartition(name, "u_"+name, attrs...)
	if err != nil {
		return err
	}
	// Group rows by key, preserving first-seen order.
	groups := map[string][]engine.Tuple{}
	var order []string
	for _, row := range rel.Rows {
		key := make(engine.Tuple, len(keyIdx))
		for i, j := range keyIdx {
			key[i] = row[j]
		}
		k := engine.KeyString(key)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	tid := int64(0)
	for _, k := range order {
		rows := groups[k]
		tid++
		emit := func(d ws.Descriptor, row engine.Tuple) {
			vals := make([]engine.Value, len(outIdx))
			for i, j := range outIdx {
				vals[i] = row[j]
			}
			p.Add(d, tid, vals...)
		}
		if len(rows) == 1 {
			emit(nil, rows[0])
			continue
		}
		dom := make([]ws.Val, len(rows))
		for i := range dom {
			dom[i] = ws.Val(i + 1)
		}
		x, err := db.W.NewVar(fmt.Sprintf("rk:%s#%d", name, tid), dom)
		if err != nil {
			return err
		}
		if weightIdx >= 0 {
			probs := make([]float64, len(rows))
			sum := 0.0
			for i, row := range rows {
				w := row[weightIdx].AsFloat()
				if w <= 0 {
					return fmt.Errorf("core: repair-key: non-positive weight %v in group %d", w, tid)
				}
				probs[i] = w
				sum += w
			}
			for i := range probs {
				probs[i] /= sum
			}
			if err := db.W.SetProbs(x, probs); err != nil {
				return err
			}
		}
		for i, row := range rows {
			emit(ws.MustDescriptor(ws.A(x, ws.Val(i+1))), row)
		}
	}
	db.Rels[name].ExistenceComplete = true
	return nil
}

// PossibleWorldsCount returns the number of worlds as a convenience
// (big-integer string) for examples and tools.
func (db *UDB) PossibleWorldsCount() string { return db.W.NumWorlds().String() }
