package tpch

import (
	"urel/internal/core"
	"urel/internal/engine"
)

// TupleLevel reconstructs one relation of the attribute-level database
// into a tuple-level U-relation (all partitions merged), the
// representation the paper's Figure 14 compares against. The blowup is
// exponential in the number of uncertain fields per tuple — the paper
// reports 15M tuple-level rows where the vertical partitions hold 80K.
func TupleLevel(db *core.UDB, rel string) (*core.UDB, error) {
	res, err := db.Eval(core.Rel(rel), engine.ExecConfig{})
	if err != nil {
		return nil, err
	}
	out := core.NewUDB()
	// Share the world table so worlds correspond 1:1.
	out.W = db.W.Clone()
	attrs := db.Rels[rel].Attrs
	if err := out.AddRelation(rel, attrs...); err != nil {
		return nil, err
	}
	part, err := out.AddPartition(rel, "u_"+rel+"_tuplelevel", attrs...)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		part.Add(row.D, row.TIDs[0].AsInt(), row.Vals...)
	}
	return out, nil
}

// TupleLevelDB converts every relation, producing a fully tuple-level
// database over the same world table.
func TupleLevelDB(db *core.UDB) (*core.UDB, error) {
	out := core.NewUDB()
	out.W = db.W.Clone()
	for _, rel := range db.RelNames() {
		res, err := db.Eval(core.Rel(rel), engine.ExecConfig{})
		if err != nil {
			return nil, err
		}
		attrs := db.Rels[rel].Attrs
		if err := out.AddRelation(rel, attrs...); err != nil {
			return nil, err
		}
		part, err := out.AddPartition(rel, "u_"+rel+"_tuplelevel", attrs...)
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			part.Add(row.D, row.TIDs[0].AsInt(), row.Vals...)
		}
	}
	return out, nil
}
