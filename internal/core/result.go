package core

import (
	"fmt"

	"urel/internal/engine"
	"urel/internal/ws"
)

// UResultRow is a decoded row of a query-result U-relation: the
// ws-descriptor, the tuple ids of the contributing relation instances
// (NULL entries come from unions), and the value attributes.
type UResultRow struct {
	D    ws.Descriptor
	TIDs engine.Tuple
	Vals engine.Tuple
}

// UResult is a query result in U-relational form: it pairs the decoded
// rows with the world table, so possible tuples, certain tuples, and
// confidences can all be derived from it.
type UResult struct {
	W       *ws.WorldTable
	Attrs   []string // qualified attribute names
	TIDCols []string // tuple-id column names
	Rows    []UResultRow
}

// Eval translates and evaluates a (poss-free) query, returning the
// result as a decoded U-relation whose descriptors characterize world
// membership exactly (TranslateFull — all partitions of the referenced
// relations are merged, whatever their existence-complete bit says).
// It is the reference of certain answers and confidences; the query
// server decodes Translate's plan instead. Use EvalPoss for possible
// answers. The engine optimizer is applied unless cfg disables it.
func (db *UDB) Eval(q Query, cfg engine.ExecConfig) (*UResult, error) {
	if _, ok := q.(*PossQ); ok {
		return nil, fmt.Errorf("core: Eval expects a poss-free query; use EvalPoss")
	}
	plan, lay, err := db.TranslateFull(q)
	if err != nil {
		return nil, err
	}
	cat := engine.NewCatalog()
	rel, err := engine.Run(plan, cat, cfg)
	if err != nil {
		return nil, err
	}
	return decodeUResult(db.W, rel, lay)
}

// EvalPoss evaluates poss(q) (wrapping q if needed): the set of tuples
// possible in the answer across all worlds, computed purely relationally
// as a projection of the translated query (Theorem 3.5, Translate).
func (db *UDB) EvalPoss(q Query, cfg engine.ExecConfig) (*engine.Relation, error) {
	if _, ok := q.(*PossQ); !ok {
		q = Poss(q)
	}
	plan, _, err := db.Translate(q)
	if err != nil {
		return nil, err
	}
	cat := engine.NewCatalog()
	return engine.Run(plan, cat, cfg)
}

// ExplainQuery renders the engine plan for the translated query
// (optimized when optimize is true), the Figure 13 view of a query.
func (db *UDB) ExplainQuery(q Query, optimize bool) (string, error) {
	plan, _, err := db.Translate(q)
	if err != nil {
		return "", err
	}
	cat := engine.NewCatalog()
	return engine.Explain(plan, cat, optimize)
}

// Decode reconstructs a UResult from an evaluated representation-level
// relation and its layout — the last step of Eval, exported so callers
// that drive the engine themselves (e.g. the query server's limited
// drain) can reuse the same decoding.
func Decode(w *ws.WorldTable, rel *engine.Relation, lay *ULayout) (*UResult, error) {
	return decodeUResult(w, rel, lay)
}

// decodeUResult reconstructs descriptors from the padded relational
// encoding. Padding repeats assignments, and the trivial assignment
// (⊤ -> 0) denotes "all worlds", so both collapse during decoding.
func decodeUResult(w *ws.WorldTable, rel *engine.Relation, lay *ULayout) (*UResult, error) {
	out := &UResult{
		W:       w,
		Attrs:   append([]string{}, lay.Attrs...),
		TIDCols: append([]string{}, lay.TIDs...),
	}
	sch := rel.Sch
	var dIdx [][2]int
	for _, dp := range lay.DPairs {
		vi := sch.IndexOf(dp[0])
		ri := sch.IndexOf(dp[1])
		if vi < 0 || ri < 0 {
			return nil, fmt.Errorf("core: decode: descriptor columns %v missing", dp)
		}
		dIdx = append(dIdx, [2]int{vi, ri})
	}
	tIdx := make([]int, len(lay.TIDs))
	for i, t := range lay.TIDs {
		j := sch.IndexOf(t)
		if j < 0 {
			return nil, fmt.Errorf("core: decode: tid column %q missing", t)
		}
		tIdx[i] = j
	}
	aIdx := make([]int, len(lay.Attrs))
	for i, a := range lay.Attrs {
		j := sch.IndexOf(a)
		if j < 0 {
			return nil, fmt.Errorf("core: decode: attribute column %q missing", a)
		}
		aIdx[i] = j
	}
	for _, row := range rel.Rows {
		var assigns []ws.Assignment
		for _, di := range dIdx {
			v := ws.Var(row[di[0]].AsInt())
			if v == ws.TrivialVar {
				continue
			}
			assigns = append(assigns, ws.A(v, ws.Val(row[di[1]].AsInt())))
		}
		d, err := ws.NewDescriptor(assigns...)
		if err != nil {
			return nil, fmt.Errorf("core: decode: inconsistent descriptor escaped ψ: %v", err)
		}
		tids := make(engine.Tuple, len(tIdx))
		for i, j := range tIdx {
			tids[i] = row[j]
		}
		vals := make(engine.Tuple, len(aIdx))
		for i, j := range aIdx {
			vals[i] = row[j]
		}
		out.Rows = append(out.Rows, UResultRow{D: d, TIDs: tids, Vals: vals})
	}
	return out, nil
}

// PossibleTuples returns the distinct value tuples of the result (the
// poss operator applied after the fact).
func (r *UResult) PossibleTuples() *engine.Relation {
	rel := engine.NewRelation(r.attrSchema())
	for _, row := range r.Rows {
		rel.Rows = append(rel.Rows, row.Vals)
	}
	return rel.Distinct()
}

// attrSchema is the schema of the result's value tuples: the attribute
// names, each with the kind of its first non-NULL value.
func (r *UResult) attrSchema() engine.Schema {
	cols := make([]engine.Column, len(r.Attrs))
	for i, a := range r.Attrs {
		cols[i] = engine.Column{Name: a, Kind: engine.KindNull}
	}
	for _, row := range r.Rows {
		for i, v := range row.Vals {
			if cols[i].Kind == engine.KindNull && !v.IsNull() {
				cols[i].Kind = v.K
			}
		}
	}
	return engine.Schema{Cols: cols}
}

// Len returns the number of representation rows.
func (r *UResult) Len() int { return len(r.Rows) }

// MaxDescriptorWidth returns the widest decoded descriptor.
func (r *UResult) MaxDescriptorWidth() int {
	w := 0
	for _, row := range r.Rows {
		if len(row.D) > w {
			w = len(row.D)
		}
	}
	return w
}

// String renders the result U-relation as a table (descriptor, tids,
// values), in row order.
func (r *UResult) String() string {
	cols := []engine.Column{{Name: "D", Kind: engine.KindString}}
	for _, t := range r.TIDCols {
		cols = append(cols, engine.Column{Name: t, Kind: engine.KindString})
	}
	for _, a := range r.Attrs {
		cols = append(cols, engine.Column{Name: a, Kind: engine.KindString})
	}
	rel := engine.NewRelation(engine.Schema{Cols: cols})
	for _, row := range r.Rows {
		t := make(engine.Tuple, 0, len(cols))
		t = append(t, engine.Str(row.D.StringNamed(r.W)))
		for _, v := range row.TIDs {
			t = append(t, engine.Str(v.String()))
		}
		for _, v := range row.Vals {
			t = append(t, engine.Str(v.String()))
		}
		rel.Append(t)
	}
	return rel.String()
}
