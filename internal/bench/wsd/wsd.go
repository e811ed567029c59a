package wsd

import (
	"fmt"
	"sort"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// Field identifies one tuple field: relation, tuple id, attribute.
type Field struct {
	Rel  string
	TID  int64
	Attr string
}

func (f Field) String() string { return fmt.Sprintf("%s.t%d.%s", f.Rel, f.TID, f.Attr) }

// Component is one factor of the decomposition: a relation over a set
// of tuple fields whose rows are the component's local worlds. A NULL
// cell is the paper's ⊥: the field does not exist in that local world.
type Component struct {
	Name   string
	Fields []Field
	Rows   [][]engine.Value
}

// LocalWorlds returns the number of local worlds (rows).
func (c *Component) LocalWorlds() int { return len(c.Rows) }

// Cells returns the number of cells (rows × fields), the paper's size
// measure for WSD components.
func (c *Component) Cells() int { return len(c.Rows) * len(c.Fields) }

// WSD is a world-set decomposition: a schema plus a product of
// components. Fields not mentioned by any component do not exist.
type WSD struct {
	Schema map[string][]string // relation -> attribute list
	Comps  []*Component

	relOrder []string
}

// New creates an empty WSD for the given schema (relation -> attrs),
// with deterministic relation order.
func New(schema map[string][]string) *WSD {
	w := &WSD{Schema: map[string][]string{}}
	var names []string
	for n := range schema {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w.Schema[n] = append([]string(nil), schema[n]...)
		w.relOrder = append(w.relOrder, n)
	}
	return w
}

// AddComponent appends a component.
func (w *WSD) AddComponent(c *Component) { w.Comps = append(w.Comps, c) }

// NumWorlds returns the total number of worlds (product of local world
// counts).
func (w *WSD) NumWorlds() int64 {
	n := int64(1)
	for _, c := range w.Comps {
		n *= int64(len(c.Rows))
	}
	return n
}

// Cells returns the total number of cells across components.
func (w *WSD) Cells() int {
	n := 0
	for _, c := range w.Comps {
		n += c.Cells()
	}
	return n
}

// SizeBytes estimates the representation footprint (cells plus field
// headers).
func (w *WSD) SizeBytes() int64 {
	var n int64
	for _, c := range w.Comps {
		n += int64(len(c.Fields)) * 24
		for _, row := range c.Rows {
			for _, v := range row {
				n += int64(v.SizeBytes())
			}
		}
	}
	return n
}

// EnumWorlds enumerates every world (one local world per component) and
// yields the instantiated relations; stops when yield returns false.
func (w *WSD) EnumWorlds(yield func(world map[string]*engine.Relation) bool) {
	choice := make([]int, len(w.Comps))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(w.Comps) {
			return yield(w.instantiate(choice))
		}
		c := w.Comps[i]
		if len(c.Rows) == 0 {
			return rec(i + 1)
		}
		for j := range c.Rows {
			choice[i] = j
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

func (w *WSD) instantiate(choice []int) map[string]*engine.Relation {
	type key struct {
		rel string
		tid int64
	}
	fields := map[key]map[string]engine.Value{}
	for ci, c := range w.Comps {
		if len(c.Rows) == 0 {
			continue
		}
		row := c.Rows[choice[ci]]
		for fi, f := range c.Fields {
			v := row[fi]
			if v.IsNull() {
				continue // ⊥: field absent in this local world
			}
			k := key{rel: f.Rel, tid: f.TID}
			m, ok := fields[k]
			if !ok {
				m = map[string]engine.Value{}
				fields[k] = m
			}
			m[f.Attr] = v
		}
	}
	out := map[string]*engine.Relation{}
	for _, rel := range w.relOrder {
		attrs := w.Schema[rel]
		cols := make([]engine.Column, len(attrs))
		for i, a := range attrs {
			cols[i] = engine.Column{Name: rel + "." + a, Kind: engine.KindNull}
		}
		r := engine.NewRelation(engine.Schema{Cols: cols})
		var tids []int64
		for k := range fields {
			if k.rel == rel {
				tids = append(tids, k.tid)
			}
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			m := fields[key{rel: rel, tid: tid}]
			if len(m) != len(attrs) {
				continue // partial tuple: removed from the world
			}
			row := make(engine.Tuple, len(attrs))
			for i, a := range attrs {
				row[i] = m[a]
			}
			r.Rows = append(r.Rows, row)
		}
		out[rel] = r
	}
	return out
}

// WorldSetSignature fingerprints the represented world-set (sorted
// distinct world signatures), comparable with core.WorldSetSignature.
func (w *WSD) WorldSetSignature(maxWorlds int64) ([]string, error) {
	if n := w.NumWorlds(); n > maxWorlds {
		return nil, fmt.Errorf("wsd: %d worlds exceed cap %d", n, maxWorlds)
	}
	seen := map[string]bool{}
	w.EnumWorlds(func(world map[string]*engine.Relation) bool {
		seen[core.WorldSignature(world)] = true
		return true
	})
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// FromNormalizedUDB converts a normalized (descriptor width ≤ 1)
// U-relational database into the corresponding WSD: one component per
// variable (Figure 5's correspondence), plus one single-local-world
// component holding all certain fields.
func FromNormalizedUDB(db *core.UDB) (*WSD, error) {
	schema := map[string][]string{}
	for _, name := range db.RelNames() {
		schema[name] = db.Rels[name].Attrs
	}
	out := New(schema)

	type cell struct {
		f Field
		v engine.Value
	}
	perVar := map[ws.Var]map[ws.Val][]cell{}
	var certain []cell
	for _, name := range db.RelNames() {
		for _, p := range db.Rels[name].Parts {
			for _, r := range p.Rows {
				if len(r.D) > 1 {
					return nil, fmt.Errorf("wsd: database not normalized: descriptor %s", r.D)
				}
				for ai, a := range p.Attrs {
					c := cell{f: Field{Rel: name, TID: r.TID, Attr: a}, v: r.Vals[ai]}
					if len(r.D) == 0 || r.D[0].Var == ws.TrivialVar {
						certain = append(certain, c)
						continue
					}
					x := r.D[0].Var
					if perVar[x] == nil {
						perVar[x] = map[ws.Val][]cell{}
					}
					perVar[x][r.D[0].Val] = append(perVar[x][r.D[0].Val], c)
				}
			}
		}
	}
	// Certain component: one local world assigning every certain field.
	if len(certain) > 0 {
		comp := &Component{Name: "c0"}
		row := make([]engine.Value, 0, len(certain))
		for _, c := range certain {
			comp.Fields = append(comp.Fields, c.f)
			row = append(row, c.v)
		}
		comp.Rows = [][]engine.Value{row}
		out.AddComponent(comp)
	}
	// One component per variable: rows indexed by domain value.
	for _, x := range db.W.NontrivialVars() {
		cellsByVal := perVar[x]
		// Collect the fields this variable controls.
		fieldIdx := map[Field]int{}
		var fields []Field
		for _, cs := range cellsByVal {
			for _, c := range cs {
				if _, ok := fieldIdx[c.f]; !ok {
					fieldIdx[c.f] = len(fields)
					fields = append(fields, c.f)
				}
			}
		}
		if len(fields) == 0 {
			continue // variable controls nothing: drop the component
		}
		comp := &Component{Name: db.W.Name(x), Fields: fields}
		for _, v := range db.W.Domain(x) {
			row := make([]engine.Value, len(fields)) // ⊥-initialized
			for _, c := range cellsByVal[v] {
				row[fieldIdx[c.f]] = c.v
			}
			comp.Rows = append(comp.Rows, row)
		}
		out.AddComponent(comp)
	}
	return out, nil
}

// ToUDB converts a WSD back into a normalized U-relational database:
// one variable per component (domain = local world indexes), one
// attribute-level partition per (relation, attribute).
func (w *WSD) ToUDB() (*core.UDB, error) {
	db := core.NewUDB()
	type pkey struct{ rel, attr string }
	parts := map[pkey]*core.URelation{}
	for _, rel := range w.relOrder {
		attrs := w.Schema[rel]
		if err := db.AddRelation(rel, attrs...); err != nil {
			return nil, err
		}
		for _, a := range attrs {
			p, err := db.AddPartition(rel, "u_"+rel+"_"+a, a)
			if err != nil {
				return nil, err
			}
			parts[pkey{rel, a}] = p
		}
	}
	for _, c := range w.Comps {
		if len(c.Rows) == 0 {
			continue
		}
		var d func(j int) ws.Descriptor
		if len(c.Rows) == 1 {
			// Single local world: certain content, empty descriptor.
			d = func(int) ws.Descriptor { return nil }
		} else {
			dom := make([]ws.Val, len(c.Rows))
			for j := range dom {
				dom[j] = ws.Val(j + 1)
			}
			x, err := db.W.NewVar(c.Name, dom)
			if err != nil {
				return nil, err
			}
			d = func(j int) ws.Descriptor {
				return ws.MustDescriptor(ws.A(x, ws.Val(j+1)))
			}
		}
		for j, row := range c.Rows {
			for fi, f := range c.Fields {
				if row[fi].IsNull() {
					continue
				}
				p := parts[pkey{f.Rel, f.Attr}]
				if p == nil {
					return nil, fmt.Errorf("wsd: field %s outside schema", f)
				}
				p.Add(d(j), f.TID, row[fi])
			}
		}
	}
	return db, nil
}
