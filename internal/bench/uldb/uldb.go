package uldb

import (
	"fmt"
	"sort"

	"urel/internal/engine"
)

// AltID identifies one alternative: x-tuple id and alternative index
// (0-based).
type AltID struct {
	XT  int64
	Alt int
}

func (a AltID) String() string { return fmt.Sprintf("(%d,%d)", a.XT, a.Alt) }

// Alternative is one possible instantiation of an x-tuple, with its
// lineage: a conjunction of alternatives of other x-tuples this one
// depends on.
type Alternative struct {
	Vals    engine.Tuple
	Lineage []AltID
}

// XTuple is an uncertain tuple: a set of mutually exclusive
// alternatives; Maybe marks the paper's '?', allowing worlds with none
// of the alternatives.
type XTuple struct {
	ID    int64
	Maybe bool
	Alts  []Alternative
}

// Relation is a ULDB relation.
type Relation struct {
	Name  string
	Attrs []string
	XTs   []*XTuple
}

// AddXTuple appends an x-tuple and returns it.
func (r *Relation) AddXTuple(id int64, maybe bool) *XTuple {
	xt := &XTuple{ID: id, Maybe: maybe}
	r.XTs = append(r.XTs, xt)
	return xt
}

// AddAlt appends an alternative to the x-tuple.
func (x *XTuple) AddAlt(lineage []AltID, vals ...engine.Value) {
	x.Alts = append(x.Alts, Alternative{Vals: vals, Lineage: lineage})
}

// NumAlternatives counts all alternatives (the dominant size factor;
// the paper reports 15M alternatives where vertical partitions hold
// 80K tuples).
func (r *Relation) NumAlternatives() int {
	n := 0
	for _, xt := range r.XTs {
		n += len(xt.Alts)
	}
	return n
}

// SizeBytes estimates the representation footprint.
func (r *Relation) SizeBytes() int64 {
	var n int64
	for _, xt := range r.XTs {
		n += 16
		for _, a := range xt.Alts {
			n += int64(len(a.Lineage)) * 12
			for _, v := range a.Vals {
				n += int64(v.SizeBytes())
			}
		}
	}
	return n
}

// DB is a ULDB database: named relations plus a deterministic order.
type DB struct {
	Rels  map[string]*Relation
	order []string
}

// NewDB creates an empty ULDB.
func NewDB() *DB { return &DB{Rels: map[string]*Relation{}} }

// AddRelation declares a relation.
func (db *DB) AddRelation(name string, attrs ...string) *Relation {
	r := &Relation{Name: name, Attrs: append([]string(nil), attrs...)}
	db.Rels[name] = r
	db.order = append(db.order, name)
	return r
}

// RelNames returns relation names in declaration order.
func (db *DB) RelNames() []string { return append([]string(nil), db.order...) }

// choice maps x-tuple id -> chosen alternative (-1 = none).
type choice map[int64]int

// allXTuples returns every x-tuple (across relations), sorted by id;
// ids must be globally unique for lineage to be unambiguous.
func (db *DB) allXTuples() ([]*XTuple, error) {
	var all []*XTuple
	seen := map[int64]bool{}
	for _, name := range db.order {
		for _, xt := range db.Rels[name].XTs {
			if seen[xt.ID] {
				return nil, fmt.Errorf("uldb: duplicate x-tuple id %d", xt.ID)
			}
			seen[xt.ID] = true
			all = append(all, xt)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all, nil
}

// consistent checks that every chosen alternative's lineage is
// satisfied by the choice (transitively, since lineage targets are
// themselves chosen alternatives checked the same way).
func (db *DB) consistent(all []*XTuple, ch choice) bool {
	for _, xt := range all {
		ai := ch[xt.ID]
		if ai < 0 {
			continue
		}
		for _, dep := range xt.Alts[ai].Lineage {
			if got, ok := ch[dep.XT]; !ok || got != dep.Alt {
				return false
			}
		}
	}
	return true
}

// EnumWorlds enumerates all consistent worlds, yielding the
// instantiated relations; stops when yield returns false. Exponential;
// for tests and small baselines only.
func (db *DB) EnumWorlds(yield func(world map[string]*engine.Relation) bool) error {
	all, err := db.allXTuples()
	if err != nil {
		return err
	}
	ch := choice{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(all) {
			if !db.consistent(all, ch) {
				return true
			}
			return yield(db.instantiate(ch))
		}
		xt := all[i]
		for ai := range xt.Alts {
			ch[xt.ID] = ai
			if !rec(i + 1) {
				return false
			}
		}
		if xt.Maybe || len(xt.Alts) == 0 {
			ch[xt.ID] = -1
			if !rec(i + 1) {
				return false
			}
		}
		delete(ch, xt.ID)
		return true
	}
	rec(0)
	return nil
}

func (db *DB) instantiate(ch choice) map[string]*engine.Relation {
	out := map[string]*engine.Relation{}
	for _, name := range db.order {
		r := db.Rels[name]
		cols := make([]engine.Column, len(r.Attrs))
		for i, a := range r.Attrs {
			cols[i] = engine.Column{Name: name + "." + a, Kind: engine.KindNull}
		}
		rel := engine.NewRelation(engine.Schema{Cols: cols})
		for _, xt := range r.XTs {
			ai, ok := ch[xt.ID]
			if !ok || ai < 0 {
				continue
			}
			rel.Rows = append(rel.Rows, xt.Alts[ai].Vals)
		}
		out[name] = rel
	}
	return out
}

// WorldSetSignature fingerprints the represented world-set.
func (db *DB) WorldSetSignature(maxWorlds int64) ([]string, error) {
	all, err := db.allXTuples()
	if err != nil {
		return nil, err
	}
	n := int64(1)
	for _, xt := range all {
		k := int64(len(xt.Alts))
		if xt.Maybe || len(xt.Alts) == 0 {
			k++
		}
		n *= k
		if n > maxWorlds {
			return nil, fmt.Errorf("uldb: more than %d candidate worlds", maxWorlds)
		}
	}
	seen := map[string]bool{}
	err = db.EnumWorlds(func(world map[string]*engine.Relation) bool {
		seen[worldSig(world)] = true
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

func worldSig(world map[string]*engine.Relation) string {
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
