package engine

import (
	"fmt"
	"strings"
	"unsafe"
)

// NamedExpr pairs an expression with an output column name.
type NamedExpr struct {
	Name string
	E    Expr
	Kind Kind // declared output kind (for schema purposes)
}

// ExtendIter appends computed columns to each input batch. The
// U-relation union translation uses it to pad ws-descriptors to a common
// width and to add NULL tuple-id columns for the other side's relations,
// so a computed column is an input column, which shares its vector, or a
// constant, built into a fresh vector per batch; Open refuses any other
// expression.
type ExtendIter struct {
	In    Iterator
	Exprs []NamedExpr

	bound []Expr
	sch   Schema
	cols  []ColVec // reused output column headers
	cb    ColBatch // reused output batch header
}

// NewExtend builds an extend operator.
func NewExtend(in Iterator, exprs []NamedExpr) *ExtendIter {
	return &ExtendIter{In: in, Exprs: exprs}
}

func (e *ExtendIter) Open() error {
	if err := e.In.Open(); err != nil {
		return err
	}
	in := e.In.Schema()
	e.bound = make([]Expr, len(e.Exprs))
	for i, ne := range e.Exprs {
		b, err := ne.E.Bind(in)
		if err != nil {
			return err
		}
		switch b.(type) {
		case *ColRef, *ConstExpr:
		default:
			return fmt.Errorf("engine: extend: %s is neither a column nor a constant", b)
		}
		e.bound[i] = b
	}
	e.sch = extendSchema(in, e.Exprs)
	return nil
}

// extendSchema is the schema of rows of in extended by exprs.
func extendSchema(in Schema, exprs []NamedExpr) Schema {
	cols := make([]Column, 0, in.Len()+len(exprs))
	cols = append(cols, in.Cols...)
	for _, ne := range exprs {
		cols = append(cols, Column{Name: ne.Name, Kind: ne.Kind})
	}
	return Schema{Cols: cols}
}

func (e *ExtendIter) Next() (*ColBatch, bool, error) {
	in, ok, err := e.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	cols := append(e.cols[:0], in.Cols...)
	for _, b := range e.bound {
		switch b := b.(type) {
		case *ColRef:
			cols = append(cols, in.Cols[b.Idx])
		case *ConstExpr:
			cols = append(cols, BuildColVec(in.N, func(int) Value { return b.Val }))
		}
	}
	e.cols = cols
	e.cb = ColBatch{Sch: e.sch, Cols: cols, N: in.N, Sel: in.Sel}
	return &e.cb, true, nil
}

func (e *ExtendIter) Close() error {
	e.cols = nil
	return e.In.Close()
}

func (e *ExtendIter) Schema() Schema {
	if e.sch.Len() > 0 {
		return e.sch
	}
	return extendSchema(e.In.Schema(), e.Exprs)
}

// ExtendPlan is the logical node for ExtendIter.
type ExtendPlan struct {
	Child Plan
	Exprs []NamedExpr

	d derivedSchema
}

// Extend builds an extend node.
func Extend(child Plan, exprs ...NamedExpr) *ExtendPlan {
	return &ExtendPlan{Child: child, Exprs: exprs}
}

func (p *ExtendPlan) Schema(cat *Catalog) (Schema, error) {
	return p.d.get(func() (Schema, error) {
		in, err := p.Child.Schema(cat)
		return extendSchema(in, p.Exprs), err
	})
}

func (p *ExtendPlan) Children() []Plan { return unsafe.Slice(&p.Child, 1) }
func (p *ExtendPlan) WithChildren(ch []Plan) Plan {
	return &ExtendPlan{Child: ch[0], Exprs: p.Exprs}
}

func (p *ExtendPlan) Label() string {
	names := make([]string, len(p.Exprs))
	for i, ne := range p.Exprs {
		names[i] = ne.Name
	}
	return "Extend: " + strings.Join(names, ", ")
}
