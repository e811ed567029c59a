package engine

// NamedExpr pairs an expression with an output column name.
type NamedExpr struct {
	Name string
	E    Expr
	Kind Kind // declared output kind (for schema purposes)
}

// ExtendIter appends computed columns to each input row. The U-relation
// union translation uses it to pad ws-descriptors to a common width and
// to add NULL tuple-id columns for the other side's relations.
type ExtendIter struct {
	In    Iterator
	Exprs []NamedExpr

	bound []Expr
	sch   Schema
	out   []Tuple  // reused output batch headers
	arena outArena // output cells (write-once)
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
	cols := make([]Column, 0, in.Len()+len(e.Exprs))
	cols = append(cols, in.Cols...)
	for i, ne := range e.Exprs {
		b, err := ne.E.Bind(in)
		if err != nil {
			return err
		}
		e.bound[i] = b
		cols = append(cols, Column{Name: ne.Name, Kind: ne.Kind})
	}
	e.sch = Schema{Cols: cols}
	return nil
}

func (e *ExtendIter) NextBatch() ([]Tuple, bool, error) {
	in, ok, err := e.In.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	out := e.out[:0]
	for _, row := range in {
		t := e.arena.carve(e.sch.Len())
		n := copy(t, row)
		for i, b := range e.bound {
			t[n+i] = b.Eval(row)
		}
		out = append(out, t)
	}
	e.out = out
	return out, true, nil
}

func (e *ExtendIter) Close() error {
	e.out, e.arena = nil, outArena{}
	return e.In.Close()
}

func (e *ExtendIter) Schema() Schema {
	if e.sch.Len() > 0 {
		return e.sch
	}
	in := e.In.Schema()
	cols := make([]Column, 0, in.Len()+len(e.Exprs))
	cols = append(cols, in.Cols...)
	for _, ne := range e.Exprs {
		cols = append(cols, Column{Name: ne.Name, Kind: ne.Kind})
	}
	return Schema{Cols: cols}
}

// ExtendPlan is the logical node for ExtendIter.
type ExtendPlan struct {
	Child Plan
	Exprs []NamedExpr
}

// Extend builds an extend node.
func Extend(child Plan, exprs ...NamedExpr) *ExtendPlan {
	return &ExtendPlan{Child: child, Exprs: exprs}
}

func (p *ExtendPlan) Schema(cat *Catalog) (Schema, error) {
	in, err := p.Child.Schema(cat)
	if err != nil {
		return Schema{}, err
	}
	cols := make([]Column, 0, in.Len()+len(p.Exprs))
	cols = append(cols, in.Cols...)
	for _, ne := range p.Exprs {
		cols = append(cols, Column{Name: ne.Name, Kind: ne.Kind})
	}
	return Schema{Cols: cols}, nil
}

func (p *ExtendPlan) Children() []Plan { return []Plan{p.Child} }
func (p *ExtendPlan) WithChildren(ch []Plan) Plan {
	return &ExtendPlan{Child: ch[0], Exprs: p.Exprs}
}

func (p *ExtendPlan) Label() string {
	names := make([]string, len(p.Exprs))
	for i, ne := range p.Exprs {
		names[i] = ne.Name
	}
	return "Extend: " + joinStrings(names)
}
