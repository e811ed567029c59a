package engine

import (
	"fmt"
	"slices"
	"strings"
)

// Expr is a scalar expression evaluated against a tuple. Expressions are
// built unresolved (column references by name) and bound to a schema
// before execution; Bind returns a resolved copy and never mutates.
type Expr interface {
	// Eval evaluates the bound expression on a row.
	Eval(row Tuple) Value
	// Bind resolves column references against sch.
	Bind(sch Schema) (Expr, error)
	// Columns appends the names of all referenced columns to dst.
	Columns(dst []string) []string
	// String renders the expression for EXPLAIN output.
	String() string
}

// ColRef references a column by name; after Bind, Idx is the position in
// the input schema.
type ColRef struct {
	Name string
	Idx  int
}

// Col builds an unresolved column reference.
func Col(name string) *ColRef { return &ColRef{Name: name, Idx: -1} }

// Eval returns the referenced field.
func (c *ColRef) Eval(row Tuple) Value {
	return row[c.Idx]
}

// Bind resolves the reference.
func (c *ColRef) Bind(sch Schema) (Expr, error) {
	i := sch.IndexOf(c.Name)
	if i < 0 {
		return nil, fmt.Errorf("engine: unknown column %q in %v", c.Name, sch.Names())
	}
	return &ColRef{Name: c.Name, Idx: i}, nil
}

// Columns appends the column name.
func (c *ColRef) Columns(dst []string) []string { return append(dst, c.Name) }

func (c *ColRef) String() string { return c.Name }

// ConstExpr is a literal value.
type ConstExpr struct{ Val Value }

// Const builds a literal expression.
func Const(v Value) *ConstExpr { return &ConstExpr{Val: v} }

// ConstInt, ConstStr, ConstFloat are literal shorthands.
func ConstInt(i int64) *ConstExpr     { return Const(Int(i)) }
func ConstStr(s string) *ConstExpr    { return Const(Str(s)) }
func ConstFloat(f float64) *ConstExpr { return Const(Float(f)) }

// Eval returns the literal.
func (c *ConstExpr) Eval(Tuple) Value { return c.Val }

// Bind is a no-op for literals.
func (c *ConstExpr) Bind(Schema) (Expr, error) { return c, nil }

// Columns is a no-op for literals.
func (c *ConstExpr) Columns(dst []string) []string { return dst }

func (c *ConstExpr) String() string { return c.Val.Quoted() }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// CmpExpr compares two subexpressions. Comparisons involving NULL yield
// false (two-valued collapse of SQL's UNKNOWN), except EQ/NE never treat
// NULL equal to anything including NULL.
type CmpExpr struct {
	Op   CmpOp
	L, R Expr
}

// Cmp builds a comparison.
func Cmp(op CmpOp, l, r Expr) *CmpExpr { return &CmpExpr{Op: op, L: l, R: r} }

// Eq builds an equality comparison between two columns or expressions.
func Eq(l, r Expr) *CmpExpr { return Cmp(EQ, l, r) }

// EqCols builds l = r over column names.
func EqCols(l, r string) *CmpExpr { return Eq(Col(l), Col(r)) }

// Eval evaluates the comparison.
func (c *CmpExpr) Eval(row Tuple) Value {
	lv := c.L.Eval(row)
	rv := c.R.Eval(row)
	if lv.IsNull() || rv.IsNull() {
		return Bool(false)
	}
	cv := Compare(lv, rv)
	switch c.Op {
	case EQ:
		return Bool(cv == 0)
	case NE:
		return Bool(cv != 0)
	case LT:
		return Bool(cv < 0)
	case LE:
		return Bool(cv <= 0)
	case GT:
		return Bool(cv > 0)
	case GE:
		return Bool(cv >= 0)
	}
	return Bool(false)
}

// Bind resolves both sides.
func (c *CmpExpr) Bind(sch Schema) (Expr, error) {
	l, err := c.L.Bind(sch)
	if err != nil {
		return nil, err
	}
	r, err := c.R.Bind(sch)
	if err != nil {
		return nil, err
	}
	return &CmpExpr{Op: c.Op, L: l, R: r}, nil
}

// Columns collects referenced columns from both sides.
func (c *CmpExpr) Columns(dst []string) []string {
	return c.R.Columns(c.L.Columns(dst))
}

func (c *CmpExpr) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// LogicOp enumerates boolean connectives.
type LogicOp uint8

// Boolean connectives.
const (
	AndOp LogicOp = iota
	OrOp
	NotOp
)

// LogicExpr combines boolean subexpressions. For NotOp only Args[0] is
// used.
type LogicExpr struct {
	Op   LogicOp
	Args []Expr
}

// And conjoins expressions; And() with no arguments is the constant
// true, And(e) is e.
func And(args ...Expr) Expr {
	flat := make([]Expr, 0, len(args))
	for _, a := range args {
		if a == nil {
			continue
		}
		if l, ok := a.(*LogicExpr); ok && l.Op == AndOp {
			flat = append(flat, l.Args...)
			continue
		}
		flat = append(flat, a)
	}
	switch len(flat) {
	case 0:
		return Const(Bool(true))
	case 1:
		return flat[0]
	}
	return &LogicExpr{Op: AndOp, Args: flat}
}

// Or disjoins expressions; Or() with no arguments is the constant false.
func Or(args ...Expr) Expr {
	flat := make([]Expr, 0, len(args))
	for _, a := range args {
		if a == nil {
			continue
		}
		if l, ok := a.(*LogicExpr); ok && l.Op == OrOp {
			flat = append(flat, l.Args...)
			continue
		}
		flat = append(flat, a)
	}
	switch len(flat) {
	case 0:
		return Const(Bool(false))
	case 1:
		return flat[0]
	}
	return &LogicExpr{Op: OrOp, Args: flat}
}

// Not negates an expression.
func Not(a Expr) Expr { return &LogicExpr{Op: NotOp, Args: []Expr{a}} }

// Eval evaluates the connective with short-circuiting.
func (l *LogicExpr) Eval(row Tuple) Value {
	switch l.Op {
	case AndOp:
		for _, a := range l.Args {
			if !a.Eval(row).Truth() {
				return Bool(false)
			}
		}
		return Bool(true)
	case OrOp:
		for _, a := range l.Args {
			if a.Eval(row).Truth() {
				return Bool(true)
			}
		}
		return Bool(false)
	case NotOp:
		return Bool(!l.Args[0].Eval(row).Truth())
	}
	return Bool(false)
}

// Bind resolves all children. A disjunct of the ψ shape comes back as a
// psiExpr, and a conjunction joins each run of adjacent ones into one.
func (l *LogicExpr) Bind(sch Schema) (Expr, error) {
	args := make([]Expr, 0, len(l.Args))
	for _, a := range l.Args {
		b, err := a.Bind(sch)
		if err != nil {
			return nil, err
		}
		if p, ok := b.(*psiExpr); ok && l.Op == AndOp && len(args) > 0 {
			if prev, ok := args[len(args)-1].(*psiExpr); ok {
				args[len(args)-1] = &psiExpr{
					cells: append(slices.Clip(prev.cells), p.cells...),
					conjs: append(slices.Clip(prev.conjs), p.conjs...),
				}
				continue
			}
		}
		args = append(args, b)
	}
	bound := &LogicExpr{Op: l.Op, Args: args}
	if r, ok := psiRefs(bound); ok {
		return &psiExpr{cells: [][4]int{{r[0].Idx, r[1].Idx, r[2].Idx, r[3].Idx}}, conjs: []Expr{bound}}, nil
	}
	return bound, nil
}

// Columns collects from all children.
func (l *LogicExpr) Columns(dst []string) []string {
	for _, a := range l.Args {
		dst = a.Columns(dst)
	}
	return dst
}

func (l *LogicExpr) String() string {
	switch l.Op {
	case NotOp:
		return fmt.Sprintf("NOT (%s)", l.Args[0])
	case AndOp:
		parts := make([]string, len(l.Args))
		for i, a := range l.Args {
			parts[i] = a.String()
		}
		return "(" + strings.Join(parts, " AND ") + ")"
	default:
		parts := make([]string, len(l.Args))
		for i, a := range l.Args {
			parts[i] = a.String()
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	}
}

// psiExpr is a bound conjunction of ψ conditions (Figure 4 of the paper):
// each conjunct is (a.var <> b.var OR a.rng = b.rng) over four column
// references — two descriptor assignments are consistent. Every merge
// of two partitions carries one per pair of descriptor columns, always
// over int cells, so Eval compares those directly; a conjunct that meets
// a cell of another kind (NULL, or whatever a caller wrote in this shape)
// is evaluated as the comparison it was bound from. It prints and lists
// its columns as the conjuncts it replaces.
type psiExpr struct {
	cells [][4]int // per conjunct: the positions of a.var, b.var, a.rng, b.rng
	conjs []Expr   // per conjunct: the bound disjunction
}

// psiRefs recognizes a disjunction of the ψ shape, bound or not, and
// returns its column references in the order a.var, b.var, a.rng, b.rng.
func psiRefs(e Expr) (refs [4]*ColRef, ok bool) {
	l, isOr := e.(*LogicExpr)
	if !isOr || l.Op != OrOp || len(l.Args) != 2 {
		return refs, false
	}
	for i, op := range [2]CmpOp{NE, EQ} {
		c, ok := l.Args[i].(*CmpExpr)
		if !ok || c.Op != op {
			return refs, false
		}
		a, aok := c.L.(*ColRef)
		b, bok := c.R.(*ColRef)
		if !aok || !bok {
			return refs, false
		}
		refs[2*i], refs[2*i+1] = a, b
	}
	return refs, true
}

// Eval reports whether every conjunct holds.
func (p *psiExpr) Eval(row Tuple) Value {
	for i, c := range p.cells {
		if av, bv := &row[c[0]], &row[c[1]]; av.K == KindInt && bv.K == KindInt {
			if av.I != bv.I {
				continue
			}
			if ar, br := &row[c[2]], &row[c[3]]; ar.K == KindInt && br.K == KindInt {
				if ar.I != br.I {
					return Bool(false)
				}
				continue
			}
		}
		if !p.conjs[i].Eval(row).Truth() {
			return Bool(false)
		}
	}
	return Bool(true)
}

// Bind rebinds the conjuncts, which join into one psiExpr again.
func (p *psiExpr) Bind(sch Schema) (Expr, error) {
	b, err := (&LogicExpr{Op: AndOp, Args: p.conjs}).Bind(sch)
	if err != nil {
		return nil, err
	}
	return b.(*LogicExpr).Args[0], nil
}

// Columns collects from the conjuncts.
func (p *psiExpr) Columns(dst []string) []string {
	for _, c := range p.conjs {
		dst = c.Columns(dst)
	}
	return dst
}

func (p *psiExpr) String() string {
	parts := make([]string, len(p.conjs))
	for i, c := range p.conjs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// SplitConjuncts flattens nested ANDs into a list of conjuncts.
// Constant-true conjuncts are dropped.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*LogicExpr); ok && l.Op == AndOp {
		var out []Expr
		for _, a := range l.Args {
			out = append(out, SplitConjuncts(a)...)
		}
		return out
	}
	if c, ok := e.(*ConstExpr); ok && c.Val.Truth() {
		return nil
	}
	return []Expr{e}
}

// ExprColumns returns the sorted, deduplicated column names referenced
// by e (nil-safe).
func ExprColumns(e Expr) []string {
	if e == nil {
		return nil
	}
	cols := e.Columns(nil)
	slices.Sort(cols)
	return slices.Compact(cols)
}

// CoveredBy reports whether every column referenced by e resolves in
// sch (nil expressions are trivially covered).
func CoveredBy(e Expr, sch Schema) bool {
	return e == nil || eachColumn(e, sch.Has)
}

// eachColumn calls f on the name of every column reference in e, in
// order and repeats included, until f returns false; it reports whether
// none did. Unlike ExprColumns it allocates nothing for an expression
// as a plan carries it (unbound).
func eachColumn(e Expr, f func(name string) bool) bool {
	switch x := e.(type) {
	case nil, *ConstExpr:
		return true
	case *ColRef:
		return f(x.Name)
	case *CmpExpr:
		return eachColumn(x.L, f) && eachColumn(x.R, f)
	case *LogicExpr:
		for _, a := range x.Args {
			if !eachColumn(a, f) {
				return false
			}
		}
		return true
	}
	for _, name := range e.Columns(nil) {
		if !f(name) {
			return false
		}
	}
	return true
}

// EquiPair is an equality join condition column pair extracted from a
// predicate: left column (in the left input) = right column (in the
// right input).
type EquiPair struct {
	L, R string
}

// ExtractEquiJoin splits a join predicate into equi-join column pairs
// usable as hash keys or an index probe plus a residual expression
// evaluated on the concatenated row. left and right are the input
// schemas.
func ExtractEquiJoin(cond Expr, left, right Schema) (pairs []EquiPair, residual Expr) {
	var rest []Expr
	for _, c := range SplitConjuncts(cond) {
		if cmp, ok := c.(*CmpExpr); ok && cmp.Op == EQ {
			lc, lok := cmp.L.(*ColRef)
			rc, rok := cmp.R.(*ColRef)
			if lok && rok {
				switch {
				case left.Has(lc.Name) && right.Has(rc.Name) && !right.Has(lc.Name) && !left.Has(rc.Name):
					pairs = append(pairs, EquiPair{L: lc.Name, R: rc.Name})
					continue
				case left.Has(rc.Name) && right.Has(lc.Name) && !right.Has(rc.Name) && !left.Has(lc.Name):
					pairs = append(pairs, EquiPair{L: rc.Name, R: lc.Name})
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	if len(rest) == 0 {
		return pairs, nil
	}
	return pairs, And(rest...)
}
