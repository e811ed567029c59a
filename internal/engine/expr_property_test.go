package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestExprEvalAgainstReference checks the expression evaluator against
// a direct reference implementation on random integer inputs.
func TestExprEvalAgainstReference(t *testing.T) {
	sch := NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindInt},
	)
	type exprCase struct {
		build func() Expr
		ref   func(a, b int64) bool
	}
	cases := []exprCase{
		{
			build: func() Expr { return Cmp(LT, Col("a"), Col("b")) },
			ref:   func(a, b int64) bool { return a < b },
		},
		{
			build: func() Expr {
				return And(Cmp(GE, Col("a"), ConstInt(0)), Cmp(LE, Col("b"), ConstInt(100)))
			},
			ref: func(a, b int64) bool { return a >= 0 && b <= 100 },
		},
		{
			build: func() Expr {
				return Or(Cmp(EQ, Col("a"), Col("b")), Not(Cmp(GT, Col("a"), ConstInt(5))))
			},
			ref: func(a, b int64) bool { return a == b || !(a > 5) },
		},
		{
			build: func() Expr {
				return Not(And(Cmp(NE, Col("a"), Col("b")), Cmp(LT, ConstInt(-3), Col("b"))))
			},
			ref: func(a, b int64) bool { return !(a != b && -3 < b) },
		},
	}
	for i, c := range cases {
		bound, err := c.build().Bind(sch)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		f := func(a, b int32) bool {
			row := Tuple{Int(int64(a)), Int(int64(b))}
			return bound.Eval(row).Truth() == c.ref(int64(a), int64(b))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// TestExprStringsRoundTrip: rendering is total and mentions operands.
func TestExprStrings(t *testing.T) {
	exprs := []Expr{
		Cmp(LE, Col("a"), ConstInt(3)),
		And(Cmp(GT, Col("a"), ConstInt(1)), Cmp(LT, Col("a"), ConstInt(9))),
		Or(Cmp(EQ, Col("a"), ConstStr("x")), Not(Cmp(EQ, Col("a"), Col("a")))),
		Cmp(NE, Col("a"), ConstFloat(1.5)),
	}
	for _, e := range exprs {
		if len(e.String()) == 0 {
			t.Errorf("empty render for %T", e)
		}
	}
}

// interpret evaluates an unbound predicate the way Bind + Eval did before
// the ψ node existed: connectives here, every leaf bound on its own (a
// leaf's Bind fuses nothing).
func interpret(t *testing.T, e Expr, sch Schema, row Tuple) bool {
	l, ok := e.(*LogicExpr)
	if !ok {
		b, err := e.Bind(sch)
		if err != nil {
			t.Fatal(err)
		}
		return b.Eval(row).Truth()
	}
	switch l.Op {
	case AndOp:
		for _, a := range l.Args {
			if !interpret(t, a, sch, row) {
				return false
			}
		}
		return true
	case OrOp:
		for _, a := range l.Args {
			if interpret(t, a, sch, row) {
				return true
			}
		}
		return false
	default:
		return !interpret(t, l.Args[0], sch, row)
	}
}

// TestPsiKernelIsTheInterpretedPsi: binding fuses the ψ conjuncts of a
// predicate into psiExpr nodes, and the bound predicate evaluates, prints
// and lists its columns exactly as the interpreted one — on int cells
// (the kernel) and on NULL, string, float and bool cells (its fallback),
// for a lone ψ disjunct, conjunctions of them, look-alikes that are not ψ,
// and conjunctions mixing all three.
func TestPsiKernelIsTheInterpretedPsi(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const width = 6
	cols := make([]Column, width)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: KindInt}
	}
	sch := Schema{Cols: cols}
	col := func() Expr { return Col(cols[rng.Intn(width)].Name) }
	psi := func() Expr { return Or(Cmp(NE, col(), col()), Cmp(EQ, col(), col())) }
	other := func() Expr {
		switch rng.Intn(5) {
		case 0: // the disjuncts the other way round
			return Or(Cmp(EQ, col(), col()), Cmp(NE, col(), col()))
		case 1: // other operators
			return Or(Cmp(LT, col(), col()), Cmp(EQ, col(), col()))
		case 2: // a constant operand
			return Or(Cmp(NE, col(), ConstInt(int64(rng.Intn(3)))), Cmp(EQ, col(), col()))
		case 3: // three disjuncts
			return Or(Cmp(NE, col(), col()), Cmp(EQ, col(), col()), Cmp(EQ, col(), col()))
		default:
			return Not(psi())
		}
	}
	cell := func() Value {
		switch rng.Intn(10) {
		case 0:
			return Null()
		case 1:
			return Str(fmt.Sprint(rng.Intn(3)))
		case 2:
			return Float(float64(rng.Intn(3)))
		case 3:
			return Bool(rng.Intn(2) == 0)
		default:
			return Int(int64(rng.Intn(3)))
		}
	}
	// countPsi counts the ψ conjuncts bound into psiExpr nodes.
	var countPsi func(e Expr) int
	countPsi = func(e Expr) int {
		switch x := e.(type) {
		case *psiExpr:
			return len(x.cells)
		case *LogicExpr:
			n := 0
			for _, a := range x.Args {
				n += countPsi(a)
			}
			return n
		}
		return 0
	}
	fused, holds := 0, 0
	for iter := 0; iter < 400; iter++ {
		var conjs []Expr
		want := 0 // ψ conjuncts at the top level of the conjunction
		for n := 1 + rng.Intn(5); n > 0; n-- {
			if iter%4 == 3 || (iter%4 != 0 && rng.Intn(2) == 0) {
				conjs = append(conjs, other())
			} else {
				conjs = append(conjs, psi())
				want++
			}
		}
		e := And(conjs...)
		bound, err := e.Bind(sch)
		if err != nil {
			t.Fatal(err)
		}
		if got := countPsi(bound); got < want {
			t.Fatalf("%s: %d of %d ψ conjuncts fused", e, got, want)
		}
		fused += want
		if bound.String() != e.String() {
			t.Fatalf("bound prints %s, unbound %s", bound, e)
		}
		if !slices.Equal(bound.Columns(nil), e.Columns(nil)) {
			t.Fatalf("%s: bound lists %v, unbound %v", e, bound.Columns(nil), e.Columns(nil))
		}
		again, err := bound.Bind(sch)
		if err != nil || again.String() != e.String() {
			t.Fatalf("rebinding %s gives %v, %v", e, again, err)
		}
		for k := 0; k < 40; k++ {
			row := make(Tuple, width)
			for i := range row {
				if row[i] = Int(int64(rng.Intn(3))); k%2 == 1 {
					row[i] = cell()
				}
			}
			ref := interpret(t, e, sch, row)
			if got := bound.Eval(row).Truth(); got != ref {
				t.Fatalf("%s on %v: bound %v, interpreted %v", e, row, got, ref)
			}
			if got := again.Eval(row).Truth(); got != ref {
				t.Fatalf("%s on %v: rebound %v, interpreted %v", e, row, got, ref)
			}
			if ref {
				holds++
			}
		}
	}
	if fused < 300 || holds < 1000 || holds > 15000 {
		t.Fatalf("weak instance set: %d ψ conjuncts fused, %d of 16000 rows hold", fused, holds)
	}
}
