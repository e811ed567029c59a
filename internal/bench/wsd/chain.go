package wsd

import (
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// ChainUDB builds the world-set of Example 5.1 as U-relations: a
// relation R[A,B] over tuples t1..tn where ti.A and t_{(i mod n)+1}.B
// depend on each other through variable ci (domain {1, 2} standing for
// the paper's {w1, w2}); value 1 under w1 and 0 under w2 (Figure 6b).
func ChainUDB(n int) *core.UDB {
	db := core.NewUDB()
	db.MustAddRelation("r", "a", "b")
	u1 := db.MustAddPartition("r", "u1_a", "a")
	u2 := db.MustAddPartition("r", "u2_b", "b")
	vars := make([]ws.Var, n+1)
	for i := 1; i <= n; i++ {
		vars[i] = db.W.NewBoolVar("")
	}
	next := func(i int) int { return i%n + 1 }
	for i := 1; i <= n; i++ {
		u1.Add(ws.MustDescriptor(ws.A(vars[i], 1)), int64(i), engine.Int(1))
		u1.Add(ws.MustDescriptor(ws.A(vars[i], 2)), int64(i), engine.Int(0))
		u2.Add(ws.MustDescriptor(ws.A(vars[i], 1)), int64(next(i)), engine.Int(1))
		u2.Add(ws.MustDescriptor(ws.A(vars[i], 2)), int64(next(i)), engine.Int(0))
	}
	return db
}

// ChainWSD builds the same world-set directly as a WSD (Figure 6a): n
// components, each with fields {ti.A, t_{(i mod n)+1}.B} and two local
// worlds.
func ChainWSD(n int) *WSD {
	w := New(map[string][]string{"r": {"a", "b"}})
	next := func(i int) int { return i%n + 1 }
	for i := 1; i <= n; i++ {
		c := &Component{
			Name: "c" + string(rune('0'+i%10)),
			Fields: []Field{
				{Rel: "r", TID: int64(i), Attr: "a"},
				{Rel: "r", TID: int64(next(i)), Attr: "b"},
			},
			Rows: [][]engine.Value{
				{engine.Int(1), engine.Int(1)},
				{engine.Int(0), engine.Int(0)},
			},
		}
		w.AddComponent(c)
	}
	return w
}

// ChainSelectResult evaluates σ_{A=B}(R) on the chain database through
// the U-relational translation (the Figure 7 experiment). The result
// U-relation has 2n tuples; normalizing it (the WSD equivalent) blows
// up to one component with 2^n local worlds — Theorem 5.2's separation,
// measurable via NormalizedLocalWorlds.
func ChainSelectResult(n int) (*core.UResult, error) {
	db := ChainUDB(n)
	q := core.Select(core.Rel("r"),
		engine.Cmp(engine.EQ, engine.Col("a"), engine.Col("b")))
	return db.Eval(q, engine.ExecConfig{})
}

// NormalizedLocalWorlds normalizes the result and returns the maximum
// domain size among the fresh variables — the number of local worlds
// the equivalent WSD needs.
func NormalizedLocalWorlds(r *core.UResult) (int, error) {
	norm, err := r.Normalize()
	if err != nil {
		return 0, err
	}
	return norm.W.MaxDomainSize(), nil
}
