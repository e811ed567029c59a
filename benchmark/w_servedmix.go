package main

import (
	"fmt"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/server"
	"urel/internal/sqlparse"
	"urel/internal/tpch"
)

// servedMix is read-only HTTP serving: a query server over the stored
// directory with its default segment and plan caches, and one
// closed-loop keep-alive client posting a fixed statement mix.
type servedMix struct {
	fx    *storedFixture
	stmts []mixStmt // the 16 repeated statements
}

var servedMixSpec = findWorkload("served_mix")

func (w *servedMix) spec() *workloadSpec { return servedMixSpec }

// Class indexes of served_mix, in the spec's order.
const (
	mixScan = iota
	mixPoint
	mixJoin
	mixConf
	mixConfBounds
	mixCertain
)

// mixStmt is one repeated statement and its expected answer.
type mixStmt struct {
	class int
	sql   string
	want  answer
}

// servedMixCycle is one client's cycle of 20 statements: an index into
// servedMix.stmts, or -1 for a point lookup with a fresh literal.
// 4 point lookups, 4 scans, 4 joins, 3 certain, 3 conf, 2 conf bounds.
var servedMixCycle = []int{
	-1, 0, 4, 8, 11, -1, 1, 5, 14, 9, -1, 2, 6, 12, 10, -1, 3, 7, 15, 13,
}

// mixStatements builds the repeated statements. Their literals are
// shares of the table sizes and do not move with the seed: a literal
// decides how much work a statement is, and the seed's job is to vary
// the inputs (the data, the point keys), not the amount of work.
func mixStatements(orders, customers int) []mixStmt {
	near := func(n int, share float64) int { return int(float64(n)*share) + 1 }
	q := func(class int, format string, args ...any) mixStmt {
		return mixStmt{class: class, sql: fmt.Sprintf(format, args...)}
	}
	return []mixStmt{
		// 0-3: selective scans.
		q(mixScan, "possible select l_extendedprice from lineitem where l_quantity < 3 and l_discount < 0.02"),
		q(mixScan, "possible select o_totalprice from orders where o_orderkey < %d", near(orders, 0.05)),
		q(mixScan, "possible select l_extendedprice from lineitem where l_shipdate between '1994-01-01' and '1994-01-21' and l_quantity < 10"),
		q(mixScan, "possible select c_name from customer where c_acctbal < 100"),
		// 4-7: two-way joins.
		q(mixJoin, "possible select c_name, o_totalprice from customer, orders where c_custkey = o_custkey and o_orderkey < %d", near(orders, 0.08)),
		q(mixJoin, "possible select o_orderkey, l_quantity from orders, lineitem where o_orderkey = l_orderkey and o_orderkey < %d", near(orders, 0.03)),
		q(mixJoin, "possible select n_name, c_name from nation, customer where n_nationkey = c_nationkey and c_custkey < %d", near(customers, 0.3)),
		q(mixJoin, "possible select s_name, l_quantity from supplier, lineitem where s_suppkey = l_suppkey and l_orderkey < %d", near(orders, 0.02)),
		// 8-10: certain answers, over one attribute each: with two, or
		// over lineitem, the pipeline's allocations differ two- to
		// threefold between seeds (they follow the few uncertain fields
		// in range) and would be the mix's seed noise by themselves.
		q(mixCertain, "certain select c_mktsegment from customer where c_custkey < %d", near(customers, 0.3)),
		q(mixCertain, "certain select o_orderstatus from orders where o_orderkey < %d", near(orders, 0.1)),
		q(mixCertain, "certain select o_shippriority from orders where o_orderkey < %d", near(orders, 0.2)),
		// 11-13: exact confidences (the read-once path).
		q(mixConf, "conf select o_orderstatus from orders where o_orderkey < %d", near(orders, 0.08)),
		q(mixConf, "conf select c_mktsegment from customer where c_custkey < %d", near(customers, 0.5)),
		q(mixConf, "conf select o_orderpriority from orders where o_orderkey < %d", near(orders, 0.05)),
		// 14-15: one-pass confidence bounds.
		q(mixConfBounds, "conf bounds select o_orderpriority from orders where o_orderkey < %d", near(orders, 0.12)),
		q(mixConfBounds, "conf bounds select c_mktsegment from customer"),
	}
}

// pointSQL is the served point lookup; its literal never repeats, so
// every one is a plan-cache miss.
func pointSQL(key int64) string {
	return fmt.Sprintf("possible select l_extendedprice, l_quantity from lineitem where l_orderkey = %d", key)
}

// expectedSQL evaluates one statement in memory, through the core
// functions and never the server or the store.
func expectedSQL(db *core.UDB, sql string) (answer, error) {
	p, err := sqlparse.Parse(sql)
	if err != nil {
		return answer{}, err
	}
	if p.Mode == sqlparse.ModePossible {
		rel, err := db.EvalPoss(p.Query, engine.ExecConfig{})
		if err != nil {
			return answer{}, err
		}
		return answerOfRelation(rel), nil
	}
	res, err := db.Eval(p.Query, engine.ExecConfig{})
	if err != nil {
		return answer{}, err
	}
	switch p.Mode {
	case sqlparse.ModeCertain:
		norm, err := res.Normalize()
		if err != nil {
			return answer{}, err
		}
		rel, err := norm.CertainTuplesRA()
		if err != nil {
			return answer{}, err
		}
		return answerOfRelation(rel), nil
	case sqlparse.ModeConf:
		cs, _, err := res.ConfidencesDispatch(core.ConfOptions{})
		if err != nil {
			return answer{}, err
		}
		return answerOfConfidences(cs), nil
	case sqlparse.ModeConfBounds:
		return answerOfBounds(res.ConfidenceBounds()), nil
	}
	return answer{}, fmt.Errorf("no expectation for mode %v", p.Mode)
}

type servedMixSession struct {
	*served
	w *servedMix
}

func (w *servedMix) setUp(e *env) (session, error) {
	var once func(*core.UDB, tpch.Stats) error
	if w.fx == nil {
		once = func(db *core.UDB, st tpch.Stats) (err error) {
			if w.fx, err = newStoredFixture(e, db, st); err != nil {
				return err
			}
			w.stmts = mixStatements(st.Rows["orders"], st.Rows["customer"])
			for i := range w.stmts {
				if w.stmts[i].want, err = expectedSQL(db, w.stmts[i].sql); err != nil {
					return fmt.Errorf("expected %q: %w", w.stmts[i].sql, err)
				}
			}
			return nil
		}
	}
	dir, rm, err := storedDir(e, "mix", once)
	if err != nil {
		return nil, err
	}
	// Defaults throughout: 256 MiB segment cache (the data fits many
	// times over), 512-entry plan cache, admission pool of 4.
	sv, err := startServed(e, server.Config{Catalogs: map[string]string{"tpch": dir}}, dir, rm, w.spec().clients)
	if err != nil {
		return nil, err
	}
	return &servedMixSession{served: sv, w: w}, nil
}

// mixOp resolves op seq of client c to its class, statement and
// expected answer. A second client would start half a cycle in, so
// that two never run in lockstep on the same statement.
func (w *servedMix) mixOp(c, seq int) (cls int, sql string, want answer) {
	n := len(servedMixCycle)
	idx := servedMixCycle[(seq+c*n/2)%n]
	if idx < 0 {
		key := w.fx.keys.key(seq*w.spec().clients + c)
		return mixPoint, pointSQL(key), w.fx.points[key]
	}
	st := w.stmts[idx]
	return st.class, st.sql, st.want
}

func (s *servedMixSession) do(c, seq int, tr *tracer) opResult {
	cls, sql, want := s.w.mixOp(c, seq)
	r, err := s.clients[c].tracedPost(tr, s.w.spec().classes[cls].name, s.node.url+"/query", map[string]any{"sql": sql})
	return checkReply(cls, r, err, want, sql)
}
