// Command urquery runs the paper's benchmark queries (Figure 8) — or
// any SQL query over the uncertain TPC-H schema — on a freshly
// generated database, optionally printing the translated, optimized
// physical plan (the paper's Figure 13 view).
//
// Usage:
//
//	urquery -q Q2 -scale 0.1 -x 0.01 -z 0.25 [-explain] [-limit 20]
//	urquery -db /data/db -q Q2
//	urquery -sql "possible select l_extendedprice from lineitem where l_quantity < 24"
//	urquery -sql "certain select c_mktsegment from customer where c_custkey < 5"
//	urquery -sql "conf select o_shippriority from orders where o_orderkey < 8"
//	urquery -sql "conf bounds select o_shippriority from orders where o_orderkey < 8"
//	urquery -db /data/db -sql "insert into nation values (25, 'ATLANTIS', 1)"
//	urquery -db /data/db -sql "delete from lineitem where l_quantity <= 5"
//
// With -db the query runs against a database stored by urgen -save
// (or urel.Save): partitions stay on disk and are scanned segment by
// segment, so nothing is regenerated. DML statements (INSERT, DELETE,
// UPDATE) require -db: the directory opens through the transactional
// write path, the commit is WAL-durable before the command exits, and
// subsequent opens (urquery, urserved) see it.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"urel/internal/bench"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/tpch"
	"urel/internal/txn"
)

func main() {
	qname := flag.String("q", "Q2", "query: Q1, Q2, or Q3")
	sql := flag.String("sql", "", "SQL query ([possible|certain] select ... from ... where ...)")
	scale := flag.Float64("scale", 0.1, "scale units")
	x := flag.Float64("x", 0.01, "uncertainty ratio")
	z := flag.Float64("z", 0.25, "correlation ratio")
	seed := flag.Int64("seed", 42, "generator seed")
	dbdir := flag.String("db", "", "query a stored database directory (urgen -save) instead of generating")
	explain := flag.Bool("explain", false, "print the optimized physical plan instead of running")
	analyze := flag.Bool("analyze", false, "execute with operator tracing and print the plan annotated with actual rows, timings, and store statistics (EXPLAIN ANALYZE)")
	noopt := flag.Bool("no-optimizer", false, "disable the engine optimizer")
	limit := flag.Int("limit", 20, "print at most this many answer tuples")
	flag.Parse()

	var q core.Query
	var mode sqlparse.Mode
	if *sql != "" {
		st, err := sqlparse.ParseStatement(*sql)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		if _, isQuery := st.(*sqlparse.Parsed); !isQuery {
			runDML(*dbdir, st)
			return
		}
		parsed := st.(*sqlparse.Parsed)
		q = parsed.Query
		mode = parsed.Mode
		*qname = "SQL"
	} else {
		var ok bool
		q, ok = tpch.Queries()[*qname]
		if !ok {
			fmt.Fprintf(os.Stderr, "urquery: unknown query %q (use Q1, Q2, Q3 or -sql)\n", *qname)
			os.Exit(1)
		}
		mode = sqlparse.ModePossible
	}
	var db *core.UDB
	if *dbdir != "" {
		start := time.Now()
		var err error
		db, err = store.Open(*dbdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		defer db.Close()
		fmt.Printf("opened %s in %s (%d relations, 10^%.1f worlds, %.2f MB on disk)\n",
			*dbdir, time.Since(start).Round(time.Millisecond), len(db.RelNames()),
			db.W.Log10Worlds(), float64(db.SizeBytes())/(1<<20))
	} else {
		params := tpch.DefaultParams(*scale, *x, *z)
		params.Seed = *seed
		start := time.Now()
		var st tpch.Stats
		var err error
		db, st, err = tpch.Generate(params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		fmt.Printf("generated %s in %s (10^%.1f worlds, %.2f MB)\n",
			params, time.Since(start).Round(time.Millisecond), st.Log10Worlds,
			float64(st.SizeBytes)/(1<<20))
	}

	if *explain {
		plan, err := db.ExplainQuery(q, !*noopt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s translated & optimized plan:\n%s", *qname, plan)
		return
	}

	cfg := engine.ExecConfig{DisableOptimizer: *noopt}
	if *analyze {
		// Mirror the server: possible mode analyzes the poss projection
		// plan, certain/conf the representation whose lineage their
		// post-processing consumes — both from the one translation.
		aq := q
		if mode == sqlparse.ModePossible || mode == sqlparse.ModePlain {
			if _, ok := q.(*core.PossQ); !ok {
				aq = core.Poss(q)
			}
		}
		res, err := db.ExplainAnalyze(aq, false, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s EXPLAIN ANALYZE:\n%s", *qname, res.Text)
		return
	}
	if mode == sqlparse.ModeConfBounds {
		start := time.Now()
		res, err := db.Eval(q, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		bounds := res.ConfidenceBounds()
		fmt.Printf("confidence bounds computed in %s (%d distinct tuples):\n",
			time.Since(start).Round(time.Millisecond), len(bounds))
		if len(bounds) > *limit {
			bounds = bounds[:*limit]
		}
		for _, tb := range bounds {
			fmt.Printf("  P in [%.6f, %.6f]  %v\n", tb.Certain, tb.Possible, tb.Vals)
		}
		return
	}
	if mode == sqlparse.ModeConf {
		start := time.Now()
		res, err := db.Eval(q, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		confs, stats, err := res.ConfidencesDispatch(core.ConfOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		fmt.Printf("confidences computed in %s (%s; %d exact in linear steps, %d exact in more, %d sampled):\n",
			time.Since(start).Round(time.Millisecond), stats.Estimator(), stats.ReadOnce, stats.Enum, stats.MC)
		if len(confs) > *limit {
			confs = confs[:*limit]
		}
		for _, tc := range confs {
			fmt.Printf("  P = %.6f  %v\n", tc.P, tc.Vals)
		}
		return
	}
	if mode == sqlparse.ModeCertain {
		start := time.Now()
		rel, err := db.CertainAnswersCfg(core.StripPoss(q), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urquery:", err)
			os.Exit(1)
		}
		fmt.Printf("certain answers computed in %s (%d tuples):\n",
			time.Since(start).Round(time.Millisecond), rel.Len())
		if rel.Len() > *limit {
			rel.Rows = rel.Rows[:*limit]
		}
		fmt.Print(rel)
		return
	}
	m, err := bench.RunQuery(db, *qname, q, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "urquery:", err)
		os.Exit(1)
	}
	fmt.Printf("%s evaluated in %s: %d representation tuples, %d distinct possible tuples\n",
		*qname, m.Elapsed.Round(time.Millisecond), m.ReprRows, m.Distinct)

	rel, err := db.EvalPoss(q, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "urquery:", err)
		os.Exit(1)
	}
	n := rel.Len()
	if n > *limit {
		rel.Rows = rel.Rows[:*limit]
	}
	fmt.Printf("\npossible answers (%d total, showing %d):\n%s", n, rel.Len(), rel)
}

// runDML executes one INSERT/DELETE/UPDATE against a stored database
// directory through the transactional write path and reports what the
// commit did.
func runDML(dbdir string, st sqlparse.Statement) {
	if dbdir == "" {
		fmt.Fprintln(os.Stderr, "urquery: DML needs a stored database: pass -db <dir> (urgen -save)")
		os.Exit(2)
	}
	d, err := txn.Open(dbdir, txn.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "urquery:", err)
		os.Exit(1)
	}
	start := time.Now()
	res, err := d.ExecStmt(st)
	if err != nil {
		d.Close()
		fmt.Fprintln(os.Stderr, "urquery:", err)
		os.Exit(1)
	}
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "urquery:", err)
		os.Exit(1)
	}
	fmt.Printf("%s committed in %s: %d tuples, %d representation rows written, %d tombstones (epoch %d)\n",
		res.Kind, time.Since(start).Round(time.Millisecond), res.Tuples, res.ReprRows, res.Tombstones, res.Epoch)
}
