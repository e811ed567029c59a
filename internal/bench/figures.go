package bench

import (
	"fmt"
	"io"
	"time"

	"urel/internal/bench/uldb"
	"urel/internal/bench/wsd"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/tpch"
)

// Fig9Cell is one (scale, z, x) measurement of Figure 9: world count,
// maximum local worlds, database size.
type Fig9Cell struct {
	Scale, Z, X    float64
	Log10Worlds    float64
	MaxLocalWorlds int
	SizeMB         float64
}

// Figure9 reproduces the paper's Figure 9 table: for every (scale, z)
// pair the base (x=0) database size plus, per uncertainty ratio x, the
// total number of worlds (as 10^k), the maximum number of local worlds
// of a variable, and the representation size.
func Figure9(g Grid, w io.Writer) ([]Fig9Cell, error) {
	cache := dbCache{}
	var out []Fig9Cell
	fprintf(w, "Figure 9: world counts and database sizes\n")
	fprintf(w, "%-6s %-5s | %-8s | %s\n", "scale", "z", "x=0 MB",
		"per x: log10(#worlds)  lworlds  MB")
	for _, s := range g.Scales {
		for _, z := range g.Zs {
			_, base, err := cache.get(g.params(s, 0, z))
			if err != nil {
				return nil, err
			}
			fprintf(w, "%-6g %-5g | %8.2f |", s, z, mb(base.SizeBytes))
			for _, x := range g.Xs {
				_, st, err := cache.get(g.params(s, x, z))
				if err != nil {
					return nil, err
				}
				cell := Fig9Cell{
					Scale: s, Z: z, X: x,
					Log10Worlds:    st.Log10Worlds,
					MaxLocalWorlds: st.MaxLocalWorlds,
					SizeMB:         mb(st.SizeBytes),
				}
				out = append(out, cell)
				fprintf(w, "  [x=%g] 10^%.1f  %d  %.2f", x,
					cell.Log10Worlds, cell.MaxLocalWorlds, cell.SizeMB)
			}
			fprintf(w, "\n")
		}
	}
	return out, nil
}

// Fig11Cell is one answer-size measurement of Figure 11.
type Fig11Cell struct {
	Query    string
	Z, X     float64
	ReprRows int
	Distinct int
}

// Figure11 reproduces the answer-size plots: for each query, answer
// sizes as a function of the uncertainty ratio, one series per
// correlation ratio, at the given scale.
func Figure11(scale float64, g Grid, w io.Writer) ([]Fig11Cell, error) {
	cache := dbCache{}
	var out []Fig11Cell
	fprintf(w, "Figure 11: query answer sizes at scale %g\n", scale)
	fprintf(w, "%-5s %-5s %-7s %12s %12s\n", "query", "z", "x", "repr rows", "distinct")
	for _, name := range []string{"Q1", "Q2", "Q3"} {
		q := tpch.Queries()[name]
		for _, z := range g.Zs {
			for _, x := range g.Xs {
				db, _, err := cache.get(g.params(scale, x, z))
				if err != nil {
					return nil, err
				}
				m, err := RunQuery(db, name, q, engine.ExecConfig{})
				if err != nil {
					return nil, err
				}
				cell := Fig11Cell{Query: name, Z: z, X: x,
					ReprRows: m.ReprRows, Distinct: m.Distinct}
				out = append(out, cell)
				fprintf(w, "%-5s %-5g %-7g %12d %12d\n", name, z, x, m.ReprRows, m.Distinct)
			}
		}
	}
	return out, nil
}

// Fig12Cell is one timing measurement of Figure 12.
type Fig12Cell struct {
	Query       string
	Scale, Z, X float64
	Median      time.Duration
}

// Figure12 reproduces the nine log-log timing panels: median evaluation
// time of each query as a function of scale, one panel per (query, z),
// one series per x.
func Figure12(g Grid, w io.Writer) ([]Fig12Cell, error) {
	cache := dbCache{}
	var out []Fig12Cell
	fprintf(w, "Figure 12: query evaluation times (median of %d runs)\n", g.Reps)
	fprintf(w, "%-5s %-5s %-7s %-6s %12s\n", "query", "z", "x", "scale", "median")
	for _, name := range []string{"Q1", "Q2", "Q3"} {
		q := tpch.Queries()[name]
		for _, z := range g.Zs {
			for _, x := range g.Xs {
				for _, s := range g.Scales {
					db, _, err := cache.get(g.params(s, x, z))
					if err != nil {
						return nil, err
					}
					var times []time.Duration
					for r := 0; r < g.Reps; r++ {
						m, err := RunQuery(db, name, q, engine.ExecConfig{})
						if err != nil {
							return nil, err
						}
						times = append(times, m.Elapsed)
					}
					cell := Fig12Cell{Query: name, Scale: s, Z: z, X: x, Median: median(times)}
					out = append(out, cell)
					fprintf(w, "%-5s %-5g %-7g %-6g %12s\n", name, z, x, s, cell.Median)
				}
			}
		}
	}
	return out, nil
}

// Figure13 renders the engine's optimized physical plan for the
// translated Q2 — the analogue of the PostgreSQL EXPLAIN output in the
// paper's Figure 13.
func Figure13(scale, x, z float64, w io.Writer) (string, error) {
	db, _, err := tpch.Generate(tpch.DefaultParams(scale, x, z))
	if err != nil {
		return "", err
	}
	s, err := db.ExplainQuery(tpch.Q2(), true)
	if err != nil {
		return "", err
	}
	fprintf(w, "Figure 13: optimized plan for translated Q2 (s=%g x=%g z=%g)\n%s", scale, x, z, s)
	return s, nil
}

// Figure10 renders the optimized plan for Q1, whose shape shows the
// merge placement (the paper's Figure 10 merge-aware plan).
func Figure10(scale, x, z float64, w io.Writer) (string, error) {
	db, _, err := tpch.Generate(tpch.DefaultParams(scale, x, z))
	if err != nil {
		return "", err
	}
	s, err := db.ExplainQuery(tpch.Q1(), true)
	if err != nil {
		return "", err
	}
	fprintf(w, "Figure 10: optimized plan for translated Q1 (s=%g x=%g z=%g)\n%s", scale, x, z, s)
	return s, nil
}

// Fig14Cell compares one configuration across the three
// representations (attribute-level U-relations, tuple-level
// U-relations, ULDB).
type Fig14Cell struct {
	Scale, X  float64
	AttrTime  time.Duration
	TupleTime time.Duration
	ULDBTime  time.Duration
	AttrRows  int // representation sizes of the lineitem relation
	TupleRows int
	ULDBAlts  int
}

// Figure14 reproduces the attribute- vs tuple-level vs ULDB comparison
// on Q3 without the poss operator and without erroneous-tuple removal,
// exactly the regime of the paper's Figure 14.
func Figure14(scales []float64, xs []float64, z float64, w io.Writer) ([]Fig14Cell, error) {
	var out []Fig14Cell
	fprintf(w, "Figure 14: Q3 (no poss) on attribute-level vs tuple-level vs ULDB (z=%g)\n", z)
	fprintf(w, "%-6s %-7s %12s %12s %12s %10s %10s %10s\n",
		"scale", "x", "attr", "tuple", "uldb", "attrRows", "tupleRows", "uldbAlts")
	for _, x := range xs {
		for _, s := range scales {
			cell, err := figure14Cell(s, x, z)
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
			fprintf(w, "%-6g %-7g %12s %12s %12s %10d %10d %10d\n",
				s, x, cell.AttrTime, cell.TupleTime, cell.ULDBTime,
				cell.AttrRows, cell.TupleRows, cell.ULDBAlts)
		}
	}
	return out, nil
}

func figure14Cell(s, x, z float64) (Fig14Cell, error) {
	db, _, err := tpch.Generate(tpch.DefaultParams(s, x, z))
	if err != nil {
		return Fig14Cell{}, err
	}
	cell := Fig14Cell{Scale: s, X: x}
	q := tpch.Q3NoPoss()

	// Attribute-level evaluation.
	start := time.Now()
	plan, _, err := db.Translate(q)
	if err != nil {
		return Fig14Cell{}, err
	}
	rel, err := engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{})
	if err != nil {
		return Fig14Cell{}, err
	}
	cell.AttrTime = time.Since(start)
	_ = rel
	for _, p := range db.Rels["lineitem"].Parts {
		cell.AttrRows += len(p.Rows)
	}

	// Tuple-level evaluation.
	tl, err := tpch.TupleLevelDB(db)
	if err != nil {
		return Fig14Cell{}, err
	}
	cell.TupleRows = len(tl.Rels["lineitem"].Parts[0].Rows)
	start = time.Now()
	plan, _, err = tl.Translate(q)
	if err != nil {
		return Fig14Cell{}, err
	}
	if _, err = engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{}); err != nil {
		return Fig14Cell{}, err
	}
	cell.TupleTime = time.Since(start)

	// ULDB evaluation (lineage propagation, no minimization).
	udb, err := ULDBFromTupleLevel(tl)
	if err != nil {
		return Fig14Cell{}, err
	}
	cell.ULDBAlts = udb.Rels["lineitem"].NumAlternatives()
	start = time.Now()
	if err := runQ3ULDB(udb); err != nil {
		return Fig14Cell{}, err
	}
	cell.ULDBTime = time.Since(start)
	return cell, nil
}

// ULDBFromTupleLevel maps a tuple-level database into a ULDB (the
// paper's "rather direct mapping"): one x-tuple per tuple id with one
// alternative per tuple-level row, plus auxiliary x-tuples standing for
// the world-set variables, referenced through lineage.
func ULDBFromTupleLevel(db *core.UDB) (*uldb.DB, error) {
	out := uldb.NewDB()
	ids := uldb.NewIDGen(1 << 40)
	for _, rel := range db.RelNames() {
		rs := db.Rels[rel]
		if len(rs.Parts) != 1 {
			return nil, fmt.Errorf("bench: relation %q is not tuple-level", rel)
		}
		res, err := db.Eval(core.Rel(rel), engine.ExecConfig{})
		if err != nil {
			return nil, err
		}
		main, aux, err := uldb.FromTupleLevelResult(res, rel, ids)
		if err != nil {
			return nil, err
		}
		// Register under the database (AddRelation keeps declaration
		// order); attribute names drop the alias qualification.
		mr := out.AddRelation(rel, rs.Attrs...)
		mr.XTs = main.XTs
		ar := out.AddRelation(rel+"_vars", "var", "rng")
		ar.XTs = aux.XTs
	}
	return out, nil
}

// runQ3ULDB evaluates Q3's join tree with lineage propagation over the
// ULDB encoding.
func runQ3ULDB(db *uldb.DB) error {
	ids := uldb.NewIDGen(1 << 50)
	eq := func(a, b string) engine.Expr { return engine.EqCols(a, b) }
	sl, err := uldb.Join(db.Rels["supplier"], db.Rels["lineitem"], eq("s_suppkey", "l_suppkey"), ids)
	if err != nil {
		return err
	}
	sl, err = uldb.Project(sl, []string{"s_nationkey", "l_orderkey"}, ids)
	if err != nil {
		return err
	}
	slo, err := uldb.Join(sl, db.Rels["orders"], eq("l_orderkey", "o_orderkey"), ids)
	if err != nil {
		return err
	}
	slo, err = uldb.Project(slo, []string{"s_nationkey", "o_custkey"}, ids)
	if err != nil {
		return err
	}
	sloc, err := uldb.Join(slo, db.Rels["customer"], eq("o_custkey", "c_custkey"), ids)
	if err != nil {
		return err
	}
	sloc, err = uldb.Project(sloc, []string{"s_nationkey", "c_nationkey"}, ids)
	if err != nil {
		return err
	}
	n1, err := uldb.Select(db.Rels["nation"],
		engine.Cmp(engine.EQ, engine.Col("n_name"), engine.ConstStr("GERMANY")), ids)
	if err != nil {
		return err
	}
	n2, err := uldb.Select(db.Rels["nation"],
		engine.Cmp(engine.EQ, engine.Col("n_name"), engine.ConstStr("IRAQ")), ids)
	if err != nil {
		return err
	}
	n2 = renameULDB(n2, map[string]string{
		"n_nationkey": "n2_nationkey", "n_name": "n2_name", "n_regionkey": "n2_regionkey"})
	j1, err := uldb.Join(sloc, n1, eq("s_nationkey", "n_nationkey"), ids)
	if err != nil {
		return err
	}
	j1, err = uldb.Project(j1, []string{"c_nationkey", "n_name"}, ids)
	if err != nil {
		return err
	}
	j2, err := uldb.Join(j1, n2, eq("c_nationkey", "n2_nationkey"), ids)
	if err != nil {
		return err
	}
	_, err = uldb.Project(j2, []string{"n_name", "n2_name"}, ids)
	return err
}

func renameULDB(r *uldb.Relation, m map[string]string) *uldb.Relation {
	attrs := make([]string, len(r.Attrs))
	for i, a := range r.Attrs {
		if n, ok := m[a]; ok {
			attrs[i] = n
		} else {
			attrs[i] = a
		}
	}
	r.Attrs = attrs
	return r
}

// SuccinctnessRow is one n of the Figures 6/7 chain experiment plus the
// or-set (Theorem 5.6) measurement.
type SuccinctnessRow struct {
	N             int
	URelRows      int // σ_{A=B}(R) result size as U-relation (2n)
	WSDLocal      int // local worlds of the normalized/WSD answer (2^n)
	OrSetURelRows int // or-set: U-relation rows (n·arity·k)
	OrSetULDBAlts int // or-set: ULDB alternatives (n·k^arity)
}

// Succinctness reproduces the separations of Section 5: the chain
// world-set's σ_{A=B} answer is linear as a U-relation and exponential
// as a WSD (Theorem 5.2 / Figure 7); or-set relations are linear as
// U-relations and exponential (in arity) as ULDBs (Theorem 5.6).
func Succinctness(ns []int, w io.Writer) ([]SuccinctnessRow, error) {
	fprintf(w, "Figures 6/7 + Theorems 5.2/5.6: succinctness separations\n")
	fprintf(w, "%-4s %10s %12s %14s %14s\n", "n", "urel rows", "wsd local",
		"orset urel", "orset uldb")
	var out []SuccinctnessRow
	for _, n := range ns {
		res, err := wsd.ChainSelectResult(n)
		if err != nil {
			return nil, err
		}
		lw, err := wsd.NormalizedLocalWorlds(res)
		if err != nil {
			return nil, err
		}
		const arity, k = 4, 3
		orUDB := uldb.OrSetUDB(n, arity, k)
		orULDB := uldb.OrSetULDB(n, arity, k)
		orRows := 0
		for _, name := range orUDB.RelNames() {
			for _, p := range orUDB.Rels[name].Parts {
				orRows += len(p.Rows)
			}
		}
		row := SuccinctnessRow{
			N:             n,
			URelRows:      res.Len(),
			WSDLocal:      lw,
			OrSetURelRows: orRows,
			OrSetULDBAlts: orULDB.Rels["r"].NumAlternatives(),
		}
		out = append(out, row)
		fprintf(w, "%-4d %10d %12d %14d %14d\n", n, row.URelRows, row.WSDLocal,
			row.OrSetURelRows, row.OrSetULDBAlts)
	}
	return out, nil
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
