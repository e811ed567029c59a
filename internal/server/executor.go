package server

import (
	"errors"
	"net/http"
	"strings"
	"time"

	"urel/internal/cluster"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/sqlparse"
	"urel/internal/txn"
)

// executeDMLLocal runs one admitted DML statement end to end against a
// locally-owned catalog. A non-zero fence (coordinated writes) is
// validated against the store's epoch first; uncoordinated writes skip
// the comparison, but a superseded store still refuses them inside
// Exec — once fenced, nothing writes.
func (s *Server) executeDMLLocal(entry *catalogEntry, dbName string, req execRequest, fence uint64) (*execResponse, *httpError) {
	if entry.mut == nil {
		return nil, httpErrf(http.StatusForbidden, "server: catalog %q is read-only (start the server with -rw / Config.Writable)", dbName)
	}
	if fence > 0 {
		if err := entry.mut.CheckFence(fence); err != nil {
			return nil, fenceHTTPErr(err)
		}
	}
	start := time.Now()
	res, err := entry.mut.Exec(req.SQL)
	if err != nil {
		if herr := fenceHTTPErr(err); herr != nil {
			return nil, herr
		}
		if errors.Is(err, txn.ErrStatement) {
			return nil, httpErrf(400, "%v", err)
		}
		return nil, httpErrf(500, "%v", err)
	}
	return &execResponse{
		DB:        dbName,
		Kind:      res.Kind,
		Tuples:    res.Tuples,
		ReprRows:  res.ReprRows,
		Tombs:     res.Tombstones,
		Epoch:     res.Epoch,
		ElapsedMS: durMS(time.Since(start)),
	}, nil
}

// fenceHTTPErr maps a txn.FenceError to the 409 the coordinator's
// adopt-and-retry protocol expects: the body carries the refusing
// store's own epoch in "fence" (shardExecResponse.Fence), so a stale
// coordinator can adopt it and re-route. Nil when err is not a fencing
// refusal.
func fenceHTTPErr(err error) *httpError {
	var fe *txn.FenceError
	if !errors.As(err, &fe) {
		return nil
	}
	return &httpError{status: http.StatusConflict, msg: fe.Error(), fence: fe.Own}
}

// durMS renders a duration the way every response field does: float
// milliseconds with microsecond resolution.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// isExplain reports whether the statement's first keyword is EXPLAIN.
// EXPLAIN statements bypass the plan cache (the cache holds plain
// queries, and EXPLAIN ANALYZE must plan and execute afresh).
func isExplain(sql string) bool {
	sql = strings.TrimSpace(sql)
	end := 0
	for end < len(sql) && (sql[end] == '_' ||
		'a' <= sql[end]|0x20 && sql[end]|0x20 <= 'z') {
		end++
	}
	return strings.EqualFold(sql[:end], "explain")
}

// executeLocal runs one admitted query end to end against a
// locally-owned catalog — a plain single node, or one shard's slice of
// a sharded catalog. The executor cannot tell the difference, which is
// the point of hash-sharding a representation whose rows carry their
// own ws-descriptors. A statement the plan cache holds a plan of for
// the catalog's current snapshot runs that plan; any other is planned
// here, and its plan cached.
func (s *Server) executeLocal(entry *catalogEntry, dbName string, req queryRequest) (*queryResponse, *httpError) {
	if isExplain(req.SQL) {
		return s.executeExplain(req, entry, dbName)
	}
	db := entry.snapshot()
	key, parsed, prep, err := s.plans.lookup(req.SQL, dbName, db)
	if err != nil {
		return nil, httpErrf(400, "%v", err)
	}
	switch req.Accuracy {
	case "", "exact", "bounds", "auto":
	default:
		return nil, httpErrf(400, "server: unknown accuracy %q (use \"exact\", \"bounds\", or \"auto\")", req.Accuracy)
	}
	switch req.Wire {
	case "", "repr":
	default:
		return nil, httpErrf(400, "server: unknown wire encoding %q (use \"repr\" or omit)", req.Wire)
	}
	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	// Tracing costs a wrapper iterator per operator; pay it only when
	// the client asked or the slow-query log needs trace trees. A nil
	// root disables every trace branch down the stack.
	var root *obs.Span
	if req.Trace || s.slow.Enabled() {
		root = obs.NewSpan("query")
	}
	deadline := time.Now().Add(timeout)
	start := time.Now()
	cachedPlan := prep != nil
	var resp *queryResponse
	var herr *httpError
	if !cachedPlan {
		if prep, herr = s.prepare(db, parsed.Query); herr == nil {
			s.plans.keep(key, dbName, db, prep)
		}
	}
	switch {
	case herr != nil:
	case req.Wire == "repr":
		resp, herr = s.evalRepr(db, parsed, prep, deadline, root)
	default:
		resp, herr = s.evalMode(db, parsed, prep, req.Accuracy, deadline, root)
	}
	elapsed := time.Since(start)
	if herr != nil {
		if herr.status == http.StatusGatewayTimeout {
			s.timeouts.Inc()
		}
		s.slow.Record(obs.SlowEntry{
			SQL:        normalizeSQL(req.SQL),
			DB:         dbName,
			Mode:       parsed.Mode.String(),
			ElapsedMS:  durMS(elapsed),
			DeadlineMS: durMS(timeout),
			Accuracy:   req.Accuracy,
			Error:      herr.msg,
			Trace:      root,
		})
		return nil, herr
	}
	resp.DB = dbName
	resp.Mode = parsed.Mode.String()
	resp.PlanCached = cachedPlan
	if resp.Repr == nil {
		resp.RowCount = len(resp.Rows)
		if req.Limit > 0 && len(resp.Rows) > req.Limit {
			resp.Rows = resp.Rows[:req.Limit]
		}
	}
	resp.ElapsedMS = durMS(elapsed)
	if req.Trace {
		resp.Trace = root
	}
	s.modeLat[resp.Mode].ObserveDuration(elapsed)
	s.slow.Record(obs.SlowEntry{
		SQL:        normalizeSQL(req.SQL),
		DB:         dbName,
		Mode:       resp.Mode,
		ElapsedMS:  resp.ElapsedMS,
		RowCount:   resp.RowCount,
		Truncated:  resp.Truncated,
		DeadlineMS: durMS(timeout),
		Accuracy:   req.Accuracy,
		Estimator:  resp.Estimator,
		Degraded:   resp.Degraded,
		Trace:      root,
	})
	return resp, nil
}

// executeExplain serves EXPLAIN and EXPLAIN ANALYZE over /query: the
// response carries the rendered plan in "plan" (and, for ANALYZE with
// "trace": true, the raw span tree) instead of result rows. ANALYZE
// really executes the translated relational plan; the post-relational
// steps (certain-answer normalization, confidence computation) are not
// iterators and are not traced.
func (s *Server) executeExplain(req queryRequest, entry *catalogEntry, dbName string) (*queryResponse, *httpError) {
	st, err := sqlparse.ParseStatement(req.SQL)
	if err != nil {
		return nil, httpErrf(400, "%v", err)
	}
	ex, ok := st.(*sqlparse.ExplainStmt)
	if !ok {
		return nil, httpErrf(400, "server: statement is not EXPLAIN")
	}
	db := entry.snapshot()
	start := time.Now()
	resp := &queryResponse{DB: dbName, Mode: ex.Query.Mode.String(), Columns: []string{}, Rows: []any{}}
	if ex.Analyze {
		res, err := db.ExplainAnalyze(ex.Query.Query, false, engine.ExecConfig{})
		if err != nil {
			return nil, s.execError(err)
		}
		resp.Plan = res.Text
		resp.RowCount = res.Rows
		if req.Trace {
			resp.Trace = res.Trace
		}
	} else {
		plan, _, err := db.Translate(ex.Query.Query)
		if err != nil {
			return nil, httpErrf(400, "%v", err)
		}
		text, err := engine.Explain(plan, engine.NewCatalog(), true)
		if err != nil {
			return nil, s.execError(err)
		}
		resp.Plan = text
	}
	resp.ElapsedMS = durMS(time.Since(start))
	return resp, nil
}

// prepare translates a query on db and optimizes the plan. Every mode
// runs the one translation: on an existence-complete relation it reads
// only the partitions the query needs, and it merges all of them on any
// other (core.UDB.Translate).
func (s *Server) prepare(db *core.UDB, q core.Query) (*preparedPlan, *httpError) {
	plan, lay, err := db.Translate(q)
	if err != nil {
		return nil, httpErrf(400, "%v", err)
	}
	if plan, err = engine.Optimize(plan, engine.NewCatalog()); err != nil {
		return nil, s.execError(err)
	}
	return &preparedPlan{plan: plan, lay: lay}, nil
}

// evalRepr serves "wire": "repr": evaluate the statement's plan and
// return the result representation instead of rendered answers —
// the gather format the coordinator unions before running the
// certain-answer or confidence pipeline centrally.
func (s *Server) evalRepr(db *core.UDB, parsed *sqlparse.Parsed, prep *preparedPlan, deadline time.Time, trace *obs.Span) (*queryResponse, *httpError) {
	switch parsed.Mode {
	case sqlparse.ModeCertain, sqlparse.ModeConf, sqlparse.ModeConfBounds:
	default:
		return nil, httpErrf(400,
			`server: "wire": "repr" applies to CERTAIN and CONF statements (possible and plain answers merge row-wise; no representation exchange is needed)`)
	}
	cfg := engine.ExecConfig{Trace: trace}
	res, herr := s.evalResult(db, prep, cfg, deadline)
	if herr != nil {
		return nil, herr
	}
	rep := cluster.EncodeRepr(res)
	return &queryResponse{Repr: rep, RowCount: len(rep.Rows)}, nil
}

// evalMode runs a statement's plan, prepared on db, and dispatches on
// its uncertainty mode. accuracy ("", "exact", "bounds", "auto")
// applies to CONF queries only. trace, when non-nil, collects the
// operator trace of the relational plan.
func (s *Server) evalMode(db *core.UDB, parsed *sqlparse.Parsed, prep *preparedPlan, accuracy string, deadline time.Time, trace *obs.Span) (*queryResponse, *httpError) {
	cfg := engine.ExecConfig{Trace: trace}
	switch parsed.Mode {
	case sqlparse.ModePossible:
		rel, truncated, err := runLimited(prep.plan, engine.NewCatalog(), cfg, s.cfg.MaxRows, deadline, true)
		if err != nil {
			return nil, s.execError(err)
		}
		if truncated {
			s.truncated.Inc()
		}
		return &queryResponse{Columns: rel.Sch.Names(), Rows: jsonRows(rel), Truncated: truncated}, nil

	case sqlparse.ModePlain:
		// "The answer is simply U" (Section 3): evaluate the lazy
		// translation and return the representation — descriptor,
		// contributing tuple ids, values.
		rel, truncated, err := runLimited(prep.plan, engine.NewCatalog(), cfg, s.cfg.MaxRows, deadline, true)
		if err != nil {
			return nil, s.execError(err)
		}
		if truncated {
			s.truncated.Inc()
		}
		res, err := core.Decode(db.W, rel, prep.lay)
		if err != nil {
			return nil, s.execError(err)
		}
		cols := append([]string{"_d"}, res.TIDCols...)
		cols = append(cols, res.Attrs...)
		rows := make([]any, 0, res.Len())
		for _, r := range res.Rows {
			row := make([]any, 0, len(cols))
			row = append(row, r.D.StringNamed(res.W))
			for _, v := range r.TIDs {
				row = append(row, jsonValue(v))
			}
			for _, v := range r.Vals {
				row = append(row, jsonValue(v))
			}
			rows = append(rows, row)
		}
		return &queryResponse{Columns: cols, Rows: rows, Truncated: truncated}, nil

	case sqlparse.ModeCertain:
		res, herr := s.evalResult(db, prep, cfg, deadline)
		if herr != nil {
			return nil, herr
		}
		return s.certainFromResult(res, deadline)

	case sqlparse.ModeConf, sqlparse.ModeConfBounds:
		res, herr := s.evalResult(db, prep, cfg, deadline)
		if herr != nil {
			return nil, herr
		}
		if err := checkDeadline(deadline); err != nil {
			return nil, s.execError(err)
		}
		// CONF BOUNDS (or accuracy=bounds) never enumerates: one pass
		// over the representation yields certain/possible bounds.
		if parsed.Mode == sqlparse.ModeConfBounds || accuracy == "bounds" {
			return s.confBounds(res), nil
		}
		// Exact per tuple within the evaluator's step budget, Monte-Carlo
		// for the tuples past it (paper, Section 7) — all under the query
		// deadline.
		resp, err := s.confExact(res, deadline)
		if err != nil {
			// accuracy=auto degrades to bounds instead of timing out.
			if accuracy == "auto" && errors.Is(err, core.ErrConfDeadline) {
				resp = s.confBounds(res)
				resp.Degraded = true
				return resp, nil
			}
			return nil, s.execError(err)
		}
		return resp, nil

	default:
		return nil, httpErrf(400, "server: unsupported mode %v", parsed.Mode)
	}
}

// evalResult runs the plan of a poss-free query, prepared on db, under
// the row cap and deadline, and decodes the result representation whose
// descriptors the certain-answer and confidence pipelines read.
func (s *Server) evalResult(db *core.UDB, prep *preparedPlan, cfg engine.ExecConfig, deadline time.Time) (*core.UResult, *httpError) {
	rel, _, err := runLimited(prep.plan, engine.NewCatalog(), cfg, s.cfg.MaxRows, deadline, false)
	if err != nil {
		return nil, s.execError(err)
	}
	res, err := core.Decode(db.W, rel, prep.lay)
	if err != nil {
		return nil, s.execError(err)
	}
	return res, nil
}

// certainFromResult computes the certain answers of a decoded result
// representation — evaluated locally, or gathered from shard nodes by
// the coordinator — recording per-path tuple counters for /stats. This
// symmetry is what makes the cluster's certain-mode merge correct: a
// tuple certain only via rows living on different shards is decided
// here, over the union.
func (s *Server) certainFromResult(res *core.UResult, deadline time.Time) (*queryResponse, *httpError) {
	if err := checkDeadline(deadline); err != nil {
		return nil, s.execError(err)
	}
	rel, stats, err := res.CertainTuples(deadline)
	if err != nil {
		return nil, s.execError(err)
	}
	s.certainLabelled.Add(int64(stats.Labelled))
	s.certainPipeline.Add(int64(stats.Pipeline))
	return &queryResponse{Columns: rel.Sch.Names(), Rows: jsonRows(rel)}, nil
}

// confExact runs the confidence dispatcher and renders the `_p` column,
// recording per-path tuple counters for /stats.
func (s *Server) confExact(res *core.UResult, deadline time.Time) (*queryResponse, error) {
	confs, stats, err := res.ConfidencesDispatch(core.ConfOptions{
		MCSamples: s.cfg.MCSamples,
		MCSeed:    s.cfg.MCSeed,
		Deadline:  deadline,
	})
	if err != nil {
		return nil, err
	}
	s.confReadOnce.Add(int64(stats.ReadOnce))
	s.confEnum.Add(int64(stats.Enum))
	s.confMC.Add(int64(stats.MC))
	cols := append(append([]string{}, res.Attrs...), "_p")
	rows := make([]any, 0, len(confs))
	for _, tc := range confs {
		row := make([]any, 0, len(cols))
		for _, v := range tc.Vals {
			row = append(row, jsonValue(v))
		}
		row = append(row, tc.P)
		rows = append(rows, row)
	}
	return &queryResponse{Columns: cols, Rows: rows, Estimator: stats.Estimator()}, nil
}

// confBounds renders one-pass certain/possible confidence bounds as
// `_p_lo` / `_p_hi` columns.
func (s *Server) confBounds(res *core.UResult) *queryResponse {
	bounds := res.ConfidenceBounds()
	s.confBoundsTuples.Add(int64(len(bounds)))
	cols := append(append([]string{}, res.Attrs...), "_p_lo", "_p_hi")
	rows := make([]any, 0, len(bounds))
	for _, tb := range bounds {
		row := make([]any, 0, len(cols))
		for _, v := range tb.Vals {
			row = append(row, jsonValue(v))
		}
		row = append(row, tb.Certain, tb.Possible)
		rows = append(rows, row)
	}
	return &queryResponse{Columns: cols, Rows: rows, Estimator: "bounds"}
}

// execError maps execution failures to HTTP statuses.
func (s *Server) execError(err error) *httpError {
	switch {
	case errors.Is(err, errRowLimit):
		return httpErrf(413, "%v (limit %d rows)", err, s.cfg.MaxRows)
	case errors.Is(err, errTimeout):
		return httpErrf(504, "%v", err)
	case errors.Is(err, core.ErrCertainDeadline):
		return httpErrf(504, "%v", errTimeout)
	case errors.Is(err, core.ErrConfDeadline):
		return httpErrf(504, "%v (retry with \"accuracy\": \"bounds\" or \"auto\")", err)
	default:
		return httpErrf(500, "%v", err)
	}
}

// jsonValue converts an engine value to its JSON form. Dates are
// stored as day-number integers by the engine and are returned as
// such.
func jsonValue(v engine.Value) any {
	switch v.K {
	case engine.KindNull:
		return nil
	case engine.KindInt:
		return v.I
	case engine.KindFloat:
		return v.F
	case engine.KindString:
		return v.S
	case engine.KindBool:
		return v.I != 0
	default:
		return v.String()
	}
}

func jsonRows(rel *engine.Relation) []any {
	rows := make([]any, len(rel.Rows))
	for i, t := range rel.Rows {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = jsonValue(v)
		}
		rows[i] = row
	}
	return rows
}
