package server

import (
	"encoding/json"
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

// executeDMLLocal runs one admitted DML statement against a
// locally-owned catalog. A non-zero fence (coordinated writes) is
// validated against the store's epoch first; uncoordinated writes skip
// the comparison, but a superseded store still refuses them inside
// Exec — once fenced, nothing writes.
func (s *Server) executeDMLLocal(entry *catalogEntry, dbName string, req execRequest, fence uint64) (*cluster.ExecResponse, *cluster.Error) {
	if entry.mut == nil {
		return nil, cluster.Errorf(http.StatusForbidden, "server: catalog %q is read-only (start the server with -rw / Config.Writable)", dbName)
	}
	if fence > 0 {
		if err := entry.mut.CheckFence(fence); err != nil {
			return nil, fenceErr(err)
		}
	}
	res, err := entry.mut.Exec(req.SQL)
	if err != nil {
		if herr := fenceErr(err); herr != nil {
			return nil, herr
		}
		if errors.Is(err, txn.ErrStatement) {
			return nil, cluster.Errorf(400, "%v", err)
		}
		return nil, cluster.Errorf(500, "%v", err)
	}
	return &cluster.ExecResponse{Kind: res.Kind, Tuples: res.Tuples, ReprRows: res.ReprRows,
		Tombs: res.Tombstones, Epoch: res.Epoch}, nil
}

// fenceErr maps a txn.FenceError to the 409 the coordinator's
// adopt-and-retry protocol expects: the body carries the refusing
// store's own epoch in "fence", so a stale coordinator can adopt it and
// re-route. Nil when err is not a fencing refusal.
func fenceErr(err error) *cluster.Error {
	var fe *txn.FenceError
	if !errors.As(err, &fe) {
		return nil
	}
	return &cluster.Error{Status: http.StatusConflict, Msg: fe.Error(), Fence: fe.Own}
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

// executeExplain serves EXPLAIN and EXPLAIN ANALYZE over /query: the
// response carries the rendered plan in "plan" (and, for ANALYZE with
// "trace": true, the raw span tree) instead of result rows. ANALYZE
// really executes the translated relational plan; the post-relational
// steps (certain-answer normalization, confidence computation) are not
// iterators and are not traced. A coordinator composes a
// distribution-aware plan: the routing decision, then each visited
// shard's own EXPLAIN [ANALYZE] output with its wall time.
func (s *Server) executeExplain(entry *catalogEntry, dbName string, req queryRequest) (*queryResponse, *cluster.Error) {
	st, err := sqlparse.ParseStatement(req.SQL)
	if err != nil {
		return nil, cluster.Errorf(400, "%v", err)
	}
	ex, ok := st.(*sqlparse.ExplainStmt)
	if !ok {
		return nil, cluster.Errorf(400, "server: statement is not EXPLAIN")
	}
	start := time.Now()
	resp := &queryResponse{DB: dbName, Mode: ex.Query.Mode.String(), Columns: []string{}, Rows: []json.RawMessage{}}
	switch db := entry.snapshot(); {
	case entry.coord != nil:
		targets, scatter, herr := entry.coord.Route(core.Relations(ex.Query.Query))
		if herr != nil {
			return nil, herr
		}
		if req.Trace {
			resp.Trace = obs.NewSpan("scatter-gather")
		}
		if resp.Plan, resp.RowCount, herr = entry.coord.ScatterExplain(targets, scatter, req, resp.Trace); herr != nil {
			return nil, herr
		}
	case ex.Analyze:
		res, err := db.ExplainAnalyze(ex.Query.Query, false, engine.ExecConfig{})
		if err != nil {
			return nil, s.execError(err)
		}
		resp.Plan = res.Text
		resp.RowCount = res.Rows
		if req.Trace {
			resp.Trace = res.Trace
		}
	default:
		plan, _, err := db.Translate(ex.Query.Query)
		if err != nil {
			return nil, cluster.Errorf(400, "%v", err)
		}
		if resp.Plan, err = engine.Explain(plan, engine.NewCatalog(), true); err != nil {
			return nil, s.execError(err)
		}
	}
	resp.ElapsedMS = durMS(time.Since(start))
	return resp, nil
}

// prepare translates a query on db and optimizes the plan. Every mode
// runs the one translation: on an existence-complete relation it reads
// only the partitions the query needs, and it merges all of them on any
// other (core.UDB.Translate).
func (s *Server) prepare(db *core.UDB, q core.Query) (*preparedPlan, *cluster.Error) {
	plan, lay, err := db.Translate(q)
	if err != nil {
		return nil, cluster.Errorf(400, "%v", err)
	}
	if plan, err = engine.Optimize(plan, engine.NewCatalog()); err != nil {
		return nil, s.execError(err)
	}
	return &preparedPlan{plan: plan, lay: lay}, nil
}

// source is where a statement's answers come from: a plan evaluated on
// a local catalog snapshot, or a fan-out over a coordinator's shards.
type source interface {
	// rows answers a possible statement, or a plain one ("the answer is
	// simply U", Section 3) with its representation rows.
	rows(plain bool) (*queryResponse, *cluster.Error)
	// result returns the statement's result representation.
	result() (*core.UResult, *cluster.Error)
	// bounds answers a CONF statement with one-pass certain/possible
	// confidence bounds.
	bounds() (*queryResponse, *cluster.Error)
}

// answer dispatches a statement on its uncertainty mode over src. The
// repr encoding, certain answers, and exact confidences with their
// accuracy=auto fallback to bounds run here, once, on the result
// representation either source returns — evaluated locally, or the
// union of the shards' representations.
func (s *Server) answer(src source, mode sqlparse.Mode, req queryRequest, deadline time.Time) (*queryResponse, *cluster.Error) {
	if req.Wire == "repr" {
		if mode == sqlparse.ModePossible || mode == sqlparse.ModePlain {
			return nil, cluster.Errorf(400,
				`server: "wire": "repr" applies to CERTAIN and CONF statements (possible and plain answers merge row-wise; no representation exchange is needed)`)
		}
		res, herr := src.result()
		if herr != nil {
			return nil, herr
		}
		rep := cluster.EncodeRepr(res)
		return &queryResponse{Repr: rep, RowCount: len(rep.Rows)}, nil
	}
	switch mode {
	case sqlparse.ModePossible, sqlparse.ModePlain:
		resp, herr := src.rows(mode == sqlparse.ModePlain)
		if herr == nil && resp.Truncated {
			s.truncated.Inc()
		}
		return resp, herr

	case sqlparse.ModeCertain:
		res, herr := src.result()
		if herr != nil {
			return nil, herr
		}
		return s.certainFromResult(res, deadline)

	case sqlparse.ModeConf, sqlparse.ModeConfBounds:
		// CONF BOUNDS (or accuracy=bounds) never enumerates.
		if mode == sqlparse.ModeConfBounds || req.Accuracy == "bounds" {
			return src.bounds()
		}
		res, herr := src.result()
		if herr != nil {
			// Exact confidence needs every shard's representation. With
			// "partial": true the caller prefers a degraded answer over
			// none: fall back to the bounds merge, which tolerates missing
			// shards by widening (lower from the reachable shards, upper
			// clamped to 1) and stays sound for the tuples it lists.
			if req.Partial && herr.Status == http.StatusServiceUnavailable {
				if resp, berr := src.bounds(); berr == nil {
					resp.Degraded = true
					return resp, nil
				}
			}
			return nil, herr
		}
		if err := checkDeadline(deadline); err != nil {
			return nil, s.execError(err)
		}
		// Exact per tuple within the evaluator's step budget, Monte-Carlo
		// for the tuples past it (paper, Section 7) — all under the query
		// deadline.
		resp, err := s.confExact(res, deadline)
		if err != nil {
			// accuracy=auto degrades to bounds instead of timing out.
			if req.Accuracy == "auto" && errors.Is(err, core.ErrConfDeadline) {
				if resp, herr = s.confBounds(res); herr == nil {
					resp.Degraded = true
				}
				return resp, herr
			}
			return nil, s.execError(err)
		}
		return resp, nil

	default:
		return nil, cluster.Errorf(400, "server: unsupported mode %v", mode)
	}
}

// localSource evaluates a statement's plan, prepared on db, under the
// server's row cap and the query deadline. cfg.Trace, when non-nil,
// collects the operator trace of the relational plan.
type localSource struct {
	s        *Server
	db       *core.UDB
	prep     *preparedPlan
	cfg      engine.ExecConfig
	deadline time.Time
	maxRows  int // the row cap (Server.maxRows)
}

// run builds the plan and drains it under the row cap and the deadline.
// The plan is only read, so a cached plan runs here as often, and as
// concurrently, as it is asked to.
func (l localSource) run() (*engine.Relation, bool, error) {
	it, err := engine.Build(l.prep.plan, engine.NewCatalog(), l.cfg)
	if err != nil {
		return nil, false, err
	}
	return engine.DrainLimited(it, l.maxRows, l.deadline)
}

func (l localSource) rows(plain bool) (*queryResponse, *cluster.Error) {
	rel, truncated, err := l.run()
	if err != nil {
		return nil, l.s.execError(err)
	}
	if !plain {
		return l.s.tupleAnswer(rel, truncated)
	}
	// The representation: descriptor, contributing tuple ids, values.
	res, err := core.Decode(l.db.W, rel, l.prep.lay)
	if err != nil {
		return nil, l.s.execError(err)
	}
	cols := append([]string{"_d"}, res.TIDCols...)
	cols = append(cols, res.Attrs...)
	w := cluster.RowWriter{Rows: make([]json.RawMessage, 0, res.Len())}
	var row engine.Tuple
	for _, r := range res.Rows {
		row = append(append(append(row[:0], engine.Str(r.D.StringNamed(res.W))), r.TIDs...), r.Vals...)
		if err := w.Add(nil, row); err != nil {
			return nil, l.s.execError(err)
		}
	}
	return &queryResponse{Columns: cols, Rows: w.Rows, Truncated: truncated}, nil
}

// result runs the plan of a poss-free query and decodes the result
// representation whose descriptors the certain-answer and confidence
// pipelines read. A row past the cap is an error here: answers
// derived from a truncated representation would be wrong.
func (l localSource) result() (*core.UResult, *cluster.Error) {
	rel, over, err := l.run()
	if err == nil && over {
		return nil, rowLimit(l.maxRows)
	}
	if err != nil {
		return nil, l.s.execError(err)
	}
	res, err := core.Decode(l.db.W, rel, l.prep.lay)
	if err != nil {
		return nil, l.s.execError(err)
	}
	return res, nil
}

func (l localSource) bounds() (*queryResponse, *cluster.Error) {
	res, herr := l.result()
	if herr != nil {
		return nil, herr
	}
	if err := checkDeadline(l.deadline); err != nil {
		return nil, l.s.execError(err)
	}
	return l.s.confBounds(res)
}

// shardSource fans a statement out over a coordinator's target shards
// and merges their answers with the per-mode semantics of the cluster
// package comment, under the coordinator's row cap. span, when non-nil,
// gets a child per shard.
type shardSource struct {
	s       *Server
	coord   *cluster.Coordinator
	targets []int
	req     queryRequest
	span    *obs.Span
}

func (r shardSource) rows(plain bool) (*queryResponse, *cluster.Error) {
	resp, herr := r.coord.ScatterRows(r.targets, r.req, !plain, r.span)
	if max := r.s.cfg.MaxRows; herr == nil && len(resp.Rows) > max {
		resp.Rows, resp.Truncated = resp.Rows[:max], true
	}
	return resp, herr
}

func (r shardSource) result() (*core.UResult, *cluster.Error) {
	res, herr := r.coord.GatherRepr(r.targets, r.req, r.span)
	if herr == nil && res.Len() > r.s.cfg.MaxRows {
		return nil, rowLimit(r.s.cfg.MaxRows)
	}
	return res, herr
}

// bounds merges the shards' bounds, and refuses them as a node does
// when the representations they were computed from exceed the cap.
func (r shardSource) bounds() (*queryResponse, *cluster.Error) {
	resp, herr := r.coord.ScatterBounds(r.targets, r.req, r.span)
	if herr == nil && resp.ReprRows > r.s.cfg.MaxRows {
		return nil, rowLimit(r.s.cfg.MaxRows)
	}
	return resp, herr
}

// certainFromResult computes the certain answers of a decoded result
// representation — evaluated locally, or gathered from shard nodes by
// the coordinator — recording per-path tuple counters for /stats. This
// symmetry is what makes the cluster's certain-mode merge correct: a
// tuple certain only via rows living on different shards is decided
// here, over the union.
func (s *Server) certainFromResult(res *core.UResult, deadline time.Time) (*queryResponse, *cluster.Error) {
	if err := checkDeadline(deadline); err != nil {
		return nil, s.execError(err)
	}
	rel, stats, err := res.CertainTuples(deadline)
	if err != nil {
		return nil, s.execError(err)
	}
	s.certainLabelled.Add(int64(stats.Labelled))
	s.certainPipeline.Add(int64(stats.Pipeline))
	return s.tupleAnswer(rel, false)
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
	w := cluster.RowWriter{Rows: make([]json.RawMessage, 0, len(confs))}
	for _, tc := range confs {
		if err := w.Add(nil, tc.Vals, tc.P); err != nil {
			return nil, err
		}
	}
	return &queryResponse{Columns: append(append([]string{}, res.Attrs...), "_p"), Rows: w.Rows,
		Estimator: stats.Estimator()}, nil
}

// confBounds renders one-pass certain/possible confidence bounds as
// `_p_lo` / `_p_hi` columns.
func (s *Server) confBounds(res *core.UResult) (*queryResponse, *cluster.Error) {
	bounds := res.ConfidenceBounds()
	s.confBoundsTuples.Add(int64(len(bounds)))
	w := cluster.RowWriter{Rows: make([]json.RawMessage, 0, len(bounds))}
	for _, tb := range bounds {
		if err := w.Add(nil, tb.Vals, tb.Certain, tb.Possible); err != nil {
			return nil, s.execError(err)
		}
	}
	return &queryResponse{Columns: append(append([]string{}, res.Attrs...), "_p_lo", "_p_hi"), Rows: w.Rows,
		Estimator: "bounds", ReprRows: res.Len()}, nil
}

// Sentinel failures of a query past the row cap, which rowLimit
// answers 413, or its deadline, which execError maps to 504.
var (
	errRowLimit = errors.New("server: result exceeds the row limit")
	errTimeout  = errors.New("server: query deadline exceeded")
)

// rowLimit is the 413 of a result representation past max rows.
func rowLimit(max int) *cluster.Error {
	return cluster.Errorf(413, "%v (limit %d rows)", errRowLimit, max)
}

// maxRows is the row cap of req: the server's, lowered by the request's
// max_rows.
func (s *Server) maxRows(req queryRequest) int {
	if req.MaxRows > 0 {
		return min(req.MaxRows, s.cfg.MaxRows)
	}
	return s.cfg.MaxRows
}

// checkDeadline returns errTimeout once the deadline has passed; used
// between the plan and the certain-answer or confidence computation
// over its result, each of which probes the deadline itself from there.
func checkDeadline(deadline time.Time) error {
	if !deadline.IsZero() && time.Now().After(deadline) {
		return errTimeout
	}
	return nil
}

// execError maps execution failures to HTTP statuses.
func (s *Server) execError(err error) *cluster.Error {
	switch {
	case errors.Is(err, errTimeout), errors.Is(err, engine.ErrDeadline), errors.Is(err, core.ErrCertainDeadline):
		return cluster.Errorf(504, "%v", errTimeout)
	case errors.Is(err, core.ErrConfDeadline):
		return cluster.Errorf(504, "%v (retry with \"accuracy\": \"bounds\" or \"auto\")", err)
	default:
		return cluster.Errorf(500, "%v", err)
	}
}

// tupleAnswer answers with rel's tuples.
func (s *Server) tupleAnswer(rel *engine.Relation, truncated bool) (*queryResponse, *cluster.Error) {
	w := cluster.RowWriter{Rows: make([]json.RawMessage, 0, rel.Len())}
	for _, t := range rel.Rows {
		if err := w.Add(nil, t); err != nil {
			return nil, s.execError(err)
		}
	}
	return &queryResponse{Columns: rel.Sch.Names(), Rows: w.Rows, Truncated: truncated}, nil
}
