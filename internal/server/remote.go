package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"urel/internal/cluster"
	"urel/internal/core"
	"urel/internal/obs"
	"urel/internal/sqlparse"
)

// executeRemote runs one admitted query against a coordinator catalog:
// route on the relations the statement reads, fan out over the shard
// nodes, merge with the per-mode semantics (cluster package comment).
// Certain and exact-conf answers gather shard representations and feed
// them to the same certainFromResult/confExact the local executor uses
// — remote partitions are just partitions.
func (s *Server) executeRemote(coord *cluster.Coordinator, dbName string, req queryRequest) (*queryResponse, *httpError) {
	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	// Forward the effective deadline so shard-side execution is bounded
	// by the same clock central post-processing is.
	req.TimeoutMS = int(timeout / time.Millisecond)
	deadline := time.Now().Add(timeout)

	if isExplain(req.SQL) {
		return s.executeExplainRemote(coord, dbName, req)
	}
	parsed, err := s.plans.parse(req.SQL)
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
	targets, _, rerr := coord.Route(core.Relations(parsed.Query))
	if rerr != nil {
		return nil, remoteErr(rerr)
	}

	// Single-target fast path: one shard holds every representation row
	// the query can touch (all targets when the cluster has one shard;
	// the round-robin pick when only replicated relations are read), so
	// its response IS the answer — relay it verbatim, skipping the
	// decode/merge/re-encode cycle. Tracing and the slow log need a
	// merged response object, so they take the general path.
	if len(targets) == 1 && !req.Trace && req.Wire == "" && !s.slow.Enabled() {
		relayStart := time.Now()
		status, body, rerr := coord.Relay(targets[0], req)
		if rerr != nil {
			return nil, remoteErr(rerr)
		}
		if status == http.StatusOK {
			s.modeLat[parsed.Mode.String()].ObserveDuration(time.Since(relayStart))
		} else if status == http.StatusGatewayTimeout {
			s.timeouts.Inc()
		}
		return &queryResponse{raw: body, rawStatus: status}, nil
	}

	var root *obs.Span
	if req.Trace || s.slow.Enabled() {
		root = obs.NewSpan("scatter-gather")
	}
	start := time.Now()
	resp, herr := s.remoteMode(coord, targets, parsed, req, deadline, root)
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

// remoteMode dispatches a scattered query on its uncertainty mode,
// mirroring evalMode with shard fan-out in place of plan evaluation.
func (s *Server) remoteMode(coord *cluster.Coordinator, targets []int, parsed *sqlparse.Parsed,
	req queryRequest, deadline time.Time, root *obs.Span) (*queryResponse, *httpError) {
	if req.Wire == "repr" {
		switch parsed.Mode {
		case sqlparse.ModeCertain, sqlparse.ModeConf, sqlparse.ModeConfBounds:
		default:
			return nil, httpErrf(400,
				`server: "wire": "repr" applies to CERTAIN and CONF statements (possible and plain answers merge row-wise; no representation exchange is needed)`)
		}
		res, rerr := coord.GatherRepr(targets, req, root)
		if rerr != nil {
			return nil, remoteErr(rerr)
		}
		rep := cluster.EncodeRepr(res)
		return &queryResponse{Repr: rep, RowCount: len(rep.Rows)}, nil
	}

	switch parsed.Mode {
	case sqlparse.ModePossible, sqlparse.ModePlain:
		// possible: deduplicated union (each shard already returns a
		// set; cross-shard duplicates collapse on raw row bytes).
		// plain: the representation is itself partitioned by provenance
		// — concatenation is the answer.
		dedup := parsed.Mode == sqlparse.ModePossible
		m, rerr := coord.ScatterRows(targets, req, dedup, root)
		if rerr != nil {
			return nil, remoteErr(rerr)
		}
		if m.Truncated {
			s.truncated.Inc()
		}
		return &queryResponse{Columns: m.Columns, Rows: rawRows(m.Rows), Truncated: m.Truncated,
			Partial: m.Partial, MissingShards: m.MissingShards}, nil

	case sqlparse.ModeCertain:
		res, rerr := coord.GatherRepr(targets, req, root)
		if rerr != nil {
			return nil, remoteErr(rerr)
		}
		return s.certainFromResult(res, deadline)

	case sqlparse.ModeConf, sqlparse.ModeConfBounds:
		// Bounds merge without lineage exchange (max / clamped sum —
		// see cluster.ScatterBounds for the exactness argument); exact
		// confidences need the full representation union.
		if parsed.Mode == sqlparse.ModeConfBounds || req.Accuracy == "bounds" {
			m, rerr := coord.ScatterBounds(targets, req, root)
			if rerr != nil {
				return nil, remoteErr(rerr)
			}
			return &queryResponse{Columns: m.Columns, Rows: rawRows(m.Rows),
				Estimator: m.Estimator, Degraded: m.Degraded,
				Partial: m.Partial, MissingShards: m.MissingShards}, nil
		}
		res, rerr := coord.GatherRepr(targets, req, root)
		if rerr != nil {
			// Exact confidence needs every shard's representation. With
			// "partial": true the caller prefers a degraded answer over
			// none: fall back to the bounds merge, which tolerates missing
			// shards by widening (lower from the reachable shards, upper
			// clamped to 1) and stays sound for the tuples it lists.
			if req.Partial && rerr.Status == http.StatusServiceUnavailable {
				m, berr := coord.ScatterBounds(targets, req, root)
				if berr != nil {
					return nil, remoteErr(rerr)
				}
				return &queryResponse{Columns: m.Columns, Rows: rawRows(m.Rows),
					Estimator: m.Estimator, Degraded: true,
					Partial: m.Partial, MissingShards: m.MissingShards}, nil
			}
			return nil, remoteErr(rerr)
		}
		if err := checkDeadline(deadline); err != nil {
			return nil, s.execError(err)
		}
		resp, err := s.confExact(res, deadline)
		if err != nil {
			if req.Accuracy == "auto" && errors.Is(err, core.ErrConfDeadline) {
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

// executeExplainRemote composes a distribution-aware plan: the routing
// decision, then each visited shard's own EXPLAIN [ANALYZE] output with
// its wall time.
func (s *Server) executeExplainRemote(coord *cluster.Coordinator, dbName string, req queryRequest) (*queryResponse, *httpError) {
	st, err := sqlparse.ParseStatement(req.SQL)
	if err != nil {
		return nil, httpErrf(400, "%v", err)
	}
	ex, ok := st.(*sqlparse.ExplainStmt)
	if !ok {
		return nil, httpErrf(400, "server: statement is not EXPLAIN")
	}
	targets, scatter, rerr := coord.Route(core.Relations(ex.Query.Query))
	if rerr != nil {
		return nil, remoteErr(rerr)
	}
	var root *obs.Span
	if req.Trace || s.slow.Enabled() {
		root = obs.NewSpan("scatter-gather")
	}
	start := time.Now()
	plan, rows, serr := coord.ScatterExplain(targets, scatter, req, root)
	if serr != nil {
		return nil, remoteErr(serr)
	}
	resp := &queryResponse{DB: dbName, Mode: ex.Query.Mode.String(), Columns: []string{}, Rows: []any{},
		Plan: plan, RowCount: rows, ElapsedMS: durMS(time.Since(start))}
	if req.Trace {
		resp.Trace = root
	}
	return resp, nil
}

// execDMLRemote routes one DML statement through the coordinator's
// write rules (insert → the write shard's primary, delete/update →
// every primary, replicated relations read-only).
func (s *Server) execDMLRemote(coord *cluster.Coordinator, dbName string, req execRequest) (*execResponse, *httpError) {
	start := time.Now()
	res, rerr := coord.Exec(req)
	if rerr != nil {
		return nil, remoteErr(rerr)
	}
	return &execResponse{
		DB:        dbName,
		Kind:      res.Kind,
		Tuples:    res.Tuples,
		ReprRows:  res.ReprRows,
		Tombs:     res.Tombs,
		Epoch:     res.Epoch,
		ElapsedMS: durMS(time.Since(start)),
	}, nil
}

// rawRows lifts coordinator-merged raw rows into the response row
// slice; they marshal verbatim, so merged rows are byte-identical to
// what the owning shard rendered.
func rawRows(rows []json.RawMessage) []any {
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}
