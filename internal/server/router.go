package server

import (
	"net/http"
	"time"

	"urel/internal/cluster"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/sqlparse"
)

// queryRequest, queryResponse and execRequest are the cluster wire
// types, shared by single-node serving, shard nodes, and the
// coordinator — the coordinator forwards exactly what clients send and
// reads its shards' answers as the type it writes, so the two roles
// cannot drift apart. See cluster.QueryRequest for field semantics.
type (
	queryRequest  = cluster.QueryRequest
	queryResponse = cluster.QueryResponse
	execRequest   = cluster.ExecRequest
)

// relayed is a shard's /query reply, written as it came (Relay).
type relayed struct {
	status int
	body   []byte
}

// execute runs one admitted query end to end. A local catalog — a
// plain single node, or one shard's slice of a sharded catalog —
// evaluates a plan on its current snapshot; a coordinator catalog fans
// the statement out over its shard nodes. Nothing else differs: a
// shard's slice of a relation is just a partition, so validation, the
// deadline, tracing, the slow log, the certain-answer and confidence
// computations and the response are one path, and a client cannot tell
// a coordinator from a single node except by the "shard …" spans in a
// trace. A coordinator statement one shard answers whole returns that
// shard's reply as relayed instead.
func (s *Server) execute(req queryRequest) (*queryResponse, *relayed, *cluster.Error) {
	entry, dbName, err := s.lookup(req.DB)
	if err != nil {
		return nil, nil, cluster.Errorf(404, "%v", err)
	}
	timeout := s.cfg.Timeout
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	// Shards run under the effective deadline, the one the central
	// steps over their answers run under.
	req.TimeoutMS = int(timeout / time.Millisecond)
	if isExplain(req.SQL) {
		resp, herr := s.executeExplain(entry, dbName, req)
		return resp, nil, herr
	}
	st, herr := s.statement(entry, dbName, req.SQL)
	if herr != nil {
		return nil, nil, herr
	}
	if herr := validate(req); herr != nil {
		return nil, nil, herr
	}

	// Tracing costs a wrapper iterator per operator; pay it only when
	// the client asked or the slow-query log needs trace trees. A nil
	// root disables every trace branch down the stack.
	var root *obs.Span
	if req.Trace || s.slow.Enabled() {
		root = obs.NewSpan(st.span)
	}
	deadline := time.Now().Add(timeout)
	start := time.Now()
	src, rel, herr := st.open(req, root, deadline)
	if rel != nil {
		return nil, rel, nil
	}
	var resp *queryResponse
	if herr == nil {
		resp, herr = s.answer(src, st.parsed.Mode, req, deadline)
	}
	elapsed := time.Since(start)
	line := obs.SlowEntry{
		SQL:        normalizeSQL(req.SQL),
		DB:         dbName,
		Mode:       st.parsed.Mode.String(),
		ElapsedMS:  durMS(elapsed),
		DeadlineMS: durMS(timeout),
		Accuracy:   req.Accuracy,
		Trace:      root,
	}
	if herr != nil {
		if herr.Status == http.StatusGatewayTimeout {
			s.timeouts.Inc()
		}
		line.Error = herr.Msg
		s.slow.Record(line)
		return nil, nil, herr
	}
	resp.DB = dbName
	resp.Mode = line.Mode
	resp.PlanCached = st.cached
	if resp.Repr == nil {
		resp.RowCount = len(resp.Rows)
		if req.Limit > 0 && len(resp.Rows) > req.Limit {
			resp.Rows = resp.Rows[:req.Limit]
		}
	}
	resp.ElapsedMS = line.ElapsedMS
	if req.Trace {
		resp.Trace = root
	}
	s.modeLat[resp.Mode].ObserveDuration(elapsed)
	line.RowCount, line.Truncated = resp.RowCount, resp.Truncated
	line.Estimator, line.Degraded = resp.Estimator, resp.Degraded
	s.slow.Record(line)
	return resp, nil, nil
}

// statement is a query parsed on one catalog kind.
type statement struct {
	parsed *sqlparse.Parsed
	span   string // the name of its trace root
	cached bool   // the plan cache held its plan
	// open returns the statement's source, tracing into root (nil: no
	// trace). On a coordinator whose statement one shard answers whole,
	// it returns that shard's reply instead.
	open func(req queryRequest, root *obs.Span, deadline time.Time) (source, *relayed, *cluster.Error)
}

// statement parses sql for entry's catalog: the one place a query
// tells a local catalog from a coordinator. A local statement the plan
// cache holds a plan of for the catalog's current snapshot runs that
// plan; any other is planned when opened, and its plan cached. A
// coordinator plans nothing.
func (s *Server) statement(entry *catalogEntry, dbName, sql string) (*statement, *cluster.Error) {
	if coord := entry.coord; coord != nil {
		parsed, err := s.plans.parse(sql)
		if err != nil {
			return nil, cluster.Errorf(400, "%v", err)
		}
		open := func(req queryRequest, root *obs.Span, _ time.Time) (source, *relayed, *cluster.Error) {
			targets, _, herr := coord.Route(core.Relations(parsed.Query))
			if herr != nil {
				return nil, nil, herr
			}
			// One shard holds every representation row the query can
			// touch (the cluster has one shard, or only replicated
			// relations are read), so its response IS the answer: relay it
			// verbatim, skipping the decode/merge/re-encode cycle. A trace
			// root (asked for, or for the slow log) needs a merged
			// response object, so it takes the general path.
			if len(targets) == 1 && root == nil && req.Wire == "" {
				resp, herr := s.relay(coord, targets[0], parsed.Mode, req)
				return nil, resp, herr
			}
			return shardSource{s: s, coord: coord, targets: targets, req: req, span: root}, nil, nil
		}
		return &statement{parsed: parsed, span: "scatter-gather", open: open}, nil
	}
	db := entry.snapshot()
	key, parsed, prep, err := s.plans.lookup(sql, dbName, db)
	if err != nil {
		return nil, cluster.Errorf(400, "%v", err)
	}
	open := func(req queryRequest, root *obs.Span, deadline time.Time) (source, *relayed, *cluster.Error) {
		if prep == nil {
			var herr *cluster.Error
			if prep, herr = s.prepare(db, parsed.Query); herr != nil {
				return nil, nil, herr
			}
			s.plans.keep(key, dbName, db, prep)
		}
		return localSource{s: s, db: db, prep: prep, cfg: engine.ExecConfig{Trace: root}, deadline: deadline, maxRows: s.maxRows(req)}, nil, nil
	}
	return &statement{parsed: parsed, span: "query", cached: prep != nil, open: open}, nil
}

// validate checks a request's options before any work is done. (That
// "wire": "repr" suits the statement's mode is checked by answer.)
func validate(req queryRequest) *cluster.Error {
	switch req.Accuracy {
	case "", "exact", "bounds", "auto":
	default:
		return cluster.Errorf(400, "server: unknown accuracy %q (use \"exact\", \"bounds\", or \"auto\")", req.Accuracy)
	}
	switch req.Wire {
	case "", "repr":
	default:
		return cluster.Errorf(400, "server: unknown wire encoding %q (use \"repr\" or omit)", req.Wire)
	}
	return nil
}

// relay answers a query with one shard's response bytes, status
// included: a shard-side error body is already in the error shape. The
// shard answers under this server's row cap, as the scatter path would.
func (s *Server) relay(coord *cluster.Coordinator, shard int, mode sqlparse.Mode, req queryRequest) (*relayed, *cluster.Error) {
	start := time.Now()
	req.MaxRows = s.maxRows(req)
	status, body, err := coord.Relay(shard, req)
	if err != nil {
		return nil, err
	}
	if status == http.StatusOK {
		s.modeLat[mode.String()].ObserveDuration(time.Since(start))
	} else if status == http.StatusGatewayTimeout {
		s.timeouts.Inc()
	}
	return &relayed{status: status, body: body}, nil
}

// executeDML runs one admitted DML statement: coordinator catalogs
// apply the cluster write-routing rules, replicas refuse (they follow
// the primary's log), local writable catalogs execute directly. The
// writable check comes FIRST: a promoted follower holds both a write
// path and the replica it grew from, and must serve writes. fence is
// the X-Urel-Fence epoch of a coordinated write (0 when absent).
func (s *Server) executeDML(req execRequest, fence uint64) (*cluster.ExecResponse, *cluster.Error) {
	entry, dbName, err := s.lookup(req.DB)
	if err != nil {
		return nil, cluster.Errorf(404, "%v", err)
	}
	start := time.Now()
	var resp *cluster.ExecResponse
	var herr *cluster.Error
	switch {
	case entry.coord != nil:
		resp, herr = entry.coord.Exec(req)
	case entry.mut == nil && entry.rep != nil:
		herr = cluster.Errorf(http.StatusForbidden,
			"server: catalog %q is a read replica following %s (write to the primary; to promote this replica, restart it with -rw and without -follow, or arm -promote-after)",
			dbName, entry.rep.Stats().Upstream)
	default:
		resp, herr = s.executeDMLLocal(entry, dbName, req, fence)
	}
	if herr != nil {
		return nil, herr
	}
	resp.DB = dbName
	resp.ElapsedMS = durMS(time.Since(start))
	return resp, nil
}
