package server

import (
	"fmt"
	"net/http"

	"urel/internal/cluster"
	"urel/internal/obs"
)

// queryRequest and execRequest are the cluster wire types, shared by
// single-node serving, shard nodes, and the coordinator — the
// coordinator forwards exactly what clients send, so the two roles
// cannot drift apart. See cluster.QueryRequest for field semantics.
type (
	queryRequest = cluster.QueryRequest
	execRequest  = cluster.ExecRequest
)

// queryResponse is the POST /query result.
type queryResponse struct {
	DB      string   `json:"db"`
	Mode    string   `json:"mode"`
	Columns []string `json:"columns"`
	// Rows holds the result rows. Each element is either a []any built
	// by local evaluation or a json.RawMessage passed through verbatim
	// from a shard by the coordinator — the two marshal identically.
	Rows      []any  `json:"rows"`
	RowCount  int    `json:"row_count"`
	Truncated bool   `json:"truncated,omitempty"`
	Estimator string `json:"estimator,omitempty"` // conf: "read-once", "exact", "monte-carlo", or "bounds"
	Degraded  bool   `json:"degraded,omitempty"`  // conf auto: exact missed the deadline, bounds returned
	// Partial marks a coordinator answer some shards did not contribute
	// to ("partial": true requests only): possible/plain rows are a
	// sound subset, conf bounds are widened. MissingShards names them.
	Partial       bool          `json:"partial,omitempty"`
	MissingShards []string      `json:"missing_shards,omitempty"`
	PlanCached    bool          `json:"plan_cached"` // the node that evaluated ran a cached physical plan (a coordinator's merge never does)
	ElapsedMS     float64       `json:"elapsed_ms"`
	Plan          string        `json:"plan,omitempty"`  // EXPLAIN [ANALYZE]: the rendered plan
	Trace         *obs.Span     `json:"trace,omitempty"` // operator trace ("trace": true)
	Repr          *cluster.Repr `json:"repr,omitempty"`  // "wire": "repr": the result representation

	// raw short-circuits rendering: when set, the handler writes these
	// bytes (a shard's verbatim response) with rawStatus instead of
	// marshaling this struct — the coordinator's single-shard relay.
	raw       []byte
	rawStatus int
}

// httpError pairs a client-visible message with a status code, plus
// the structured fields some failures carry: shard/catalog/nodesTried
// on coordinator shard-unavailable errors, fence on 409 fencing
// refusals (the refusing store's authority epoch, which a stale
// coordinator adopts before retrying).
type httpError struct {
	status     int
	msg        string
	shard      string
	catalog    string
	nodesTried int
	fence      uint64
}

func (e *httpError) Error() string { return e.msg }

// body renders the error as its JSON response object: always {"error":
// msg}, plus the structured fields that are set — machine-readable
// context alongside the stable prose.
func (e *httpError) body() map[string]any {
	b := map[string]any{"error": e.msg}
	if e.shard != "" {
		b["shard"] = e.shard
	}
	if e.catalog != "" {
		b["catalog"] = e.catalog
	}
	if e.nodesTried > 0 {
		b["nodes_tried"] = e.nodesTried
	}
	if e.fence > 0 {
		b["fence"] = e.fence
	}
	return b
}

func httpErrf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// remoteErr maps a coordinator error onto the server's error currency,
// structured fields included.
func remoteErr(e *cluster.Error) *httpError {
	return &httpError{status: e.Status, msg: e.Msg,
		shard: e.Shard, catalog: e.Catalog, nodesTried: e.NodesTried}
}

// execResponse is the POST /exec result.
type execResponse struct {
	DB        string  `json:"db"`
	Kind      string  `json:"kind"`
	Tuples    int     `json:"tuples"`
	ReprRows  int     `json:"repr_rows"`
	Tombs     int     `json:"tombstones"`
	Epoch     uint64  `json:"epoch"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// execute routes one admitted query: coordinator catalogs scatter-
// gather over their shard nodes, everything else evaluates locally.
// The two paths are symmetric — same request type, same response type,
// same mode semantics — so a client cannot tell a coordinator from a
// single node except by the extra "shard …" spans in a trace.
func (s *Server) execute(req queryRequest) (*queryResponse, *httpError) {
	entry, dbName, err := s.lookup(req.DB)
	if err != nil {
		return nil, httpErrf(404, "%v", err)
	}
	if entry.coord != nil {
		return s.executeRemote(entry.coord, dbName, req)
	}
	return s.executeLocal(entry, dbName, req)
}

// executeDML routes one admitted DML statement: coordinator catalogs
// apply the cluster write-routing rules, replicas refuse (they follow
// the primary's log), local writable catalogs execute directly. The
// writable check comes FIRST: a promoted follower holds both a write
// path and the replica it grew from, and must serve writes. fence is
// the X-Urel-Fence epoch of a coordinated write (0 when absent).
func (s *Server) executeDML(req execRequest, fence uint64) (*execResponse, *httpError) {
	entry, dbName, err := s.lookup(req.DB)
	if err != nil {
		return nil, httpErrf(404, "%v", err)
	}
	if entry.coord != nil {
		return s.execDMLRemote(entry.coord, dbName, req)
	}
	if entry.mut == nil && entry.rep != nil {
		return nil, httpErrf(http.StatusForbidden,
			"server: catalog %q is a read replica following %s (write to the primary; to promote this replica, restart it with -rw and without -follow, or arm -promote-after)",
			dbName, entry.rep.Stats().Upstream)
	}
	return s.executeDMLLocal(entry, dbName, req, fence)
}
