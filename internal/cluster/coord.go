package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"urel/internal/core"
	"urel/internal/obs"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/ws"
)

// Options tunes a Coordinator.
type Options struct {
	// HTTPClient overrides the transport (tests inject httptest
	// clients); nil uses a client with a 5-minute ceiling so shard-side
	// query deadlines, not the transport, bound sub-requests.
	HTTPClient *http.Client
	// Registry receives the urel_shard_* metric family; nil disables
	// coordinator metrics.
	Registry *obs.Registry
	// Health tunes the per-node circuit breakers, backoff, and active
	// health probes.
	Health HealthOptions
}

// Coordinator scatter-gathers queries for one sharded catalog over the
// ordinary single-node HTTP/JSON protocol and merges the results with
// the per-mode semantics documented in the package comment. It is safe
// for concurrent use.
type Coordinator struct {
	catalog string
	spec    CatalogSpec
	sharded map[string]bool
	hc      *http.Client
	opts    Options // as passed to NewCoordinator (topology reload rebuilds with them)

	health *healthTracker
	fences []atomic.Uint64 // per shard: highest fencing epoch witnessed

	rr     atomic.Uint64   // round-robin cursor: single-shard routing of replicated-only queries
	nodeRR []atomic.Uint64 // per shard: replica-read rotation, advanced only by that shard's calls

	probeQuit chan struct{}
	probeOnce sync.Once

	worlds atomic.Pointer[ws.WorldTable] // fetched once; W is immutable

	reqs      []*obs.Counter // per shard: sub-requests issued
	failovers []*obs.Counter // per shard: node failures routed around
	unavail   []*obs.Counter // per shard: requests failed with every node down
	lat       []*obs.Histogram
	partials  *obs.Counter // partial (degraded) merged results served
}

// NewCoordinator builds a coordinator for catalog over spec.
func NewCoordinator(catalog string, spec CatalogSpec, opts Options) (*Coordinator, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("cluster: catalog %q: %w", catalog, err)
	}
	c := &Coordinator{
		catalog:   catalog,
		spec:      spec,
		sharded:   map[string]bool{},
		hc:        opts.HTTPClient,
		opts:      opts,
		health:    newHealthTracker(opts.Health),
		probeQuit: make(chan struct{}),
	}
	c.fences = make([]atomic.Uint64, len(spec.Shards))
	c.nodeRR = make([]atomic.Uint64, len(spec.Shards))
	for _, r := range spec.Sharded {
		c.sharded[r] = true
	}
	if c.hc == nil {
		// DefaultTransport keeps only 2 idle connections per host, which
		// churns TCP sockets under fan-out; pool enough for a busy shard.
		c.hc = &http.Client{
			Timeout: 5 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	if r := opts.Registry; r != nil {
		for si, sh := range spec.Shards {
			lv := []string{catalog, sh.Name}
			c.reqs = append(c.reqs, r.CounterWith("urel_shard_requests_total",
				"Sub-requests issued to each shard.", []string{"catalog", "shard"}, lv...))
			c.failovers = append(c.failovers, r.CounterWith("urel_shard_failovers_total",
				"Node failures routed around to another node of the shard.", []string{"catalog", "shard"}, lv...))
			c.unavail = append(c.unavail, r.CounterWith("urel_shard_unavailable_total",
				"Sub-requests that failed with every node of the shard down (503s).", []string{"catalog", "shard"}, lv...))
			c.lat = append(c.lat, r.HistogramWith("urel_shard_seconds",
				"Sub-request latency per shard.", nil, []string{"catalog", "shard"}, lv...))
			for _, node := range sh.Nodes {
				node := node
				r.GaugeFuncWith("urel_node_state",
					"Per-node circuit-breaker state (0 closed, 1 half-open, 2 open).",
					[]string{"catalog", "shard", "node"}, []string{catalog, spec.Shards[si].Name, node},
					func() float64 { return float64(c.health.stateOf(node)) })
			}
		}
		c.partials = r.CounterWith("urel_partial_results_total",
			"Coordinated results served partial (at least one shard missing).",
			[]string{"catalog"}, catalog)
		r.GaugeFuncWith("urel_cluster_shards", "Shards in the coordinated catalog.",
			[]string{"catalog"}, []string{catalog},
			func() float64 { return float64(len(spec.Shards)) })
	}
	if c.health.opts.ProbeInterval > 0 {
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the health-probe loop. Queries already holding the
// coordinator keep working — topology reload relies on that to drain
// in-flight requests on the old object while new ones use its
// replacement.
func (c *Coordinator) Close() {
	c.probeOnce.Do(func() { close(c.probeQuit) })
}

// probeLoop actively probes /healthz on nodes whose breaker is not
// closed, closing the breaker the moment one answers again. When every
// node is healthy an iteration is one mutex acquire — steady-state
// overhead is nil.
func (c *Coordinator) probeLoop() {
	probe := &http.Client{Transport: c.hc.Transport, Timeout: time.Second}
	t := time.NewTicker(c.health.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeQuit:
			return
		case <-t.C:
		}
		for _, node := range c.health.unhealthy() {
			resp, err := probe.Get(node + "/healthz")
			if err != nil {
				c.health.observe(node, false)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			c.health.observe(node, resp.StatusCode == http.StatusOK)
		}
	}
}

// Catalog returns the coordinated catalog's name.
func (c *Coordinator) Catalog() string { return c.catalog }

// Spec returns the coordinator's topology.
func (c *Coordinator) Spec() CatalogSpec { return c.spec }

// Opts returns the options the coordinator was built with, so a
// topology reload can rebuild against a new spec with identical tuning.
func (c *Coordinator) Opts() Options { return c.opts }

// Route resolves which shards a query touching rels must visit.
// scatter reports whether the result is a fan-out (the query reads a
// hash-sharded relation) or a single-shard round-robin pick (only
// replicated relations). Joining two distinct sharded relations is
// rejected: their rows are co-partitioned by unrelated tuple ids, so
// per-shard evaluation would miss cross-shard join pairs.
func (c *Coordinator) Route(rels []string) (targets []int, scatter bool, err *Error) {
	var shardedRels []string
	for _, r := range rels {
		if c.sharded[r] {
			shardedRels = append(shardedRels, r)
		}
	}
	if len(shardedRels) > 1 {
		return nil, false, Errorf(400,
			"cluster: query joins sharded relations %s: tuples of distinct sharded relations are partitioned independently, so scatter-gather cannot evaluate their join (shard one of them only, or replicate one)",
			strings.Join(shardedRels, ", "))
	}
	if len(shardedRels) == 0 {
		return []int{int(c.rr.Add(1)-1) % len(c.spec.Shards)}, false, nil
	}
	targets = make([]int, len(c.spec.Shards))
	for i := range targets {
		targets[i] = i
	}
	return targets, true, nil
}

// nodeOrder returns the shard's nodes in try order for reads: a
// round-robin rotation of the nodes whose breaker admits requests
// first (spreading load over primary and replicas), then the tripped
// ones as a last resort — a transient blip should degrade to a retry,
// not a 503.
func (c *Coordinator) nodeOrder(shard int) []string {
	nodes := c.spec.Shards[shard].Nodes
	// Per-shard cursor: rotation depends only on how many calls THIS
	// shard has served, not on sibling shards racing the same counter
	// during a scatter — keeps replica load even per shard and the node
	// order reproducible for a sequential request stream.
	rot := int(c.nodeRR[shard].Add(1)-1) % len(nodes)
	rotated := make([]string, 0, len(nodes))
	for i := range nodes {
		rotated = append(rotated, nodes[(rot+i)%len(nodes)])
	}
	ready, tripped := c.health.split(rotated)
	return append(ready, tripped...)
}

// shardCall is one sub-request's outcome: the raw response body, HTTP
// status, and the node that served it.
type shardCall struct {
	status  int
	body    []byte
	node    string
	elapsed time.Duration
}

// post issues one sub-request to one node. fence, when non-zero, rides
// along as the X-Urel-Fence header (coordinated writes only).
func (c *Coordinator) post(node, path string, body []byte, fence uint64) (*shardCall, error) {
	req, err := http.NewRequest(http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if fence > 0 {
		req.Header.Set(FenceHeader, strconv.FormatUint(fence, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return &shardCall{status: resp.StatusCode, body: b, node: node, elapsed: time.Since(start)}, nil
}

// call POSTs body to path on one node of the shard, failing over
// across the shard's nodes on transport errors. Only transport errors
// fail over — an HTTP error status is an answer from a healthy node
// and is returned as-is. When every node is unreachable the error is
// an explicit 503 naming the shard, with the structured
// Shard/Catalog/NodesTried fields populated.
func (c *Coordinator) call(shard int, path string, body []byte, primaryOnly bool, fence uint64) (*shardCall, *Error) {
	if len(c.reqs) > 0 {
		c.reqs[shard].Inc()
	}
	nodes := c.nodeOrder(shard)
	if primaryOnly {
		nodes = c.spec.Shards[shard].Nodes[:1]
	}
	var lastErr error
	for i, node := range nodes {
		if i > 0 && len(c.failovers) > 0 {
			c.failovers[shard].Inc()
		}
		sc, err := c.post(node, path, body, fence)
		if err != nil {
			c.health.observe(node, false)
			lastErr = err
			continue
		}
		c.health.observe(node, true)
		if len(c.lat) > 0 {
			c.lat[shard].ObserveDuration(sc.elapsed)
		}
		return sc, nil
	}
	if len(c.unavail) > 0 {
		c.unavail[shard].Inc()
	}
	name := c.spec.Shards[shard].Name
	return nil, &Error{Status: http.StatusServiceUnavailable, Shard: name, Catalog: c.catalog, NodesTried: len(nodes),
		Msg: fmt.Sprintf("cluster: shard %q of catalog %q unavailable: no reachable node (%d tried, last error: %v)",
			name, c.catalog, len(nodes), lastErr)}
}

// decode decodes a shard's response: the body into out on a 200, and
// otherwise the error body the shard sent, raised again under the
// shard's name.
func (c *Coordinator) decode(shard int, sc *shardCall, out any) *Error {
	name := c.spec.Shards[shard].Name
	var se Error
	if sc.status != http.StatusOK {
		out = &se
	}
	if err := json.Unmarshal(sc.body, out); err != nil {
		return Errorf(http.StatusBadGateway, "cluster: shard %q returned unparseable response: %v", name, err)
	}
	if sc.status == http.StatusOK {
		return nil
	}
	msg := se.Msg
	if msg == "" {
		msg = fmt.Sprintf("status %d", sc.status)
	}
	return &Error{Status: sc.status, Shard: name, Catalog: c.catalog, Msg: fmt.Sprintf("cluster: shard %q: %s", name, msg)}
}

// Relay forwards a query to a single shard and returns the raw
// response bytes for verbatim pass-through. When routing resolves to
// one shard, its answer IS the global answer for every mode (all
// relevant representation rows live there), so the coordinator skips
// the decode/merge/re-encode cycle entirely — this is what keeps
// 1-shard coordinator overhead to a transport hop.
func (c *Coordinator) Relay(shard int, req QueryRequest) (status int, body []byte, err *Error) {
	req.DB = c.catalog
	b, merr := json.Marshal(req)
	if merr != nil {
		return 0, nil, Errorf(500, "cluster: %v", merr)
	}
	sc, cerr := c.call(shard, "/query", b, false, 0)
	if cerr != nil {
		return 0, nil, cerr
	}
	return sc.status, sc.body, nil
}

// scatter issues the request to every target shard concurrently and
// decodes each response. A per-shard child span (when span is non-nil)
// records the sub-request latency and row count — the per-shard
// breakdown EXPLAIN ANALYZE and "trace":true surface.
//
// With allowPartial, a shard whose every node is unreachable (the
// structured 503) yields a nil slot and its index in missing instead
// of failing the whole scatter; any other shard error, and the case of
// every shard missing, still fail. So does a shard that answers other
// columns than the first shard did: the merges line rows up by column.
func (c *Coordinator) scatter(targets []int, req QueryRequest, span *obs.Span, allowPartial bool) (resps []*QueryResponse, missing []int, err *Error) {
	req.DB = c.catalog
	req.Limit = 0     // limits cannot push below a union; applied after merging
	req.Trace = false // shard-internal traces are not gathered; spans carry latency
	body, merr := json.Marshal(req)
	if merr != nil {
		return nil, nil, Errorf(500, "cluster: %v", merr)
	}
	type slot struct {
		resp *QueryResponse
		call *shardCall
		err  *Error
	}
	slots := make([]slot, len(targets))
	var wg sync.WaitGroup
	for i, shard := range targets {
		wg.Add(1)
		go func(i, shard int) {
			defer wg.Done()
			sc, err := c.call(shard, "/query", body, false, 0)
			if err == nil {
				var sr QueryResponse
				if err = c.decode(shard, sc, &sr); err == nil {
					slots[i] = slot{resp: &sr, call: sc}
					return
				}
			}
			slots[i] = slot{err: err}
		}(i, shard)
	}
	wg.Wait()
	out := make([]*QueryResponse, len(targets))
	var lastMissing *Error
	first := -1
	for i, sl := range slots {
		if sl.err != nil {
			if allowPartial && sl.err.Status == http.StatusServiceUnavailable && sl.err.NodesTried > 0 {
				missing = append(missing, i)
				lastMissing = sl.err
				continue
			}
			return nil, nil, sl.err
		}
		if first < 0 {
			first = i
		} else if !slices.Equal(sl.resp.Columns, out[first].Columns) {
			name := c.spec.Shards[targets[i]].Name
			return nil, nil, &Error{Status: http.StatusBadGateway, Shard: name, Catalog: c.catalog,
				Msg: fmt.Sprintf("cluster: shard %q answered columns %v, shard %q answered %v",
					name, sl.resp.Columns, c.spec.Shards[targets[first]].Name, out[first].Columns)}
		}
		if span != nil {
			child := span.Child("shard "+c.spec.Shards[targets[i]].Name, -1)
			child.AddNanos(sl.call.elapsed.Nanoseconds())
			child.AddRows(int64(sl.resp.RowCount))
		}
		out[i] = sl.resp
	}
	if len(missing) == len(targets) {
		return nil, nil, lastMissing
	}
	if len(missing) > 0 && c.partials != nil {
		c.partials.Inc()
	}
	return out, missing, nil
}

// missingNames maps missing slot indices back to shard names.
func (c *Coordinator) missingNames(targets, missing []int) []string {
	var out []string
	for _, i := range missing {
		out = append(out, c.spec.Shards[targets[i]].Name)
	}
	return out
}

// ScatterRows runs a possible- or plain-mode query on every target and
// merges: possible answers union with cross-shard dedup (each shard
// already returns a set); plain representation rows concatenate. With
// req.Partial, unreachable shards are skipped and reported in
// MissingShards — the merged rows are then a subset of the full
// answer (sound for possible/plain, which are unions over shards). The
// dedup keys on a row's bytes: every node writes its rows with
// AppendRow, so equal rows are equal bytes.
func (c *Coordinator) ScatterRows(targets []int, req QueryRequest, dedup bool, span *obs.Span) (*QueryResponse, *Error) {
	resps, missing, err := c.scatter(targets, req, span, req.Partial)
	if err != nil {
		return nil, err
	}
	m := &QueryResponse{Rows: []json.RawMessage{}, Partial: len(missing) > 0, MissingShards: c.missingNames(targets, missing)}
	seen := map[string]bool{}
	for _, sr := range resps {
		if sr == nil {
			continue
		}
		if m.Columns == nil {
			m.Columns = sr.Columns
		}
		m.Truncated = m.Truncated || sr.Truncated
		for _, row := range sr.Rows {
			if dedup {
				if seen[string(row)] {
					continue
				}
				seen[string(row)] = true
			}
			m.Rows = append(m.Rows, row)
		}
	}
	return m, nil
}

// ScatterBounds runs a CONF BOUNDS query on every target and merges
// per answer tuple: lower = max of shard lowers, upper = min(1, sum of
// shard uppers). Exactness argument: a tuple's global lower bound is
// max P(d) over ALL its representation rows = max over shards of the
// per-shard max; the upper bound is min(1, Σ P(d)) over all rows, and
// per-shard clamping cannot change it — a clamped shard's partial sum
// already exceeds 1, forcing the global min(1, ·) to 1 as well. Tuples
// absent from a shard contribute (0, 0) there, matching "no rows".
//
// With req.Partial, an unreachable shard widens instead of failing:
// its rows might have raised any tuple's upper bound (and introduced
// tuples we cannot list), so every returned upper is clamped to 1,
// while lowers stay sound — a max over fewer shards can only
// underestimate, and a lower bound may be low. The result sandwiches
// the exact confidence of every tuple it lists. Its ReprRows sums the
// shards', the rows of the union of their representations.
func (c *Coordinator) ScatterBounds(targets []int, req QueryRequest, span *obs.Span) (*QueryResponse, *Error) {
	req.Accuracy = "bounds"
	resps, missing, err := c.scatter(targets, req, span, req.Partial)
	if err != nil {
		return nil, err
	}
	type bound struct {
		vals    []json.RawMessage
		lo, hi  float64
		clamped bool
	}
	var order []string
	merged := map[string]*bound{}
	degraded, reprRows := len(missing) > 0, 0
	var columns []string
	for _, sr := range resps {
		if sr == nil {
			continue
		}
		if columns == nil {
			columns = sr.Columns
			if len(columns) < 2 {
				return nil, Errorf(502, "cluster: shard bounds response has %d columns", len(columns))
			}
		}
		degraded = degraded || sr.Degraded
		reprRows += sr.ReprRows
		nvals := len(columns) - 2 // trailing _p_lo, _p_hi
		for _, raw := range sr.Rows {
			var cells []json.RawMessage
			var lo, hi float64
			if json.Unmarshal(raw, &cells) != nil || len(cells) != nvals+2 ||
				json.Unmarshal(cells[nvals], &lo) != nil || json.Unmarshal(cells[nvals+1], &hi) != nil {
				return nil, Errorf(502, "cluster: bad shard bounds row %s", raw)
			}
			var kb []byte // the cells, each closed by a 0 byte, which sorts first
			for _, c := range cells[:nvals] {
				kb = append(append(kb, c...), 0)
			}
			key := string(kb)
			b := merged[key]
			if b == nil {
				b = &bound{vals: cells[:nvals]}
				merged[key] = b
				order = append(order, key)
			}
			b.lo, b.hi, b.clamped = max(b.lo, lo), b.hi+hi, b.clamped || hi >= 1
		}
	}
	m := &QueryResponse{
		Columns:       columns,
		Estimator:     "bounds",
		Degraded:      degraded,
		ReprRows:      reprRows,
		Partial:       len(missing) > 0,
		MissingShards: c.missingNames(targets, missing),
	}
	sort.Strings(order) // deterministic cross-shard output order
	w := RowWriter{Rows: make([]json.RawMessage, 0, len(order))}
	for _, key := range order {
		b := merged[key]
		if b.hi > 1 || b.clamped || m.Partial {
			b.hi = 1
		}
		b.lo = min(b.lo, b.hi) // max-certain from one shard cannot exceed the clamped possible
		if aerr := w.Add(b.vals, nil, b.lo, b.hi); aerr != nil {
			return nil, Errorf(502, "cluster: %v", aerr)
		}
	}
	m.Rows = w.Rows
	return m, nil
}

// GatherRepr runs the query on every target with "wire": "repr" and
// unions the returned representations into one core.UResult over the
// (replicated, immutable) world table — the input to running the
// certain-answer pipeline or exact confidence computation centrally.
func (c *Coordinator) GatherRepr(targets []int, req QueryRequest, span *obs.Span) (*core.UResult, *Error) {
	w, werr := c.worldTable()
	if werr != nil {
		return nil, werr
	}
	req.Wire = "repr"
	resps, _, err := c.scatter(targets, req, span, false)
	if err != nil {
		return nil, err
	}
	res := &core.UResult{W: w}
	for i, sr := range resps {
		if sr.Repr == nil {
			return nil, Errorf(502, "cluster: shard %q returned no representation (is it running an older build?)",
				c.spec.Shards[targets[i]].Name)
		}
		if derr := decodeReprInto(res, sr.Repr); derr != nil {
			return nil, Errorf(502, "%v", derr)
		}
	}
	return res, nil
}

// ScatterExplain fans an EXPLAIN [ANALYZE] statement out and composes
// the shard plans under a scatter-gather header, with per-shard wall
// time — the distribution-aware EXPLAIN ANALYZE.
func (c *Coordinator) ScatterExplain(targets []int, scatter bool, req QueryRequest, span *obs.Span) (plan string, rows int, err *Error) {
	resps, _, serr := c.scatter(targets, req, span, false)
	if serr != nil {
		return "", 0, serr
	}
	var b strings.Builder
	routing := "single-shard (round-robin: no sharded relation read)"
	if scatter {
		routing = fmt.Sprintf("fan-out %d/%d shards", len(targets), len(c.spec.Shards))
	}
	fmt.Fprintf(&b, "Scatter-Gather on %s: %s\n", c.catalog, routing)
	for i, sr := range resps {
		rows += sr.RowCount
		fmt.Fprintf(&b, "shard %s: %.3fms\n", c.spec.Shards[targets[i]].Name, sr.ElapsedMS)
		text := strings.TrimRight(sr.Plan, "\n")
		for _, line := range strings.Split(text, "\n") {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), rows, nil
}

// worldTable fetches (once) the catalog's world table from any live
// node. W is replicated to every shard and immutable at serving time —
// DML inserts certain rows or reuses existing variables; only loading
// a new database introduces variables — so a single fetch is safe to
// cache for the coordinator's lifetime.
func (c *Coordinator) worldTable() (*ws.WorldTable, *Error) {
	if w := c.worlds.Load(); w != nil {
		return w, nil
	}
	var lastErr *Error
	for shard := range c.spec.Shards {
		for _, node := range c.nodeOrder(shard) {
			resp, err := c.hc.Get(node + "/worlds?db=" + url.QueryEscape(c.catalog))
			if err != nil {
				c.health.observe(node, false)
				lastErr = Errorf(503, "cluster: fetch world table: %v", err)
				continue
			}
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil || resp.StatusCode != http.StatusOK {
				lastErr = Errorf(502, "cluster: fetch world table from %s: status %d (%v)", node, resp.StatusCode, rerr)
				continue
			}
			w, derr := store.DecodeWorldTable(b)
			if derr != nil {
				return nil, Errorf(502, "cluster: decode world table: %v", derr)
			}
			c.worlds.Store(w)
			return w, nil
		}
	}
	if lastErr == nil {
		lastErr = Errorf(503, "cluster: no nodes configured")
	}
	return nil, lastErr
}

// Exec routes one DML statement:
//
//   - INSERT ... VALUES into a sharded relation goes to the write
//     shard's primary (shard 0). Fresh tuple ids are allocated above
//     the GLOBAL MaxTID that ShardedSave stamped into every shard's
//     manifest, so they never collide with rows on other shards; reads
//     scatter, so placement does not affect correctness, only balance.
//   - INSERT ... SELECT may read replicated relations (each shard holds
//     them whole) but not sharded ones (the write shard only sees its
//     slice).
//   - DELETE / UPDATE on a sharded relation scatter to every primary;
//     counts sum, the epoch reported is the maximum.
//   - DML on replicated relations is rejected: an uncoordinated
//     per-shard write would let the replicas diverge. Reload the
//     catalog (ShardedSave) to change dimension data.
func (c *Coordinator) Exec(req ExecRequest) (*ExecResponse, *Error) {
	st, perr := sqlparse.ParseStatement(req.SQL)
	if perr != nil {
		return nil, Errorf(400, "%v", perr)
	}
	var table string
	scatterWrite := false
	switch s := st.(type) {
	case *sqlparse.InsertStmt:
		table = s.Table
		if s.Select != nil {
			for _, r := range core.Relations(s.Select.Query) {
				if c.sharded[r] {
					return nil, Errorf(400,
						"cluster: INSERT ... SELECT reads sharded relation %q: the write shard only holds its own slice (SELECT from replicated relations only)", r)
				}
			}
		}
	case *sqlparse.DeleteStmt:
		table = s.Table
		scatterWrite = true
	case *sqlparse.UpdateStmt:
		table = s.Table
		scatterWrite = true
	default:
		return nil, Errorf(400, "cluster: unsupported statement for coordinated execution")
	}
	if !c.sharded[table] {
		return nil, Errorf(http.StatusForbidden,
			"cluster: relation %q is replicated to every shard and read-only under sharding (rebuild the catalog with store.ShardedSave to change it)", table)
	}

	req.DB = c.catalog
	body, merr := json.Marshal(req)
	if merr != nil {
		return nil, Errorf(500, "cluster: %v", merr)
	}
	targets := []int{0}
	if scatterWrite {
		targets = make([]int, len(c.spec.Shards))
		for i := range targets {
			targets[i] = i
		}
	}
	out := &ExecResponse{}
	for _, shard := range targets {
		sr, cerr := c.execShard(shard, body, scatterWrite)
		if cerr != nil {
			return nil, cerr
		}
		out.Kind = sr.Kind
		out.Tuples += sr.Tuples
		out.ReprRows += sr.ReprRows
		out.Tombs += sr.Tombs
		if sr.Epoch > out.Epoch {
			out.Epoch = sr.Epoch
		}
	}
	return out, nil
}

// execShard sends one coordinated write to the shard's primary with
// the shard's known fencing epoch attached. A 409 carrying a HIGHER
// epoch means the coordinator's view was stale (a replica was promoted
// since the last topology refresh): adopt the new epoch and retry once
// against the current topology. A lower-epoch refusal is terminal —
// the node we wrote to is a fenced old primary.
func (c *Coordinator) execShard(shard int, body []byte, scatterWrite bool) (*ExecResponse, *Error) {
	for attempt := 0; ; attempt++ {
		sc, cerr := c.call(shard, "/exec", body, true, c.fences[shard].Load())
		if cerr != nil {
			if scatterWrite && shard > 0 {
				cerr.Msg += fmt.Sprintf(" (WARNING: the statement already applied on %d shard(s); retrying is safe — DELETE and UPDATE are predicate-idempotent)", shard)
			}
			return nil, cerr
		}
		var refusal Error
		if sc.status == http.StatusConflict && attempt == 0 && json.Unmarshal(sc.body, &refusal) == nil &&
			refusal.Fence > c.fences[shard].Load() {
			c.fences[shard].Store(refusal.Fence)
			continue
		}
		var sr ExecResponse
		if err := c.decode(shard, sc, &sr); err != nil {
			return nil, err
		}
		return &sr, nil
	}
}

// RefreshFences asks every node of every shard for its fencing epoch
// and records the per-shard maximum. Called on topology reload, so a
// coordinator pointed back at a resurrected old primary still writes
// with the promoted epoch — the stale primary self-fences instead of
// accepting a divergent write. Unreachable nodes are skipped (their
// epoch is learned via the 409 adopt-and-retry path if it matters).
func (c *Coordinator) RefreshFences() {
	probe := &http.Client{Transport: c.hc.Transport, Timeout: 2 * time.Second}
	var wg sync.WaitGroup
	for shard := range c.spec.Shards {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for _, node := range c.spec.Shards[shard].Nodes {
				resp, err := probe.Get(node + "/fence?db=" + url.QueryEscape(c.catalog))
				if err != nil {
					continue
				}
				b, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					continue
				}
				var fr struct {
					Fence    uint64 `json:"fence"`
					FencedBy uint64 `json:"fenced_by"`
				}
				if json.Unmarshal(b, &fr) != nil {
					continue
				}
				max := fr.Fence
				if fr.FencedBy > max {
					max = fr.FencedBy
				}
				for {
					cur := c.fences[shard].Load()
					if max <= cur || c.fences[shard].CompareAndSwap(cur, max) {
						break
					}
				}
			}
		}(shard)
	}
	wg.Wait()
}
