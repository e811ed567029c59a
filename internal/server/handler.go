package server

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"urel/internal/cluster"
	"urel/internal/obs"
	"urel/internal/store"
	"urel/internal/txn"
)

// Handler returns the server's HTTP API:
//
//	POST /query          {"sql": "...", "db": "...", "limit": n, "timeout_ms": n}
//	POST /exec           {"sql": "...", "db": "..."} — DML on writable catalogs
//	GET  /catalogs       registered catalogs and their shape
//	GET  /stats          query counters, segment-cache and plan-cache stats,
//	                     per-catalog commit epochs and WAL bytes
//	GET  /metrics        the same state as Prometheus text exposition format
//	GET  /healthz        liveness
//	GET  /worlds         the catalog's world table (worlds.bin bytes)
//	GET  /store/manifest the writable catalog's current manifest (catalog bytes)
//	GET  /store/file     one manifest-referenced segment file
//	GET  /wal/stream     long-poll for durable WAL frames (replication)
//
// /query and /exec pass through the shared admission control pool; the
// introspection and replication endpoints stay responsive under load.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/exec", s.handleExec)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/catalogs", s.handleCatalogs)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, 200, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/worlds", s.handleWorlds)
	mux.HandleFunc("/store/manifest", s.handleStoreManifest)
	mux.HandleFunc("/store/file", s.handleStoreFile)
	mux.HandleFunc("/wal/stream", s.handleWALStream)
	mux.HandleFunc("/fence", s.handleFence)
	mux.HandleFunc("/topology", s.handleTopology)
	return mux
}

// handleFence reports a catalog's fencing epochs: the store's own
// write-authority epoch and the highest foreign epoch it has witnessed.
// Coordinators call this on topology reload (RefreshFences) so writes
// re-routed to a promoted replica carry its epoch from the first try.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	entry, _, err := s.lookup(r.URL.Query().Get("db"))
	if err != nil {
		writeErr(w, cluster.Errorf(404, "%v", err))
		return
	}
	var own, by uint64
	switch {
	case entry.mut != nil:
		own, by = entry.mut.Fences()
	case entry.rep != nil:
		own, by = entry.rep.Fences()
	}
	writeJSON(w, 200, map[string]uint64{"fence": own, "fenced_by": by})
}

// handleTopology hot-swaps coordinator catalogs: POST the same
// topology JSON -topology loads at startup ({"catalogs": {...}}).
// Each named catalog is rebuilt over the new shard lists, fencing
// epochs are refreshed from the reachable nodes, and in-flight queries
// drain on the old coordinator.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, cluster.Errorf(http.StatusMethodNotAllowed, "POST a topology JSON body to /topology"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, cluster.Errorf(400, "read body: %v", err))
		return
	}
	spec, perr := cluster.ParseSpec(body)
	if perr != nil {
		writeErr(w, cluster.Errorf(400, "%v", perr))
		return
	}
	if rerr := s.ReloadTopology(spec.Catalogs); rerr != nil {
		writeErr(w, cluster.Errorf(400, "%v", rerr))
		return
	}
	names := make([]string, 0, len(spec.Catalogs))
	for name := range spec.Catalogs {
		names = append(names, name)
	}
	sort.Strings(names)
	writeJSON(w, 200, map[string]any{"status": "ok", "reloaded": names})
}

// admit acquires an execution slot, writing the rejection response and
// returning false when the pool stays saturated past the queue wait.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	enq := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.queueWait.ObserveDuration(time.Since(enq))
		return true
	case <-r.Context().Done():
		writeErr(w, cluster.Errorf(499, "client went away"))
		return false
	case <-timer.C:
		s.rejected.Inc()
		w.Header().Set("Retry-After", s.retryAfter())
		writeErr(w, cluster.Errorf(http.StatusTooManyRequests, "server saturated; retry later"))
		return false
	}
}

// retryAfter derives the 429 Retry-After hint from the observed
// admission-slot wait (p90, rounded up to whole seconds, floored at 1,
// capped at 30): under a short burst clients come back quickly, under a
// sustained backlog they spread out instead of hammering a saturated
// pool in lockstep.
func (s *Server) retryAfter() string {
	secs := int(math.Ceil(s.queueWait.Quantile(0.9)))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// maxBodyBytes bounds a /query or /exec request body: a client cannot
// make the server buffer more than this for one request.
const maxBodyBytes = 16 << 20

// decodeRequest decodes a POSTed JSON request body into req. When the
// request is not one, it answers the client itself and returns false:
// 405 for another method, 413 past maxBodyBytes, 400 for bad JSON or
// anything but white space after it.
func decodeRequest(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, cluster.Errorf(http.StatusMethodNotAllowed, "POST a JSON body to %s", r.URL.Path))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(req)
	var tooBig *http.MaxBytesError
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, &tooBig) {
			err = errors.New("data after the JSON value")
		}
	}
	switch {
	case errors.As(err, &tooBig):
		writeErr(w, cluster.Errorf(http.StatusRequestEntityTooLarge, "server: request body exceeds %d bytes", maxBodyBytes))
	case err != nil:
		writeErr(w, cluster.Errorf(400, "bad request body: %v", err))
	default:
		return true
	}
	return false
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeErr(w, cluster.Errorf(400, `"sql" is required`))
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer func() { <-s.sem }()
	s.writes.Inc()
	s.active.Add(1)
	defer s.active.Add(-1)
	var fence uint64
	if v := r.Header.Get(cluster.FenceHeader); v != "" {
		f, perr := strconv.ParseUint(v, 10, 64)
		if perr != nil {
			s.writeFailed.Inc()
			writeErr(w, cluster.Errorf(400, "bad %s header: %v", cluster.FenceHeader, perr))
			return
		}
		fence = f
	}
	resp, herr := s.executeDML(req, fence)
	if herr != nil {
		s.writeFailed.Inc()
		writeErr(w, herr)
		return
	}
	writeJSON(w, 200, resp)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeErr(w, cluster.Errorf(400, `"sql" is required`))
		return
	}

	// Admission control: wait briefly for an execution slot; reject
	// with 429 when the pool stays saturated, so overload sheds load
	// instead of stacking goroutines until memory runs out.
	if !s.admit(w, r) {
		return
	}
	defer func() { <-s.sem }()

	s.queries.Inc()
	s.active.Add(1)
	defer s.active.Add(-1)
	resp, rel, herr := s.execute(req)
	if herr != nil {
		s.failed.Inc()
		writeErr(w, herr)
		return
	}
	if rel != nil {
		// Coordinator single-shard relay: the shard's response bytes
		// pass through verbatim (status included — a shard-side error
		// body is already in the documented error shape).
		if rel.status != http.StatusOK {
			s.failed.Inc()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rel.status)
		_, _ = w.Write(rel.body)
		return
	}
	writeJSON(w, 200, resp)
}

// statsResponse is the GET /stats body. The counters are read from the
// same registry /metrics renders, so the two endpoints can never
// disagree; the JSON shape predates the registry and is kept stable.
type statsResponse struct {
	Queries       uint64                 `json:"queries"`
	Active        int64                  `json:"active"`
	Rejected      uint64                 `json:"rejected"`
	Failed        uint64                 `json:"failed"`
	Truncated     uint64                 `json:"truncated"`
	Writes        uint64                 `json:"writes"`
	WriteFailed   uint64                 `json:"write_failed"`
	UptimeSeconds float64                `json:"uptime_seconds"`
	GoVersion     string                 `json:"go_version"`
	Version       string                 `json:"version,omitempty"`
	ConfPaths     confPathCounters       `json:"conf_paths"`
	CertainPaths  certainPathCounters    `json:"certain_paths"`
	SegCache      store.CacheStats       `json:"seg_cache"`
	PlanCache     planCacheStats         `json:"plan_cache"`
	Catalogs      map[string]catalogInfo `json:"catalogs"`
}

// confPathCounters breaks CONF evaluation down by cost: distinct
// answer tuples served by one-pass bounds, exactly in at most one
// expansion step per descriptor (read_once), exactly in more
// (enumeration), and by Monte-Carlo sampling past the step budget.
type confPathCounters struct {
	Bounds      uint64 `json:"bounds"`
	ReadOnce    uint64 `json:"read_once"`
	Enumeration uint64 `json:"enumeration"`
	MonteCarlo  uint64 `json:"monte_carlo"`
}

// certainPathCounters breaks CERTAIN evaluation down by path: answer
// tuples that had a row with an empty descriptor (labelled), and answer
// tuples found by normalization + Lemma 4.3 (pipeline).
type certainPathCounters struct {
	Labelled uint64 `json:"labelled"`
	Pipeline uint64 `json:"pipeline"`
}

// catalogInfo describes one registered catalog. FullMerge lists the
// relations of the current snapshot that every query merges fully,
// because they have more than one partition and are not known to be
// existence-complete (core.UDB.FullMergeRels). Writable catalogs
// additionally report their write-path state: the commit epoch, WAL
// footprint, memtable and tombstone sizes, and flush/compaction
// counters.
type catalogInfo struct {
	Dir         string                `json:"dir,omitempty"`
	Relations   []string              `json:"relations"`
	FullMerge   []string              `json:"full_merge"`
	Log10Worlds float64               `json:"log10_worlds"`
	SizeBytes   int64                 `json:"size_bytes"`
	Writable    bool                  `json:"writable,omitempty"`
	Write       *txn.Stats            `json:"write,omitempty"`
	Replica     *cluster.ReplicaStats `json:"replica,omitempty"` // follower catalogs
	Cluster     *clusterCatalogInfo   `json:"cluster,omitempty"` // coordinator catalogs
}

// clusterCatalogInfo summarizes a coordinator catalog's topology.
type clusterCatalogInfo struct {
	Shards  []string `json:"shards"`
	Sharded []string `json:"sharded"`
}

func (s *Server) catalogInfos() map[string]catalogInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]catalogInfo, len(s.dbs))
	for name, e := range s.dbs {
		if e.coord != nil {
			spec := e.coord.Spec()
			ci := &clusterCatalogInfo{Sharded: spec.Sharded}
			for _, sh := range spec.Shards {
				ci.Shards = append(ci.Shards, sh.Name)
			}
			out[name] = catalogInfo{Relations: []string{}, FullMerge: []string{}, Cluster: ci}
			continue
		}
		db := e.snapshot()
		info := catalogInfo{
			Dir:         e.dir,
			Relations:   db.RelNames(),
			FullMerge:   db.FullMergeRels(),
			Log10Worlds: db.W.Log10Worlds(),
			SizeBytes:   db.SizeBytes(),
		}
		if e.mut != nil {
			info.Writable = true
			ws := e.mut.Stats()
			info.Write = &ws
		}
		if e.rep != nil {
			rs := e.rep.Stats()
			info.Replica = &rs
		}
		out[name] = info
	}
	return out
}

// buildVersion is the module version stamped into the binary, "" when
// built from a working tree without version info.
var buildVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return ""
}()

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, 200, statsResponse{
		Queries:       uint64(s.queries.Value()),
		Active:        s.active.Load(),
		Rejected:      uint64(s.rejected.Value()),
		Failed:        uint64(s.failed.Value()),
		Truncated:     uint64(s.truncated.Value()),
		Writes:        uint64(s.writes.Value()),
		WriteFailed:   uint64(s.writeFailed.Value()),
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
		Version:       buildVersion,
		ConfPaths: confPathCounters{
			Bounds:      uint64(s.confBoundsTuples.Value()),
			ReadOnce:    uint64(s.confReadOnce.Value()),
			Enumeration: uint64(s.confEnum.Value()),
			MonteCarlo:  uint64(s.confMC.Value()),
		},
		CertainPaths: certainPathCounters{
			Labelled: uint64(s.certainLabelled.Value()),
			Pipeline: uint64(s.certainPipeline.Value()),
		},
		SegCache:  s.segCache.Stats(),
		PlanCache: s.plans.stats(),
		Catalogs:  s.catalogInfos(),
	})
}

// handleMetrics serves the Prometheus text exposition: the server's
// own registry first, then obs.Default with the storage-layer metrics
// (WAL, flush/compaction, prune memo — process-global by nature).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		return
	}
	_ = obs.Default.WritePrometheus(w)
}

func (s *Server) handleCatalogs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, 200, s.catalogInfos())
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

// writeErr answers with e's status and error body.
func writeErr(w http.ResponseWriter, e *cluster.Error) { writeJSON(w, e.Status, e) }
