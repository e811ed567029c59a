package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"urel/internal/cluster"
	"urel/internal/core"
	"urel/internal/obs"
	"urel/internal/store"
	"urel/internal/txn"
)

// ListenAndServe serves s on addr with sane HTTP timeouts; it blocks
// until the listener fails.
func ListenAndServe(addr string, s *Server) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return hs.ListenAndServe()
}

// Config controls a Server. The zero value is usable: all limits fall
// back to the documented defaults at New.
type Config struct {
	// Catalogs maps catalog names to saved database directories
	// (urel.Save / urgen -save); each is opened at New with the
	// shared segment cache attached.
	Catalogs map[string]string

	// Cluster registers coordinator catalogs: name → topology. A
	// coordinator catalog holds no local data; queries against it
	// scatter-gather over the topology's shard nodes, and DML routes
	// under the cluster write rules. Shard nodes must serve the catalog
	// under the same name, with shards in store.ShardedSave order.
	Cluster map[string]cluster.CatalogSpec

	// Follow opens catalogs as WAL-shipping read replicas: name →
	// upstream node URL (the primary must serve the catalog under the
	// same name, writable). The local directory comes from
	// Catalogs[name] — empty or holding a previous follower session's
	// clone. Mutually exclusive with Writable: a follower applies the
	// primary's log verbatim; to promote one, restart it with Writable
	// and without Follow — or set PromoteAfter to let it promote
	// itself when the primary goes quiet.
	Follow map[string]string

	// PromoteAfter arms automatic replica promotion on follower
	// catalogs: when the WAL stream has had no successful contact with
	// the primary for this long (the replication lease), the follower
	// fences the dead primary by bumping the manifest's epoch and
	// reopens itself writable in place. Zero (the default) disables
	// auto-promotion; the catalog then follows forever and promotion
	// stays a manual restart. See docs/OPERATIONS.md for the fencing
	// semantics.
	PromoteAfter time.Duration

	// MaxConcurrent bounds the queries executing at once; requests
	// beyond it wait at most QueueWait for a slot and are then rejected
	// with 429. Default: 2 × GOMAXPROCS, at least 4.
	MaxConcurrent int
	// QueueWait is the longest a request waits for an execution slot.
	// Default: 1s.
	QueueWait time.Duration
	// MaxRows caps the materialized rows of one query. Possible- and
	// plain-mode results are truncated at the cap (flagged in the
	// response); certain/conf queries fail with 413, since a truncated
	// representation would yield wrong answers. Default: 1 << 20.
	MaxRows int
	// Timeout is the per-query deadline, checked between batches and
	// pipeline stages. Requests may lower it per call. Default: 30s.
	Timeout time.Duration

	// SegCacheBytes budgets the shared decoded-segment cache across
	// all catalogs (<= 0 uses the default 256 MiB; DisableSegCache
	// turns the cache off).
	SegCacheBytes int64
	// DisableSegCache turns the shared segment cache off entirely.
	DisableSegCache bool
	// PlanCacheSize bounds the statement cache (entries). An entry holds
	// a parsed statement and, per catalog, its optimized plan on the
	// catalog's current snapshot. Default: 512.
	PlanCacheSize int

	// Writable opens every catalog through the transactional write
	// path (internal/txn): POST /exec accepts DML, reads serve MVCC
	// snapshots, and /stats reports epochs and WAL bytes. Exactly one
	// server may open a directory writable at a time (enforced by a
	// lock file).
	//
	// Known limitation: DML statements are not bounded by Timeout —
	// they run to completion under the catalog's commit lock (a
	// durable commit cannot be abandoned halfway), so an expensive
	// DELETE/UPDATE predicate stalls other writers (never readers) and
	// holds its admission slot until it finishes.
	Writable bool
	// FlushBytes overrides the write path's auto-flush threshold
	// (<= 0 uses txn.DefaultFlushBytes).
	FlushBytes int64

	// MCSamples is the Monte-Carlo sample count used when exact
	// confidence computation exhausts its step budget. Default:
	// 20000 (standard error <= 0.35%).
	MCSamples int
	// MCSeed seeds the Monte-Carlo estimator. Default: 1.
	MCSeed int64

	// SlowQueryThreshold enables the slow-query log: queries at or
	// above it emit one structured JSON line (normalized SQL, outcome,
	// operator trace) to SlowLogWriter. While enabled, every query runs
	// with operator tracing so the log line can carry the trace tree —
	// a deliberate trade of a few percent of throughput for forensics.
	// Zero (the default) disables the log and the tracing.
	SlowQueryThreshold time.Duration
	// SlowLogWriter receives slow-query JSON lines. Nil disables the
	// log even when SlowQueryThreshold is set.
	SlowLogWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
		if c.MaxConcurrent < 4 {
			c.MaxConcurrent = 4
		}
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 1 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.SegCacheBytes <= 0 {
		c.SegCacheBytes = 256 << 20
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 512
	}
	if c.MCSamples <= 0 {
		c.MCSamples = 20000
	}
	if c.MCSeed == 0 {
		c.MCSeed = 1
	}
	return c
}

// Server executes sqlparse queries against registered catalogs. All
// methods are safe for concurrent use; query execution shares only
// read-only database state and the internally synchronized caches.
type Server struct {
	cfg      Config
	segCache *store.SegCache
	plans    *planCache
	sem      chan struct{}
	start    time.Time

	// stop is closed by Close so replication long-polls (/wal/stream)
	// return promptly instead of holding shutdown for their wait window.
	stop     chan struct{}
	stopOnce sync.Once

	mu  sync.RWMutex
	dbs map[string]*catalogEntry

	// reg is the server-scoped metrics registry; GET /metrics renders
	// it followed by obs.Default (the storage layer's process-global
	// registry). Per-server scoping keeps tests and embedded servers
	// from sharing counters.
	reg  *obs.Registry
	slow *obs.SlowLog

	queries     *obs.Counter // executed (admitted) queries
	rejected    *obs.Counter // 429s from admission control
	failed      *obs.Counter // queries that returned an error
	timeouts    *obs.Counter // 504s (deadline exceeded)
	truncated   *obs.Counter // results cut at the row cap
	writes      *obs.Counter // executed (admitted) DML statements
	writeFailed *obs.Counter // DML statements that returned an error
	active      atomic.Int64 // currently executing (exported as a gauge)

	queueWait *obs.Histogram            // admission-slot wait
	modeLat   map[string]*obs.Histogram // successful query latency by mode

	// Confidence-path counters: distinct answer tuples by what their
	// confidence cost (core.ConfPathStats).
	confBoundsTuples *obs.Counter // one-pass certain/possible bounds
	confReadOnce     *obs.Counter // exact, at most one expansion step per descriptor
	confEnum         *obs.Counter // exact, more steps
	confMC           *obs.Counter // Monte-Carlo estimate past the step budget

	// Certain-path counters: certain answer tuples by the path that
	// decided them (core.CertainPathStats).
	certainLabelled *obs.Counter // a row with an empty descriptor
	certainPipeline *obs.Counter // normalization + Lemma 4.3
}

type catalogEntry struct {
	dir   string // "" for in-memory registrations
	db    *core.UDB
	mut   *txn.DB              // non-nil when the catalog is writable
	rep   *cluster.Replica     // non-nil when the catalog follows a primary
	coord *cluster.Coordinator // non-nil for coordinator catalogs (no local data)
}

// snapshot returns the entry's current read view: the MVCC snapshot of
// the latest committed (or replicated) epoch for writable and follower
// catalogs, otherwise the immutable database itself. The view is never
// mutated by the query path and must not be Closed (the entry owns the
// files). Coordinator entries have no local view — callers route to
// the remote path before reading one.
func (e *catalogEntry) snapshot() *core.UDB {
	switch {
	case e.mut != nil:
		return e.mut.Snapshot()
	case e.rep != nil:
		return e.rep.Snapshot()
	default:
		return e.db
	}
}

// New builds a server and opens every configured catalog. On error the
// already-opened catalogs are closed.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		plans: newPlanCache(cfg.PlanCacheSize),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		dbs:   map[string]*catalogEntry{},
		start: time.Now(),
		stop:  make(chan struct{}),
	}
	if !cfg.DisableSegCache {
		s.segCache = store.NewSegCache(cfg.SegCacheBytes)
	}
	s.initMetrics()
	s.slow = obs.NewSlowLog(cfg.SlowLogWriter, cfg.SlowQueryThreshold,
		s.reg.Counter("urel_slow_queries_total", "Queries at or above the slow-query threshold."))
	if cfg.Writable && len(cfg.Follow) > 0 {
		s.Close()
		return nil, fmt.Errorf("server: Writable and Follow are mutually exclusive (a follower applies the primary's log; promote it by restarting writable, without Follow)")
	}
	for name := range cfg.Follow {
		if _, ok := cfg.Catalogs[name]; !ok {
			s.Close()
			return nil, fmt.Errorf("server: follower catalog %q needs a local directory in Catalogs", name)
		}
	}
	names := make([]string, 0, len(cfg.Catalogs))
	for name := range cfg.Catalogs {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic open order (and error)
	for _, name := range names {
		var err error
		if upstream, ok := cfg.Follow[name]; ok {
			err = s.OpenFollower(name, cfg.Catalogs[name], upstream)
		} else {
			err = s.OpenCatalog(name, cfg.Catalogs[name])
		}
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	cnames := make([]string, 0, len(cfg.Cluster))
	for name := range cfg.Cluster {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		if err := s.OpenCoordinator(name, cfg.Cluster[name]); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// initMetrics builds the server-scoped registry and registers every
// instrument the serving path records into. Registration order is
// render order on /metrics.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	s.queries = r.Counter("urel_queries_total", "Admitted /query requests.")
	s.failed = r.Counter("urel_query_failures_total", "Queries that returned an error.")
	s.timeouts = r.Counter("urel_query_timeouts_total", "Queries rejected with 504 (deadline exceeded).")
	s.rejected = r.Counter("urel_admission_rejected_total", "Requests rejected with 429 by admission control.")
	s.truncated = r.Counter("urel_results_truncated_total", "Results cut at the server row cap.")
	s.writes = r.Counter("urel_writes_total", "Admitted /exec DML statements.")
	s.writeFailed = r.Counter("urel_write_failures_total", "DML statements that returned an error.")
	confPaths := func(path string) *obs.Counter {
		return r.CounterWith("urel_conf_path_tuples_total",
			"Answer tuples by what their confidence cost: bounds, exact in linearly many steps, exact in more, sampled.",
			[]string{"path"}, path)
	}
	s.confBoundsTuples = confPaths("bounds")
	s.confReadOnce = confPaths("read_once")
	s.confEnum = confPaths("enumeration")
	s.confMC = confPaths("monte_carlo")
	certainPaths := func(path string) *obs.Counter {
		return r.CounterWith("urel_certain_tuples_total",
			"Certain answer tuples by the path that decided them: a row with an empty descriptor, or normalization + Lemma 4.3.",
			[]string{"path"}, path)
	}
	s.certainLabelled = certainPaths("labelled")
	s.certainPipeline = certainPaths("pipeline")
	s.queueWait = r.Histogram("urel_admission_wait_seconds", "Wait for an execution slot.", nil)
	s.modeLat = map[string]*obs.Histogram{}
	for _, mode := range []string{"plain", "possible", "certain", "conf", "conf-bounds"} {
		s.modeLat[mode] = r.HistogramWith("urel_query_seconds",
			"Successful query latency by uncertainty mode.", nil, []string{"mode"}, mode)
	}
	r.GaugeFunc("urel_active_queries", "Queries executing right now.",
		func() float64 { return float64(s.active.Load()) })
	r.GaugeFunc("urel_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	cache := func(name, help string, v func(store.CacheStats) float64) {
		r.GaugeFunc(name, help, func() float64 { return v(s.segCache.Stats()) })
	}
	cache("urel_seg_cache_hits", "Cumulative decoded-segment cache hits.",
		func(cs store.CacheStats) float64 { return float64(cs.Hits) })
	cache("urel_seg_cache_misses", "Cumulative decoded-segment cache misses.",
		func(cs store.CacheStats) float64 { return float64(cs.Misses) })
	cache("urel_seg_cache_bytes", "Decoded bytes resident in the segment cache.",
		func(cs store.CacheStats) float64 { return float64(cs.Bytes) })
	r.GaugeFunc("urel_plan_cache_hits", "Cumulative queries that ran a cached physical plan.",
		func() float64 { return float64(s.plans.stats().Hits) })
	r.GaugeFunc("urel_plan_cache_misses", "Cumulative queries that were planned afresh.",
		func() float64 { return float64(s.plans.stats().Misses) })
}

// registerCatalogMetrics exports a writable catalog's write-path state
// as scrape-time gauges labeled by catalog name. Read-only catalogs
// have no mutable state worth a time series.
func (s *Server) registerCatalogMetrics(name string, mut *txn.DB) {
	g := func(metric, help string, v func(txn.Stats) float64) {
		s.reg.GaugeFuncWith(metric, help, []string{"catalog"}, []string{name},
			func() float64 { return v(mut.Stats()) })
	}
	g("urel_mvcc_epoch", "Latest committed MVCC epoch.",
		func(ts txn.Stats) float64 { return float64(ts.Epoch) })
	g("urel_wal_bytes", "Bytes in the live write-ahead log.",
		func(ts txn.Stats) float64 { return float64(ts.WALBytes) })
	g("urel_memtable_bytes", "Bytes buffered in memtables.",
		func(ts txn.Stats) float64 { return float64(ts.MemBytes) })
	g("urel_memtable_rows", "Rows buffered in memtables.",
		func(ts txn.Stats) float64 { return float64(ts.MemRows) })
	g("urel_tombstones", "Live tombstones awaiting compaction.",
		func(ts txn.Stats) float64 { return float64(ts.Tombstones) })
	g("urel_flushes_total", "Memtable flushes since open.",
		func(ts txn.Stats) float64 { return float64(ts.Flushes) })
	g("urel_compactions_total", "Compactions since open.",
		func(ts txn.Stats) float64 { return float64(ts.Compactions) })
}

// OpenCatalog opens a saved database directory and registers it under
// name, with the server's shared segment cache attached. With
// Config.Writable the catalog opens through the transactional write
// path and accepts DML on /exec.
func (s *Server) OpenCatalog(name, dir string) error {
	if s.cfg.Writable {
		mut, err := txn.Open(dir, txn.Options{
			Cache:      s.segCache,
			FlushBytes: s.cfg.FlushBytes,
		})
		if err != nil {
			return fmt.Errorf("server: catalog %q: %w", name, err)
		}
		if err := s.register(name, &catalogEntry{dir: dir, mut: mut}); err != nil {
			mut.Close()
			return err
		}
		return nil
	}
	db, err := store.OpenCached(dir, s.segCache)
	if err != nil {
		return fmt.Errorf("server: catalog %q: %w", name, err)
	}
	if err := s.register(name, &catalogEntry{dir: dir, db: db}); err != nil {
		db.Close()
		return err
	}
	return nil
}

// OpenFollower opens dir as a WAL-shipping read replica of the catalog
// named name on the upstream node and registers it. An empty dir
// triggers a blocking initial sync (manifest, segment files, world
// table); a dir holding a previous follower session resumes from its
// local WAL position. The replica serves reads immediately and applies
// the primary's log in the background.
func (s *Server) OpenFollower(name, dir, upstream string) error {
	rep, err := cluster.OpenReplica(dir, upstream, name, cluster.ReplicaOptions{
		Cache:        s.segCache,
		Registry:     s.reg,
		Catalog:      name,
		PromoteAfter: s.cfg.PromoteAfter,
		OnPromote:    func() { s.promoteFollower(name) },
	})
	if err != nil {
		return fmt.Errorf("server: catalog %q: %w", name, err)
	}
	if err := s.register(name, &catalogEntry{dir: dir, rep: rep}); err != nil {
		rep.Close()
		return err
	}
	return nil
}

// promoteFollower finishes an automatic replica promotion: the replica
// has already fenced the old primary (epoch bump in the manifest) and
// released its WAL handle, so the directory opens through the
// transactional write path and the catalog entry is swapped for one
// that serves writes. The old entry's replica is kept on the new entry
// only for Close — reads and writes go through the promoted store.
// Entries are replaced, never mutated: handlers hold entry pointers
// across a request without the server lock.
func (s *Server) promoteFollower(name string) {
	s.mu.Lock()
	old, ok := s.dbs[name]
	s.mu.Unlock()
	if !ok || old.rep == nil || old.dir == "" {
		return
	}
	mut, err := txn.Open(old.dir, txn.Options{
		Cache:      s.segCache,
		FlushBytes: s.cfg.FlushBytes,
	})
	if err != nil {
		// The replica keeps serving reads; the operator sees the failed
		// promotion in /stats (lease expired, still read-only).
		return
	}
	s.mu.Lock()
	if cur := s.dbs[name]; cur == old { // lost a race → keep the winner
		s.dbs[name] = &catalogEntry{dir: old.dir, mut: mut, rep: old.rep}
		s.registerCatalogMetrics(name, mut)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	mut.Close()
}

// OpenCoordinator registers a coordinator catalog over spec: queries
// against name scatter-gather to the topology's shard nodes; no local
// data is opened. The urel_shard_* metric family lands in the server's
// registry.
func (s *Server) OpenCoordinator(name string, spec cluster.CatalogSpec) error {
	return s.OpenCoordinatorWith(name, spec, cluster.Options{})
}

// OpenCoordinatorWith is OpenCoordinator with explicit coordinator
// options (health-check tuning, a fault-injecting transport in chaos
// tests). The server's metrics registry always wins: coordinator
// metrics land on /metrics regardless of opts.Registry.
func (s *Server) OpenCoordinatorWith(name string, spec cluster.CatalogSpec, opts cluster.Options) error {
	opts.Registry = s.reg
	coord, err := cluster.NewCoordinator(name, spec, opts)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := s.register(name, &catalogEntry{coord: coord}); err != nil {
		coord.Close()
		return err
	}
	return nil
}

// ReloadTopology hot-swaps coordinator catalogs to new shard topologies
// without a restart (SIGHUP / POST /topology). Each named catalog must
// already be a coordinator; its replacement is built with the same
// options, asks every reachable shard node for its fencing epoch
// (RefreshFences) so writes to a freshly promoted primary carry the
// right epoch, and is swapped in atomically. In-flight queries drain on
// the old coordinator — Close only stops its health probes.
func (s *Server) ReloadTopology(specs map[string]cluster.CatalogSpec) error {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.mu.RLock()
		old, ok := s.dbs[name]
		s.mu.RUnlock()
		if !ok || old.coord == nil {
			return fmt.Errorf("server: catalog %q is not a coordinator (topology reload only re-points coordinator catalogs)", name)
		}
		coord, err := cluster.NewCoordinator(name, specs[name], old.coord.Opts())
		if err != nil {
			return fmt.Errorf("server: reload %q: %w", name, err)
		}
		coord.RefreshFences()
		s.mu.Lock()
		s.dbs[name] = &catalogEntry{coord: coord}
		s.mu.Unlock()
		old.coord.Close()
	}
	return nil
}

// AddDB registers an in-memory database under name (tests, embedders).
// The database must not be mutated while the server serves it: the
// query path relies on partitions being read-only.
func (s *Server) AddDB(name string, db *core.UDB) error {
	return s.register(name, &catalogEntry{db: db})
}

func (s *Server) register(name string, e *catalogEntry) error {
	if name == "" {
		return fmt.Errorf("server: catalog needs a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.dbs[name]; dup {
		return fmt.Errorf("server: catalog %q already registered", name)
	}
	s.dbs[name] = e
	if e.mut != nil {
		s.registerCatalogMetrics(name, e.mut)
	}
	return nil
}

// lookup resolves a request's catalog: the named one, or the only one
// when the request names none.
func (s *Server) lookup(name string) (*catalogEntry, string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.dbs) == 1 {
			for n, e := range s.dbs {
				return e, n, nil
			}
		}
		return nil, "", fmt.Errorf("server: %d catalogs registered, request must name one (\"db\")", len(s.dbs))
	}
	e, ok := s.dbs[name]
	if !ok {
		return nil, "", fmt.Errorf("server: unknown catalog %q", name)
	}
	return e, name, nil
}

// CatalogNames returns the registered catalog names, sorted.
func (s *Server) CatalogNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SegCacheStats snapshots the shared segment cache (zero stats when
// the cache is disabled).
func (s *Server) SegCacheStats() store.CacheStats { return s.segCache.Stats() }

// Close releases every catalog's storage backing. Writable catalogs
// close their write path (stopping the background flusher and
// syncing + closing the WAL — every acknowledged commit is already
// durable and replays on the next open).
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, e := range s.dbs {
		// A promoted follower holds both a write path and the replica it
		// grew from; close every component, not the first non-nil one.
		if e.mut != nil {
			keep(e.mut.Close())
		}
		if e.rep != nil {
			keep(e.rep.Close())
		}
		if e.db != nil {
			keep(e.db.Close())
		}
		if e.coord != nil {
			e.coord.Close()
		}
	}
	s.dbs = map[string]*catalogEntry{}
	return first
}
