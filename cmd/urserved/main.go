// Command urserved serves U-relational databases over HTTP/JSON: the
// sqlparse dialect ([POSSIBLE|CERTAIN|CONF] SELECT ...) against one or
// more catalogs saved with urel.Save / urgen -save, with a shared
// decoded-segment cache, a plan cache, and admission control. With
// -rw the catalogs open through the transactional write path: DML
// statements (INSERT/DELETE/UPDATE) execute on POST /exec, reads serve
// MVCC snapshots, and commits are WAL-durable.
//
// A node can also take cluster roles: -coordinator serves a sharded
// catalog by scatter-gathering over the shard nodes of a topology file
// (internal/cluster.Spec), and -follow opens a catalog as a WAL-shipping
// read replica of a -rw primary (see docs/OPERATIONS.md).
//
// Usage:
//
//	urserved -addr :8080 -db /path/to/saved/db
//	urserved -db tpch=/data/tpch -db vehicles=/data/vehicles
//	urserved -db /data/db -max-concurrent 16 -row-limit 1000000 -timeout 30s
//	urserved -db /data/db -rw
//	urserved -coordinator topology.json
//	urserved -db bench=/data/replica -follow bench=http://primary:8080
//
// Endpoints:
//
//	POST /query     {"sql": "...", "db": "...", "limit": n, "timeout_ms": n}
//	POST /exec      {"sql": "...", "db": "..."} (DML; requires -rw)
//	GET  /catalogs  registered catalogs
//	GET  /stats     query counters, cache statistics, write-path epochs
//	GET  /metrics   Prometheus text exposition of the same state
//	GET  /healthz   liveness
//
// On SIGTERM or SIGINT the server shuts down gracefully: the listener
// stops, in-flight queries drain (up to -drain-timeout), the write
// path flushes and closes its WAL, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"urel/internal/cluster"
	"urel/internal/server"
)

// dbFlags collects repeated -db name=dir (or bare dir) mappings.
type dbFlags map[string]string

func (d dbFlags) String() string { return fmt.Sprintf("%v", map[string]string(d)) }

func (d dbFlags) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok {
		dir = v
		name = filepath.Base(filepath.Clean(v))
	}
	if name == "" || dir == "" {
		return fmt.Errorf("want name=dir or dir, got %q", v)
	}
	if _, dup := d[name]; dup {
		return fmt.Errorf("catalog %q named twice", name)
	}
	d[name] = dir
	return nil
}

// followFlags collects repeated -follow name=primary-url mappings.
type followFlags map[string]string

func (f followFlags) String() string { return fmt.Sprintf("%v", map[string]string(f)) }

func (f followFlags) Set(v string) error {
	name, upstream, ok := strings.Cut(v, "=")
	if !ok || name == "" || upstream == "" {
		return fmt.Errorf("want name=primary-url, got %q", v)
	}
	if _, dup := f[name]; dup {
		return fmt.Errorf("catalog %q followed twice", name)
	}
	f[name] = upstream
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with injectable arguments and streams, so the graceful
// shutdown path is testable with a real signal against a real process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("urserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	catalogs := dbFlags{}
	fs.Var(catalogs, "db", "catalog to serve, as name=dir or dir (repeatable)")
	follows := followFlags{}
	fs.Var(follows, "follow", "serve a catalog as a read replica, as name=primary-url; needs a local -db name=dir (repeatable)")
	coordSpec := fs.String("coordinator", "", "serve sharded catalogs by scatter-gather over this topology file")
	addr := fs.String("addr", ":8080", "listen address")
	rw := fs.Bool("rw", false, "open catalogs read-write: accept DML on POST /exec (WAL-durable commits)")
	maxConc := fs.Int("max-concurrent", 0, "queries executing at once (0 = 2×GOMAXPROCS)")
	queueWait := fs.Duration("queue-wait", time.Second, "max wait for an execution slot before 429")
	rowLimit := fs.Int("row-limit", 0, "per-query materialized row cap (0 = default 1<<20)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-query deadline")
	drain := fs.Duration("drain-timeout", 15*time.Second, "max wait for in-flight queries on shutdown")
	cacheMB := fs.Int64("cache-mb", 256, "shared decoded-segment cache budget in MiB (0 disables)")
	planCache := fs.Int("plan-cache", 0, "statement cache entries: parse and, per catalog, plan (0 = default 512)")
	mcSamples := fs.Int("mc-samples", 0, "Monte-Carlo samples for CONF fallback (0 = default 20000)")
	flushKB := fs.Int64("flush-kb", 0, "write-path auto-flush threshold in KiB (0 = default 4096)")
	slowMS := fs.Int64("slow-query-ms", 0, "log queries at or above this many milliseconds as JSON lines on stderr (0 disables; enables operator tracing)")
	promoteAfter := fs.Duration("promote-after", 0, "follower catalogs: self-promote to writable primary after this long without primary contact (0 disables auto-promotion)")
	pprofOn := fs.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if len(catalogs) == 0 && *coordSpec == "" {
		fmt.Fprintln(stderr, "urserved: at least one -db (or a -coordinator topology) is required")
		fs.Usage()
		return 2
	}
	var clusterCfg map[string]cluster.CatalogSpec
	if *coordSpec != "" {
		spec, err := cluster.LoadSpec(*coordSpec)
		if err != nil {
			fmt.Fprintln(stderr, "urserved:", err)
			return 1
		}
		clusterCfg = spec.Catalogs
	}
	cfg := server.Config{
		Catalogs:        catalogs,
		Cluster:         clusterCfg,
		Follow:          follows,
		MaxConcurrent:   *maxConc,
		QueueWait:       *queueWait,
		MaxRows:         *rowLimit,
		Timeout:         *timeout,
		SegCacheBytes:   *cacheMB << 20,
		DisableSegCache: *cacheMB == 0,
		PlanCacheSize:   *planCache,
		MCSamples:       *mcSamples,
		Writable:        *rw,
		FlushBytes:      *flushKB << 10,
		PromoteAfter:    *promoteAfter,
	}
	if *slowMS > 0 {
		cfg.SlowQueryThreshold = time.Duration(*slowMS) * time.Millisecond
		cfg.SlowLogWriter = stderr
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "urserved:", err)
		return 1
	}
	for _, name := range s.CatalogNames() {
		switch {
		case clusterCfg[name].Shards != nil:
			fmt.Fprintf(stdout, "serving catalog %q as coordinator over %d shards\n",
				name, len(clusterCfg[name].Shards))
		case follows[name] != "":
			fmt.Fprintf(stdout, "serving catalog %q from %s (replica of %s)\n",
				name, catalogs[name], follows[name])
		default:
			mode := "read-only"
			if *rw {
				mode = "read-write"
			}
			fmt.Fprintf(stdout, "serving catalog %q from %s (%s)\n", name, catalogs[name], mode)
		}
	}

	handler := s.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	fmt.Fprintf(stdout, "urserved listening on %s\n", *addr)

	// Graceful shutdown: on SIGTERM/SIGINT stop accepting connections,
	// drain in-flight queries, then flush and close the write path
	// (WAL sync + file handles) before exiting 0. SIGHUP re-reads the
	// -coordinator topology file and hot-swaps the coordinators (the
	// file-based twin of POST /topology).
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	hupCh := make(chan os.Signal, 1)
	if *coordSpec != "" {
		signal.Notify(hupCh, syscall.SIGHUP)
		defer signal.Stop(hupCh)
	}

	for {
		select {
		case err := <-serveErr:
			s.Close()
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(stderr, "urserved:", err)
				return 1
			}
			return 0
		case <-hupCh:
			spec, err := cluster.LoadSpec(*coordSpec)
			if err != nil {
				fmt.Fprintln(stderr, "urserved: topology reload:", err)
				continue
			}
			if err := s.ReloadTopology(spec.Catalogs); err != nil {
				fmt.Fprintln(stderr, "urserved: topology reload:", err)
				continue
			}
			fmt.Fprintf(stdout, "urserved: topology reloaded from %s\n", *coordSpec)
		case sig := <-sigCh:
			fmt.Fprintf(stdout, "urserved: caught %v, shutting down\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			err := hs.Shutdown(ctx) // stop listening, drain in-flight requests
			cancel()
			if err != nil {
				fmt.Fprintln(stderr, "urserved: drain:", err)
			}
			if cerr := s.Close(); cerr != nil { // flush + close WAL and segment files
				fmt.Fprintln(stderr, "urserved: close:", cerr)
				return 1
			}
			fmt.Fprintln(stdout, "urserved: drained and closed, bye")
			return 0
		}
	}
}
