// Package urel is a pure-Go implementation of U-relations, the
// representation system for uncertain databases introduced by Antova,
// Jansen, Koch and Olteanu in "Fast and Simple Relational Processing of
// Uncertain Data" (ICDE 2008) and used by the MayBMS system.
//
// A U-relational database represents a finite set of possible worlds:
// world-set variables range over finite domains, a possible world is a
// total assignment of the variables, and tuples are annotated with
// ws-descriptors — partial assignments selecting the worlds the tuple
// belongs to. Uncertainty lives at the attribute level through vertical
// partitioning, and positive relational algebra queries (plus the
// `poss` operator) evaluate purely relationally on the representation.
//
// Quick start:
//
//	db := urel.New()
//	db.MustAddRelation("r", "id", "type")
//	x := db.W.NewBoolVar("x")
//	u := db.MustAddPartition("r", "u_r_type", "type")
//	u.Add(urel.D(urel.A(x, 1)), 1, urel.Str("Tank"))
//	u.Add(urel.D(urel.A(x, 2)), 1, urel.Str("Transport"))
//	...
//	q := urel.Poss(urel.Select(urel.Rel("r"),
//	        urel.Eq(urel.Col("type"), urel.Const(urel.Str("Tank")))))
//	rel, err := db.EvalPoss(q, urel.Config{})
//
// A query runs as one serial relational plan; a server gets its
// concurrency from serving many queries at once.
//
// The package re-exports the core types and constructors; the full
// machinery (relational engine, world-sets, normalization, baselines,
// TPC-H generator, experiment harness) lives under internal/.
package urel

import (
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/server"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/txn"
	"urel/internal/ws"
)

// Core representation types.
type (
	// DB is a U-relational database: a world table plus vertically
	// partitioned U-relations.
	DB = core.UDB
	// URelation is one vertical partition U[D; T; B].
	URelation = core.URelation
	// URow is one partition tuple: descriptor, tuple id, values.
	URow = core.URow
	// Result is a query result in U-relational form.
	Result = core.UResult
	// ResultRow is one decoded result tuple.
	ResultRow = core.UResultRow
	// NormalizedResult is a tuple-level normalized result (input to
	// certain-answer computation).
	NormalizedResult = core.NormalizedResult
	// TupleConfidence pairs an answer tuple with its probability.
	TupleConfidence = core.TupleConfidence
	// TupleBounds pairs an answer tuple with lower/upper confidence
	// bounds ([certain, possible]) from Result.ConfidenceBounds.
	TupleBounds = core.TupleBounds
	// ConfOptions configures Result.ConfidencesDispatch: Monte-Carlo
	// sample count and seed for lineage past the exact step budget, and
	// an optional deadline (exceeding it returns core.ErrConfDeadline).
	ConfOptions = core.ConfOptions
	// ConfPathStats counts answer tuples by what their confidence cost
	// (exact in linearly many steps / exact in more / sampled).
	ConfPathStats = core.ConfPathStats
)

// World-set types.
type (
	// WorldTable is the relational world table W(Var, Rng[, P]).
	WorldTable = ws.WorldTable
	// Var identifies a world-set variable.
	Var = ws.Var
	// Val is a domain value of a variable.
	Val = ws.Val
	// Assignment is a variable-to-value pair.
	Assignment = ws.Assignment
	// Descriptor is a ws-descriptor (a consistent set of assignments).
	Descriptor = ws.Descriptor
	// Valuation is a (total) variable assignment choosing a world.
	Valuation = ws.Valuation
)

// Engine-level types at the API boundary.
type (
	// Value is a dynamically typed scalar.
	Value = engine.Value
	// Tuple is a row of values.
	Tuple = engine.Tuple
	// Relation is a materialized table (e.g. the possible answers).
	Relation = engine.Relation
	// Expr is a scalar expression usable in selections and joins.
	Expr = engine.Expr
	// Config controls execution (optimizer, physical join choice).
	Config = engine.ExecConfig
	// Query is a positive relational algebra query with poss.
	Query = core.Query
)

// New creates an empty U-relational database with a fresh world table.
func New() *DB { return core.NewUDB() }

// Save snapshots the entire database — world table, schemas, and all
// U-relations — into dir as a columnar segment store (one binary file
// per vertical partition plus a catalog manifest). The database is not
// modified.
func Save(db *DB, dir string) error { return store.Save(db, dir) }

// ShardedSave splits the database across len(dirs) store directories
// for scale-out serving: the named relations hash-partition by tuple
// id, everything else (world table included) replicates to every
// shard. Each directory is a complete, independently openable store —
// point urserved at one per node and front them with
// `urserved -coordinator` (see docs/OPERATIONS.md).
func ShardedSave(db *DB, dirs []string, sharded []string) error {
	return store.ShardedSave(db, dirs, sharded)
}

// Open reopens a database saved with Save. Partitions stay on disk and
// are scanned lazily, segment by segment, when queried; segment min/max
// statistics prune cold scans under simple predicates. If the
// directory has been written to (OpenRW), the write-ahead log's
// commits are replayed read-only, so every acknowledged update is
// visible. Call db.Close() to release the segment files, or
// db.Materialize() to load everything into memory and detach from the
// directory.
func Open(dir string) (*DB, error) { return store.Open(dir) }

// RWDB is a mutable U-relational database opened with OpenRW: DML
// statements commit through a write-ahead log (fsynced, crash-safe),
// reads serve MVCC snapshots via Snapshot(), a background flusher
// spills deltas to columnar segment files, and Compact folds deletes
// into rewritten bases. Close it to release the directory.
type RWDB = txn.DB

// RWOptions configures OpenRW (segment cache, flush threshold,
// tombstone compaction threshold, background maintenance).
type RWOptions = txn.Options

// ExecResult reports what one DML statement did.
type ExecResult = txn.Result

// OpenRW opens a saved database directory for reading and writing:
//
//	rw, err := urel.OpenRW(dir)
//	res, err := rw.Exec("insert into sensor values (2, 19.5)")
//	rel, err := rw.Snapshot().EvalPoss(q, urel.Config{})
//	err = rw.Close()
//
// Updates execute, per the paper's "U-relations are just relations"
// principle, as ordinary relational plans over the representation:
// INSERT appends rows (certain for VALUES, descriptor-preserving for
// INSERT ... SELECT), DELETE tombstones the representation rows of
// matching tuples, UPDATE is delete plus reinsertion with the assigned
// attributes replaced. One process may hold a directory open
// read-write at a time.
func OpenRW(dir string, opts ...RWOptions) (*RWDB, error) {
	var o RWOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return txn.Open(dir, o)
}

// CreateIndex declares a persistent secondary index on one attribute
// of a relation in a writable store — the facade form of the
// `CREATE INDEX ON rel(col)` statement. Sorted runs (with per-segment
// bloom filters) are built beside every existing file layer and
// maintained beside each future flushed or compacted layer; a store
// scan under an equality filter on the column then reads only the rows
// the runs locate. Missing or stale runs only make it read more, never
// change answers.
func CreateIndex(rw *RWDB, table, col string) error {
	_, err := rw.ExecStmt(&sqlparse.CreateIndexStmt{Table: table, Col: col})
	return err
}

// Exec applies one DML statement to an in-memory database in place
// (the same statement dialect and semantics as RWDB.Exec, without the
// durability machinery). The database must be materialized.
func Exec(db *DB, sql string) (*ExecResult, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	return txn.Apply(db, st)
}

// SegCache is a shared, size-bounded LRU cache of decoded segments;
// one cache may back any number of databases opened with OpenCached,
// so concurrent queries decode each cold segment once. Safe for
// concurrent use.
type SegCache = store.SegCache

// NewSegCache creates a segment cache bounded to roughly capBytes of
// decoded memory.
func NewSegCache(capBytes int64) *SegCache { return store.NewSegCache(capBytes) }

// OpenCached is Open with a shared decoded-segment cache attached to
// every partition of the reopened database.
func OpenCached(dir string, cache *SegCache) (*DB, error) { return store.OpenCached(dir, cache) }

// ServeConfig configures the HTTP/JSON query server: catalogs to
// open, admission control (concurrent-query slots, queue wait),
// per-query row/time limits, and the segment/plan cache budgets. The
// zero value serves with the documented defaults.
type ServeConfig = server.Config

// QueryServer is a running server instance; mount Handler in any mux
// (or use Serve), register extra in-memory databases with AddDB, and
// inspect cache effectiveness with SegCacheStats.
type QueryServer = server.Server

// NewServer opens every configured catalog and returns a server ready
// to mount. Callers own Close.
func NewServer(cfg ServeConfig) (*QueryServer, error) { return server.New(cfg) }

// Serve opens the configured catalogs and serves the query API on
// addr, blocking until the listener fails:
//
//	err := urel.Serve(":8080", urel.ServeConfig{
//	        Catalogs: map[string]string{"tpch": "/snap/s0.1_x0.01_z0.25"},
//	})
func Serve(addr string, cfg ServeConfig) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	return server.ListenAndServe(addr, s)
}

// D builds a ws-descriptor from assignments, panicking on
// contradictions (use ws.NewDescriptor for the error-returning form).
func D(assigns ...Assignment) Descriptor { return ws.MustDescriptor(assigns...) }

// A builds a single assignment.
func A(x Var, v Val) Assignment { return ws.A(x, v) }

// Value constructors.

// Int builds an integer value.
func Int(i int64) Value { return engine.Int(i) }

// Float builds a floating-point value.
func Float(f float64) Value { return engine.Float(f) }

// Str builds a string value.
func Str(s string) Value { return engine.Str(s) }

// Bool builds a boolean value.
func Bool(b bool) Value { return engine.Bool(b) }

// Null builds the NULL value.
func Null() Value { return engine.Null() }

// Date parses "YYYY-MM-DD" into a day-number value, panicking on
// malformed input.
func Date(s string) Value { return engine.MustDate(s) }

// Query constructors (the positive relational algebra of the paper's
// Section 3, plus poss).

// Rel references a logical relation.
func Rel(name string) Query { return core.Rel(name) }

// RelAs references a logical relation under an alias (self-joins must
// alias at least one side).
func RelAs(name, as string) Query { return core.RelAs(name, as) }

// Select builds a selection σ_cond(q).
func Select(q Query, cond Expr) Query { return core.Select(q, cond) }

// Project builds a projection π_attrs(q).
func Project(q Query, attrs ...string) Query { return core.Project(q, attrs...) }

// Join builds a join q1 ⋈_cond q2 (cond nil = cross product).
func Join(l, r Query, cond Expr) Query { return core.Join(l, r, cond) }

// Union builds a union of two schema-compatible queries.
func Union(l, r Query) Query { return core.UnionOf(l, r) }

// Poss closes the possible-worlds semantics: the set of tuples possible
// in q across all worlds.
func Poss(q Query) Query { return core.Poss(q) }

// Expression constructors.

// Col references an attribute by (possibly qualified) name.
func Col(name string) Expr { return engine.Col(name) }

// Const builds a literal.
func Const(v Value) Expr { return engine.Const(v) }

// Eq builds l = r.
func Eq(l, r Expr) Expr { return engine.Eq(l, r) }

// Ne builds l <> r.
func Ne(l, r Expr) Expr { return engine.Cmp(engine.NE, l, r) }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return engine.Cmp(engine.LT, l, r) }

// Le builds l <= r.
func Le(l, r Expr) Expr { return engine.Cmp(engine.LE, l, r) }

// Gt builds l > r.
func Gt(l, r Expr) Expr { return engine.Cmp(engine.GT, l, r) }

// Ge builds l >= r.
func Ge(l, r Expr) Expr { return engine.Cmp(engine.GE, l, r) }

// And conjoins expressions.
func And(args ...Expr) Expr { return engine.And(args...) }

// Or disjoins expressions.
func Or(args ...Expr) Expr { return engine.Or(args...) }

// Not negates an expression.
func Not(a Expr) Expr { return engine.Not(a) }
