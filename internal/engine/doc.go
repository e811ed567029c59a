// Package engine implements a small but complete in-memory relational
// database engine: typed values, schemas, relations, an expression
// language, batch-at-a-time physical operators that move column
// batches from the scans through the hash joins, logical plans, a rule-
// and cost-based optimizer with table statistics, and an EXPLAIN
// facility.
//
// The engine plays the role PostgreSQL plays in the U-relations paper
// (Antova, Jansen, Koch, Olteanu: "Fast and Simple Relational Processing
// of Uncertain Data", ICDE 2008): a plain relational substrate on which
// translated queries over U-relations are evaluated and optimized using
// only standard relational techniques. The paper's thesis is that
// uncertain-data processing reduces to ordinary relational processing —
// so making this substrate fast makes the whole system fast.
//
// # Execution model
//
// Rows move between physical operators one way: Iterator.NextBatch,
// which hands the parent up to DefaultBatchSize tuples per call (Open
// and Close bracket the stream; Drain, the server's row-capped loop and
// every row operator pull it). The batch slice is borrowed read-only
// until the next call; tuples are immutable and may be kept. Operators
// that hold their whole output (scans, sort, aggregation) serve it with
// Window; 1:N row joins keep a cursor and resume mid-row.
//
// Beneath that, rows travel as struct-of-arrays column batches
// (ColBatch: typed per-column vectors, null markers, and a selection
// vector) wherever an operator can take them: the storage layer's
// segment scan and the scan of an in-memory partition image produce
// them (ColBatchIterator), filters run vectorized kernels that only
// shrink the selection vector, projections re-slice column headers, and
// the hash joins take their inputs and give their output as column
// batches — each looks for the capability on its input once, at Open
// (NativeColumnar). A hash join drains its build side into a joinTable
// that keeps the batches' payload vectors and refers to build rows as
// (batch, row), hands its probe input the range of the build keys when
// the key is one int column (KeyRangeNarrower: a store scan then skips
// the segments that range misses and serves a tid range as a window of
// the segment it reads; the semi join does the same, the anti join
// never), looks every probe row up from its key vectors
// (narrowProbe), evaluates the residual on the two sides' cells in
// place (pairPred; ψ compares ints), and gathers its output column by
// column through the projection Optimize folded into it (JoinPlan.Out);
// a row input is transposed once. Tuples are made once, by the first
// row operator above — a Distinct, a sort, an aggregation, a semi join,
// the Drain at the sink — through ColBatch.Materialize, and counted as
// rows_materialized. Optimize orders every tree of inner joins from its
// smallest estimated input outward, so a hash join builds on its
// smaller side and a relation's partitions are merged starting at the
// one the selection cut. Every operator runs on its caller's goroutine:
// a query is one serial pipeline, and concurrency comes from serving
// many queries at once. There are two join strategies, chosen from the
// join's schemas alone (chooseJoin): the hash join for every join with
// an equi pair, and the nested loop for joins without one, which the
// property tests also force as the hash join's cross-check. An indexed
// storage leaf serves equality filters (IndexScanPlan), never a join.
// EXPLAIN and the est= of every EXPLAIN ANALYZE span read one estimator
// — the optimizer's (stats.go) — so est-drift is a statement about the
// numbers the plan was actually chosen on; an untraced Build reads none.
//
// Paper-section map: plan.go/optimizer.go — the "standard techniques
// employed in off-the-shelf relational DBMS" (Sections 3 and 6) that
// evaluate translated plans, including the Figure 13 Merge Cond / Join
// Filter split (ExtractEquiJoin); stats.go — the selectivity-based cost
// measures of a System-R-style optimizer; explain.go — the Figure 10/13
// plan views, annotated with each operator's execution mode (columnar
// vs row); join.go, hashtable.go, iter.go, colbatch.go, vecfilter.go —
// the physical operator layer, whose raw speed is what the paper's
// "fast" rests on (Section 6's evaluation reduces uncertain-query
// processing to exactly these plain relational operators).
package engine
