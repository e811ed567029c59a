// Package engine implements a small but complete in-memory relational
// database engine: typed values, schemas, relations, an expression
// language, batch-at-a-time physical operators that hand each other
// column batches, logical plans, a rule- and cost-based optimizer with
// table statistics, and an EXPLAIN facility. Its algebra is exactly what
// the U-relation translation emits: scan, values, filter, project,
// rename, extend, stitch, hash and semi join, union, difference and
// distinct.
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
// Rows move between physical operators one way: Iterator.Next, which
// hands the parent a column batch (ColBatch: typed per-column vectors,
// null markers, and a selection vector) — Open and Close bracket the
// stream. A batch's header, column headers and selection are borrowed
// until the next call; its payload vectors are immutable and may be
// kept. The storage layer's segment scan and the scan of an in-memory
// partition image hand their vectors over as they are; filters run
// vectorized kernels that only shrink the selection vector; projections
// re-slice column headers and renames relabel them; a union passes its
// inputs' batches through; an extend appends an input's vector or a
// constant one; the semi join, the duplicate elimination and the set
// difference hand over a selection over their input batch, keyed from
// its vectors. The stitch
// (StitchPlan, StitchIter) is the merge of one relation's vertical
// partitions — Figure 13's merge join on the tuple id, ψ its join
// filter: its inputs hold their rows in tuple-id order. It streams the
// input it drives by and asks the others — keyed, filtered, unfiltered —
// for the rows of the driver's tuple ids (RowLookup: the scan of an
// in-memory image or of a stored partition, and the filters and
// projections over it), which each finds by galloping forward over its
// tuple ids; it combines a tuple id's rows where ψ holds and gathers
// each output column once, from the input that owns it. A hash
// join — every join of two relations — drains its build side into a
// joinTable that keeps the batches' payload vectors and refers to build
// rows as (batch, row), looks every probe row up from its key vectors
// (narrowProbe), and gathers its output column by column through the
// projection Optimize folded into it (JoinPlan.Out). The stitch, the
// hash join and the semi join resolve their output and bind their
// condition one way (joinShape) and evaluate it one way (joinCond): on
// the inputs' cells in place, ψ compared on ints, each conjunct checked
// once the last input it reads has its row. A join without an equi pair
// is the hash join on the empty key: one chain holds every build row,
// and the whole condition is checked per pair. A catalog relation's scan
// lays its rows out as one column batch at Open and serves it as the
// scan of an in-memory image does. Tuples are made at one sink,
// DrainLimited — the server's answers and the certain-answer query
// drain through it under a row cap and a deadline, Drain under neither
// — and only it calls ColBatch.Materialize.
//
// Keys flow down the plan (KeyNarrower), after Open and before the
// first pull: a range, or a sorted list of distinct keys within it.
// Two operators originate them: the hash join hands its probe input
// the list of its build keys and the semi join its left input, once
// their build side is drained and when the key is one int column (its
// span reports keys_handed). Operators whose output column is an
// input's column forward keys on it: a filter to its input, a
// projection to the column it picks, a rename and a semi join to their
// input, a trace wrapper to the operator it wraps (counting a list as
// keys_in), and a stitch keys on a tid column to its driver and any
// other to the input that owns the column; a scan honours its keys on
// the rows it finds by lookup as on the rows it serves. A hash join
// forwards none (keys are a hint), so a join on another join's probe
// side reads its inputs whole. Keys end at a leaf: the store scan skips
// the segments whose bounds hold none and serves a tid range as a
// window of the segment it reads; the scan of an in-memory partition
// image, in tid order, serves one as the window binary search finds;
// both drop the rows whose int key a list leaves out, reporting them as
// rows_skipped_by_join — but an image scan handed a list on a column
// with a value-order run (ValuesPlan.Runs) finds the list's rows in it
// instead (rows_found_by_keys), and a stitch drives from such a scan
// when it finds fewer rows than the planned driver is estimated to
// serve (driven_by_keys). So a stitch under a join reads and gathers
// only the rows that can join.
//
// A plan node is immutable once built: a rewrite builds a new node and
// never writes to one, so what a node derives from its inputs — its
// schema, and for a join or a stitch the row its inputs concatenate to
// and where in it each output column is read — it derives once, on the
// first ask, and keeps (Plan.Schema). Estimates are positional:
// PlanStats.NDV and TableStats.Cols follow the node's schema.
//
// Optimize orders every tree of inner joins by greedy operator ordering,
// into trees that may be bushy, and a hash join builds on its smaller
// side; a relation is one input of such a tree, its stitch driven by
// the partition estimated smallest — the one the selection cut — and
// estimated as the tree of binary tid joins it replaces. Every operator runs on its
// caller's goroutine: a query is one serial pipeline, and concurrency
// comes from serving many queries at once. There is one operator for a
// join of two relations, the hash join, keyed on the equi pairs Build
// splits from its condition (ExtractEquiJoin) over the inputs' schemas
// alone. An index is the storage leaf's business: advised of the filter
// above it (FilterAdvisor), a store scan probes its runs for an
// equality, and the filter stays; no plan node or operator of this
// package knows of indexes. EXPLAIN and the
// est= of every EXPLAIN ANALYZE span read one estimator — the
// optimizer's (stats.go) — so est-drift is a statement about the numbers
// the plan was actually chosen on; an untraced Build reads none.
//
// Paper-section map: plan.go/optimizer.go — the "standard techniques
// employed in off-the-shelf relational DBMS" (Sections 3 and 6) that
// evaluate translated plans, including the Figure 13 Merge Cond / Join
// Filter split (ExtractEquiJoin); stats.go — the selectivity-based cost
// measures of a System-R-style optimizer; explain.go — the Figure 10/13
// plan views, each node with its estimated rows; stitch.go — Figure 4's
// merge, planned as
// Figure 13's merge join on the tuple id; join.go, hashtable.go,
// iter.go, colbatch.go, vecfilter.go —
// the physical operator layer, whose raw speed is what the paper's
// "fast" rests on (Section 6's evaluation reduces uncertain-query
// processing to exactly these plain relational operators).
package engine
