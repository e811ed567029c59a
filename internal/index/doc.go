// Package index implements persistent secondary indexes over the
// columnar segment store: per-layer sorted runs (key → segment/row
// locators) plus per-segment bloom filters for equality keys.
//
// Paper map. The source paper's thesis (Antova, Jansen, Koch, Olteanu,
// "Fast and Simple Relational Processing of Uncertain Data", ICDE
// 2008) is that U-relations are *just relations* — ws-descriptor
// columns, tuple-id columns, and value columns side by side — so every
// piece of conventional relational machinery applies unchanged. This
// package cashes that claim in for indexing: because a vertical
// partition U[D; T; A] is an ordinary table, a secondary index over
// any value column is an ordinary secondary index, with no
// uncertainty-specific structure at all. Uncertainty stays where the
// representation puts it — in the descriptor columns the store scan
// carries along untouched — which is why an index hit composes with
// tombstone layers, the memtable, and confidence computation for free.
// The runs serve equality filters, as the store scan's probe: they
// decide which rows the one operator for stored rows reads, and the
// filter above it stays. They serve no join: a join is a hash join that hands
// its probe scan its build keys' range, and, as Magnani & Montesi's
// "Joining relations under discrete uncertainty" keeps a join strategy
// only where it measurably wins, an index-nested-loop join won no region
// any workload reaches (docs/ARCHITECTURE.md, "Join strategies").
//
// A Run holds its sorted keys as one typed engine.ColVec: an int vector
// for int columns, which Unmarshal decodes straight
// into and an int probe binary-searches directly, a generic vector for
// any other keys, compared through engine.Compare. Unmarshal bounds
// every count by the bytes left before allocating for it, so a corrupt
// run is ErrCorruptRun, never an out-of-memory crash.
//
// A Run is immutable, built beside a segment file at flush,
// compaction, save, or CREATE INDEX time, and recorded implicitly in
// the v2 manifest: a layer file F with an index on stored column i owns
// the artifact F.a<i>.idx, which crash recovery treats like any other
// unreferenced file (orphans are removed on open, missing or corrupt
// runs make a probe read that layer whole — never a wrong answer).
package index
