// Package txn is the write path of the store: it turns the read-only
// columnar snapshots of internal/store into mutable U-relational
// databases with durable, crash-safe DML and MVCC snapshot reads.
//
// The design carries the paper's central claim — U-relations are just
// relations, so queries evaluate purely relationally on the
// representation (Antova, Jansen, Koch, Olteanu, "Fast and Simple
// Relational Processing of Uncertain Data", ICDE 2008, Section 3) —
// over to updates:
//
//   - INSERT ... VALUES appends certain tuples: representation rows
//     with the empty ws-descriptor (present in every world, Section 2)
//     scattered across the relation's vertical partitions under fresh
//     tuple ids.
//   - INSERT ... SELECT evaluates the source query (possible answers
//     with Translate, the other modes with the tuple-level TranslateFull)
//     and inserts its rows with descriptors preserved — uncertain data
//     moves between relations without leaving the representation.
//   - DELETE FROM R WHERE φ runs σ_φ over the merged representation
//     of R (the merge operator of Figure 4: partitions joined on
//     tuple id, ψ discarding inconsistent descriptor combinations)
//     and tombstones every contributing partition row (D_p, t). It is
//     itself just a relational query whose answer is a set of delta
//     rows. The match merges every partition (TranslateFull), since a
//     tombstone needs each partition's descriptor.
//   - UPDATE is delete plus reinsertion of the matched rows with the
//     assigned attributes replaced, same descriptors and tuple ids —
//     the relational view of attribute-level uncertain update.
//
// A statement keeps its relation's existence-complete bit, which lets
// queries read only the partitions they need, only where the bit
// provably still holds: INSERT always, DELETE and UPDATE when every
// matched row's merged descriptor is empty. Otherwise the statement's
// own WAL record carries an op that clears the bit, so the clear takes
// effect at commit, on replay and on replicas alike; flush and
// compaction write the cleared bit into the manifest, and nothing sets
// it again.
//
// Durability and atomicity follow the classic WAL recipe:
//
//   - Every commit is one length-prefixed, CRC32-framed record,
//     fsynced before the statement returns; replay on Open discards a
//     torn tail and restores everything acknowledged.
//   - Commits apply to per-partition memtables (inserted rows plus
//     layer-scoped tombstone batches) and publish a fresh immutable
//     snapshot; readers pin an epoch and never see a partial commit.
//   - A background flusher spills memtables into delta segment files;
//     a compactor folds tombstones into rewritten bases, rewriting only
//     the partitions written to since the last compaction. Both commit
//     their transition by atomically renaming the manifest (the PR 2
//     crash-safety rule: the manifest is written last) and rotate the
//     WAL so it only ever describes state the segment files lack.
//
// The uncertainty-aware write path is what makes maintaining certain
// and possible answers under updates cheap, in the spirit of
// Uncertainty Annotated Databases (Feng, Huber, Glavic, Kennedy,
// SIGMOD 2019) and of conditioning U-relational databases (Koch,
// Olteanu, "Conditioning probabilistic databases", VLDB 2008): because
// updates stay inside the representation, every read mode (plain,
// possible, certain, conf) keeps working unchanged on a database that
// is being written to.
package txn
