// Package cluster is the distribution layer over U-relational serving:
// hash-sharded catalogs, a scatter-gather coordinator, and WAL-shipping
// read replicas.
//
// The paper's central design — uncertain data represented as plain
// relations, queried by plain relational plans (Section 3) — is what
// makes sharding trivial here: a U-relation row carries its entire
// ws-descriptor with it, so hash-partitioning the rows of a relation by
// tuple id (store.ShardedSave) partitions the *representation* without
// severing any lineage. The world table W is small (it grows with
// uncertainty, not with data) and is replicated to every shard, as are
// dimension-style relations, so each shard is a complete, independently
// openable U-relational database over a slice of the facts.
//
// Merge semantics per query mode (Coordinator):
//
//   - possible: each shard computes its possible tuples (Section 3's
//     poss closes the world semantics per shard); the global answer is
//     the deduplicated union, because the sharded relation is a
//     disjoint union of the shard slices and positive relational
//     algebra distributes over union in one argument.
//   - plain (representation) answers concatenate: the result's repr
//     rows are themselves hash-partitioned by provenance.
//   - certain and exact conf gather representations: a tuple can be
//     certain (or have its exact probability determined) only by rows
//     living on *different* shards — shard-local certain/conf answers
//     are sound but not complete — so the coordinator fetches each
//     shard's result representation ("wire": "repr"), unions the rows,
//     and runs the Lemma 4.3 certain-answer pipeline or the Section 7
//     confidence computation centrally over the union.
//   - conf bounds (the UA-DB style [certain, possible] interval)
//     merge without any lineage exchange: lower = max over shards of
//     the per-shard lower bounds (each is max P(d) over that shard's
//     rows), upper = min(1, sum of per-shard upper bounds) — exact
//     even when a shard clamps its sum at 1, since any clamped shard
//     already forces the global sum past 1.
//
// The server runs local and coordinator catalogs through one request
// path: where a local catalog evaluates a plan, a Coordinator supplies
// merged rows (ScatterRows), the union of the shard representations
// (GatherRepr) or merged bounds (ScatterBounds), and the row cap and the
// certain-answer and confidence steps run on the result either way. A
// row is written once, by AppendRow on its shard; a merged bounds row
// keeps those cells and appends its bounds. A single shard's answer is
// relayed verbatim (Relay). Nodes and coordinators speak one set of
// wire types — QueryRequest, QueryResponse, ExecRequest, ExecResponse
// and Error — so a shard cannot drift from what the coordinator expects.
//
// Read replicas (Replica) are physical clones kept current by shipping
// the primary's write-ahead log: a follower bootstraps by fetching the
// manifest, the segment files it references, and worlds.bin, then
// long-polls /wal/stream for the durable frames of the live log,
// appends them to its own local WAL, and applies them through exactly
// the crash-recovery replay path (store.DecodeWALRecord → PartDelta),
// publishing its own MVCC epochs. Because the clone is physical, the
// replica directory is at all times a crash-consistent store: promotion
// is simply reopening it read-write.
package cluster
