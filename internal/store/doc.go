// Package store is the persistent layer under the U-relational
// engine: a binary columnar segment format for U-relations plus a
// catalog that snapshots and reopens entire databases.
//
// The design follows the paper's central observation (Antova, Jansen,
// Koch, Olteanu, "Fast and Simple Relational Processing of Uncertain
// Data", ICDE 2008) that U-relations are *just relations*: the
// ws-descriptor columns of U[D; T; B] are ordinary integer columns
// sitting next to the data columns (Section 2), so a U-relation can be
// stored, scanned and indexed with the machinery of any relational
// store — "the existing infrastructure of a relational database
// management system can be directly used" (Section 1). This package is
// that infrastructure for the Go substrate:
//
//   - Segment files (format.go, segment.go). One file per vertical
//     partition, holding fixed-size row groups ("segments") encoded
//     column-major: the padded descriptor (Var, Rng) pairs and tuple
//     ids as varint columns (the paper's D and T columns), then one
//     typed column vector per value attribute (the B columns) with a
//     null bitmap. Every writer lays the rows out in stable tuple-id
//     order (URSEGv2), and a footer records per-segment row counts,
//     CRC32 checksums, the least and greatest tuple id, and per-column
//     min/max statistics, under a checksum of its own. It is the one
//     format a store opens: a URSEGv1 file, or a manifest of another
//     FormatVersion, is refused with ErrCorrupt. A segment
//     decodes in one typed pass, from a pooled read buffer it keeps
//     nothing of: its descriptor and tid columns share one int64 slab,
//     every int column goes through one varint loop, floats are read
//     straight from the payload and a string column's cells are slices
//     of one string. A segment the segment cache keeps, or ReadSegment
//     returns (Load, compaction, index builds), is decoded into fresh
//     memory and never recycled; a scan over a partition with no cache
//     owns what it decodes: its vectors but a string column's text come
//     from process-wide pools (recycle.go), and the scan hands them back
//     when it closes. Every count a decoder reads — rows, widths,
//     lengths, the world table's variables — is checked against the
//     bytes left before it sizes an allocation, decoded tuple ids
//     against the footer's bounds and tid order, and the footer's
//     bounds against each other, so a corrupt file is ErrCorrupt,
//     never an out-of-memory crash, a skipped segment or a row out of
//     order.
//
//   - One byte codec (format.go). Every file the store writes is read
//     by the one cursor and written by the one family of append
//     helpers: segment payloads; footers and their tails; the manifest
//     (catalog.json); the world table (worlds.bin); WAL frames and the
//     commit records in them; index runs (*.idx). Varints are the
//     default encoding, fixed-width little-endian integers sit where a
//     checksum or offset must have a known size, and the manifest, the
//     world table and the runs share one trailer (magic, body, CRC32 of
//     both). A manifest of format version 3, JSON, is the one file read
//     otherwise: json.Unmarshal reads it, and the store's next manifest
//     write replaces it. The cursor bounds every read and
//     every count by the bytes left, so a corrupt byte of any file is
//     ErrCorrupt, never a panic or an out-of-memory crash.
//
//   - Catalog (catalog.go). Save snapshots a whole UDB — the world
//     table W (Section 2's W(Var, Rng) plus the Section 7 probability
//     extension), the relation schemas, and every partition — into a
//     directory; Open reopens it with partitions lazily backed by
//     their segment files (core.Backing), so a database is queryable
//     without materializing anything. Open reads the manifest, the
//     world table and index runs whole into pooled buffers that the
//     decoders copy out of (readFile), not the WAL, whose records alias
//     theirs; Save lands each file by one synced write (writeFile), a
//     replica's resync by one renamed into place (InstallFile). The
//     manifest decodes in a few allocations: its names are windows of
//     one copy of its body, and a partition's attributes, written as
//     positions in its relation's, a window of the relation's list.
//     Every file is opened by openRead: one open(2), one fstat(2) and
//     os.NewFile's one fcntl(2), where os.Open would spend five more
//     system calls on a poller registration a regular file refuses.
//     OpenLayers opens a manifest's segment files on min(GOMAXPROCS,
//     files) goroutines while the caller reads the world table, and
//     reports the first failure in manifest order; store.Open, txn.Open
//     and a replica's openLocal all open through it.
//
//   - StoreScanIter (scan.go). The cold-scan operator: its segments
//     decode straight into typed engine.ColVec vectors, so Next hands
//     the engine zero-transpose column batches (descriptor and tid
//     columns as int vectors, value columns as their decoded typed
//     vectors), and every operator above runs on the stored columns;
//     tuples are made at the sink. A scan delivers its rows in tuple-id
//     order, the order the engine's stitch merges a relation's
//     partitions in: one run — a single file layer and no delta rows in
//     range — is served a segment per batch, as it is stored; several
//     runs (delta layers, the in-memory delta) are merged by tid inside
//     the window
//     the ranges leave, each batch a zero-copy window of the run with
//     the least tuple id, up to the next run's, behind a selection
//     vector. A stitch that does not drive by the scan asks it for the
//     rows of tuple ids instead (engine.RowLookup): the ids ascend, so
//     each run walks forward beside them, reading a segment only when
//     its footer's tid bounds hold an id asked, and at most once, and
//     finding an id's rows in it by galloping search. The operators
//     above may hand the scan keys (engine.KeyNarrower): a hash or semi
//     join whose probe side it is hands it the sorted list of its build
//     keys, and a join higher up hands its own list down through the
//     semi joins, stitches, filters, renames and projections between.
//     The scan keeps all the keys it is handed, side by side. It leaves
//     unread every segment whose tid bounds — or, for an int value
//     column, zone map — hold no key of any one of them, found in a
//     list by binary search, and a selective join's list on an
//     attribute skips the segments of the partition that holds it. Of a
//     segment it reads — and of the delta — it serves only the window
//     of rows in the keys' tid range, and of those only the rows whose
//     int key each list holds, as of the rows a lookup finds. Its
//     planning half, StoreScanPlan, implements engine.SourcePlan and
//     engine.FilterAdvisor: selection predicates evaluated directly
//     above a scan (the σ of the paper's Figure 4 translation) prune
//     segments whose min/max statistics refute them (ORs of refuted
//     arms too), and the surviving row count is what the engine's
//     estimator sees. The same advice makes the scan an index probe
//     when a conjunct is an equality on a declared index column whose
//     every layer has a run and the zone maps leave the scan more than
//     one segment (one left is read without decoding a run, so a
//     clustered key never probes): before serving a row the scan looks
//     each layer's run up, reads the segments it locates rows in, checks
//     that those rows carry the key and serves only them, the located
//     rows being the batch's selection within the tid window and without
//     the tombstoned. A run pointing at a row without the key
//     is marked stale and its layer is read whole; the filter stays
//     above the scan, so an index costs time, never an answer. The
//     in-memory delta is one more segment (PartSource.memSegment),
//     encoded once per published source by the encoder of an in-memory
//     partition's image, and served like any other: typed vectors, a
//     tid window when the tid column was narrowed. The read path makes
//     no engine.Tuple.
//
//   - Index runs (run.go, index.go). A U-relation's vertical partition
//     U[D; T; A] is an ordinary table, so a secondary index over any
//     value column is an ordinary secondary index, with no
//     uncertainty-specific structure at all: per-layer sorted runs (key
//     → segment/row locators) plus one bloom filter per segment.
//     Uncertainty stays where the representation puts it, in the
//     descriptor columns the scan carries along untouched, which is why
//     an index hit composes with tombstones, the in-memory delta and
//     confidence computation for free. The runs serve equality filters,
//     as the store scan's probe: they decide which rows the scan reads,
//     and the filter above it stays. They serve no join: a join is a
//     hash join that hands its probe scan its build keys, and, as
//     Magnani & Montesi's "Joining relations under discrete
//     uncertainty" keeps a join strategy only where it measurably wins,
//     an index-nested-loop join won no region any workload reaches
//     (docs/ARCHITECTURE.md, "Join strategies"). A run holds its sorted
//     keys as one typed engine.ColVec, an int vector for int columns,
//     which the decoder fills directly and an int probe binary-searches.
//     A run is immutable, built beside a layer file at flush,
//     compaction or CREATE INDEX time: a layer file F with an index on
//     stored column i owns F.a<i>.idx, which recovery treats like any
//     other unreferenced file, and a missing or corrupt run makes a
//     probe read that layer whole — never a wrong answer.
//
//   - Layered sources and deltas (source.go, walops.go, wal.go). A
//     partition is a PartSource: one or more immutable file layers
//     (the base plus delta files flushed by the write path,
//     internal/txn), an optional frozen in-memory delta, and a
//     layer-scoped tombstone set filtering deleted rows through the
//     scan's selection vector, in one sort-merge pass over a segment's
//     rows and tombstones. The write-ahead log lives here too —
//     length-prefixed, CRC32-framed records, fsynced per commit — so
//     Open can replay unflushed commits *read-only*: any reader of a
//     directory a writer committed to sees every acknowledged update,
//     with a torn tail from a crashed writer silently discarded. The
//     manifest (catalog.json) is always replaced by atomic rename, so
//     every state transition of a mutable store is crash-safe.
//
// The attribute-level vertical partitioning that makes U-relations
// succinct (Section 2) maps one-to-one onto files here, and the
// needed-attribute analysis of the translation (Section 3) means a
// query only opens — and only decodes — the partitions and columns it
// actually touches.
package store
