// Package server is the concurrent query-serving layer over
// U-relational databases: an HTTP/JSON endpoint that parses the
// sqlparse dialect ([POSSIBLE|CERTAIN|CONF] SELECT ...), evaluates it
// against catalogs opened from the columnar store, and returns
// representation-level results, possible answers, certain answers, or
// tuple confidences.
//
// Relation to the paper (Antova, Jansen, Koch, Olteanu: "Fast and
// Simple Relational Processing of Uncertain Data", ICDE 2008):
//
//   - The paper's thesis is that U-relations need nothing beyond a
//     conventional relational DBMS — MayBMS itself shipped as a
//     PostgreSQL extension serving SQL to clients. This package is
//     that serving tier for the Go substrate: many clients, one
//     shared representation, purely relational evaluation per request
//     (Section 3's translation, Section 4's certain answers,
//     Section 7's confidences).
//   - Because partitions are read-only and an optimized plan is only
//     read by execution, concurrency needs no locking in the query
//     path. What is shared is made explicitly safe: a size-bounded LRU
//     cache of decoded segments (store.SegCache) with coalesced cold
//     misses, and a statement cache keyed on normalized SQL that holds
//     each statement's parse and, per catalog, its optimized plan on the
//     catalog's current snapshot. A repeated statement runs that plan —
//     no parse, translation or optimization; a new snapshot (a commit,
//     flush, compaction or replicated epoch) drops the catalog's plans
//     at its first query, so no plan keeps a superseded snapshot alive.
//   - Admission control (a bounded slot pool with a short queue wait,
//     per-query row caps and deadlines) keeps overload a 429/413/504
//     instead of an OOM — "fast and simple" must survive heavy
//     traffic, per the repository's north star.
//
// The package deliberately exposes a plain http.Handler so it can be
// mounted in any mux, tested with net/http/httptest, and fronted by
// cmd/urserved.
package server
