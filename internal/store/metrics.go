package store

import "urel/internal/obs"

// Process-wide storage metrics on the obs.Default registry. They are
// registered lazily at package init and shared by every open store in
// the process (the decoded-segment cache is likewise shared), so they
// describe the machine's storage workload; per-query attribution comes
// from the trace spans instead.
var (
	walAppendSeconds = obs.Default.Histogram("urel_wal_append_seconds",
		"WAL frame build+write latency, excluding fsync.", nil)
	walFsyncSeconds = obs.Default.Histogram("urel_wal_fsync_seconds",
		"WAL fsync latency per appended record.", nil)
	walAppendedBytesTotal = obs.Default.Counter("urel_wal_appended_bytes_total",
		"Bytes appended to write-ahead logs (frame headers included).")
	idxLookupsTotal = obs.Default.Counter("urel_index_lookups_total",
		"Store scans that probed a secondary index for an equality filter.")
	idxBloomHitsTotal = obs.Default.Counter("urel_index_bloom_hits_total",
		"Per-layer probes the bloom filters admitted (possible match).")
	idxBloomMissesTotal = obs.Default.Counter("urel_index_bloom_misses_total",
		"Per-layer probes the bloom filters rejected outright.")
	idxRunsBuiltTotal = obs.Default.Counter("urel_index_runs_built_total",
		"Sorted-run index files built (flush, compaction, CREATE INDEX).")
	idxBuildSeconds = obs.Default.Histogram("urel_index_build_seconds",
		"Wall time to build and write one sorted-run index file.", nil)
	idxStaleTotal = obs.Default.Counter("urel_index_stale_total",
		"Index runs detected stale or unusable at probe time (degraded to a layer scan).")
)
