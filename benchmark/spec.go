package main

import (
	"math"

	"urel/internal/txn"
)

// The benchmark's declarations: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at
// the repository root states the same tables for the driver; a test
// keeps the two in agreement.

// metricSpec declares one metric. bound is the relative worsening
// that counts as a regression (end-to-end metrics only).
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd lists what a user of the system sees. Every workload
// reports all of them from the untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"ok_share", "share", "higher", 0.001},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.15},
}

// perLayer lists the traced run's metrics, grouped by the module they
// time. A metric whose layer the workload does not use reads 0 there;
// that zero is the bypass half of an exercise/bypass pair.
var perLayer = []metricSpec{
	{"tpch.generate_ms", "ms", "lower", 0},
	{"sqlparse.parse_us", "us", "lower", 0},

	{"core.translate_us", "us", "lower", 0},
	{"core.decode_ms", "ms", "lower", 0},
	{"core.poss_distinct_ms", "ms", "lower", 0},
	{"core.certain_ms", "ms", "lower", 0},
	{"core.conf_exact_ms", "ms", "lower", 0},
	{"core.conf_bounds_ms", "ms", "lower", 0},
	{"core.conf_readonce_share", "share", "higher", 0},

	{"engine.optimize_us", "us", "lower", 0},
	{"engine.q1_lo_ms", "ms", "lower", 0},
	{"engine.q2_lo_ms", "ms", "lower", 0},
	{"engine.q3_lo_ms", "ms", "lower", 0},
	{"engine.q1_hi_ms", "ms", "lower", 0},
	{"engine.q2_hi_ms", "ms", "lower", 0},
	{"engine.q3_hi_ms", "ms", "lower", 0},
	{"engine.repr_rows_per_answer", "count", "lower", 0},
	{"engine.q3_allocs_per_repr_row", "count", "lower", 0},
	{"engine.par2_speedup_q3", "ratio", "higher", 0},

	{"store.save_mb_per_s", "MB/s", "higher", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.decode_mb_per_s", "MB/s", "higher", 0},
	{"store.scan_share", "share", "lower", 0},
	{"store.disk_bytes_per_user_byte", "ratio", "lower", 0},
	{"store.segcache_hit_share", "share", "higher", 0},
	{"store.segcache_evictions", "count", "lower", 0},

	{"index.build_ms", "ms", "lower", 0},
	{"index.lookup_us", "us", "lower", 0},
	{"index.segments_read_per_lookup", "count", "lower", 0},
	{"index.bloom_reject_share", "share", "higher", 0},

	{"txn.insert_ms", "ms", "lower", 0},
	{"txn.update_ms", "ms", "lower", 0},
	{"txn.delete_ms", "ms", "lower", 0},
	{"txn.flush_ms", "ms", "lower", 0},
	{"txn.compact_ms", "ms", "lower", 0},
	{"txn.flushes", "count", "higher", 0},
	{"txn.compactions", "count", "higher", 0},
	{"txn.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"txn.read_overlay_ratio", "ratio", "lower", 0},
	{"txn.reopen_replay_ms", "ms", "lower", 0},

	{"server.http_overhead_ms", "ms", "lower", 0},
	{"server.elapsed_point_ms", "ms", "lower", 0},
	{"server.elapsed_scan_ms", "ms", "lower", 0},
	{"server.elapsed_join_ms", "ms", "lower", 0},
	{"server.elapsed_certain_ms", "ms", "lower", 0},
	{"server.elapsed_conf_ms", "ms", "lower", 0},
	{"server.elapsed_confbounds_ms", "ms", "lower", 0},
	{"server.query_ms", "ms", "lower", 0},
	{"server.exec_ms", "ms", "lower", 0},
	{"server.plan_cache_hit_share", "share", "higher", 0},
	{"server.resp_kb_per_op", "KB", "lower", 0},
	{"server.rejected_share", "share", "lower", 0},
	{"server.lat_p99_ms", "ms", "lower", 0},
	{"server.unattributed_ms", "ms", "lower", 0},
	{"server.open_lo_p95_ms", "ms", "lower", 0},
	{"server.open_hi_p95_ms", "ms", "lower", 0},
	{"server.open_late_ms", "ms", "lower", 0},

	{"cluster.relay_point_ms", "ms", "lower", 0},
	{"cluster.scatter_certain_ms", "ms", "lower", 0},
	{"cluster.hop_overhead_ms", "ms", "lower", 0},
	{"cluster.repr_kb_per_op", "KB", "lower", 0},
	{"cluster.encode_repr_us", "us", "lower", 0},
	{"cluster.decode_repr_us", "us", "lower", 0},

	{"obs.trace_overhead_pct", "%", "lower", 0},

	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.gc_cpu_share", "share", "lower", 0},
	{"proc.gc_cycles_per_op", "count", "lower", 0},

	{"bench.trace_pass_overhead_pct", "%", "lower", 0},
	{"bench.spans_unattributed_pct", "%", "lower", 0},
	{"share.core_pct", "%", "lower", 0},
	{"share.engine_pct", "%", "lower", 0},
	{"share.store_pct", "%", "lower", 0},
	{"share.txn_pct", "%", "lower", 0},
	{"share.server_pct", "%", "lower", 0},
}

// class is one cost class of a workload's op cycle: count ops of the
// cycle fall in it. Classes are listed cheapest first; their
// cumulative shares are the boundaries percentiles must keep clear of.
type class struct {
	name  string
	count int
}

// workloadSpec declares one workload. newWorkload builds the driver
// behind it; why is the sentence BENCHMARK.json repeats.
type workloadSpec struct {
	name string
	why  string
	// clients is the number of closed-loop callers. It is 1 everywhere:
	// the sandbox has two shared cores, and two callers beside the
	// server's handler goroutines and the collector's workers are more
	// runnable threads than that (the driver refused the served
	// workloads as too noisy with two).
	clients int
	classes []class
	// warmCycles is the discarded warm-up of each set-up, in cycles.
	warmCycles int
	// cyclesPerSec turns the run's seconds into a fixed amount of work:
	// the cycles per second one client completes on the sandbox this
	// was sized on, rounded down. Work, not time, is what a run fixes,
	// so the same seed executes the same ops on every commit and
	// counts repeat exactly.
	cyclesPerSec float64
	// periodCycles, when not 0, is the period in cycles of background
	// work the op sequence itself triggers; a round is then a whole
	// number of periods, so that every round holds the same share of it.
	periodCycles float64
}

// roundCycles is the number of cycles each client runs in one timed
// round of a run of the given nominal length.
func (w *workloadSpec) roundCycles(seconds float64) int {
	n := seconds / rounds * w.cyclesPerSec
	if p := w.periodCycles; p > 0 && n >= p/2 {
		n = max(1, math.Round(n/p)) * p
	}
	return max(1, int(math.Round(n)))
}

var workloads = []workloadSpec{
	{
		name:         "paper_mem",
		why:          "paper's Q1-Q3 in memory at low and high uncertainty: core+engine do all the work; store, server, txn none",
		clients:      1, // serial engine
		warmCycles:   1,
		cyclesPerSec: 2,
		classes:      []class{{"q2_lo", 1}, {"q2_hi", 1}, {"q1_lo", 2}, {"q1_hi", 2}, {"q3_lo", 2}, {"q3_hi", 2}},
	},
	{
		name:         "stored_cold",
		why:          "each op opens the saved directory without a segment cache: store/index decode and pruning dominate, no program cache hides them",
		clients:      1,
		warmCycles:   1,
		cyclesPerSec: 2.5,
		classes:      []class{{"proj", 6}, {"point", 8}, {"q1", 3}, {"q2", 3}},
	},
	{
		name:         "served_mix",
		why:          "read-only HTTP serving, data fits the segment cache: server, plan cache and certain/conf pipelines work, store decode idles",
		clients:      1,
		warmCycles:   1,
		cyclesPerSec: 5.5,
		classes:      []class{{"scan", 4}, {"point", 4}, {"join", 4}, {"conf", 3}, {"confbounds", 2}, {"certain", 3}},
	},
	{
		name:    "served_rw",
		why:     "writes beside reads through /exec and /query: WAL fsync, memtable overlay, background flush and compaction, used nowhere else",
		clients: 1,
		// The write path compacts when txn.DefaultCompactTombs (8192)
		// tombstones have gathered (the server exposes no setting), and a
		// compaction stalls writers for a quarter of a second. A cycle
		// leaves 3 partitions × 96 rows updated or deleted behind, so the
		// period is 28.4 cycles (measured: 28 or 29). With rounds of a whole
		// number of periods (one, at 20 s) every round holds the same number
		// of compactions; with rounds of 48 cycles some held one and some
		// two, and differed by 7 %. The warm-up puts the compaction 11 to 15
		// cycles into each round, far from its edges.
		warmCycles:   17,
		cyclesPerSec: 14,
		periodCycles: txn.DefaultCompactTombs / (3 * (rwRows + rwRows/2.0)),
		classes:      []class{{"insert", 1}, {"point", 2}, {"range", 2}, {"dear", 3}},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// cycleLen is the number of ops in one cycle of the workload.
func (w *workloadSpec) cycleLen() int {
	n := 0
	for _, c := range w.classes {
		n += c.count
	}
	return n
}

// boundaries returns the cumulative class shares in percent, excluding
// 0 and 100: the percentiles at which the latency distribution steps
// from one cost class to the next.
func (w *workloadSpec) boundaries() []float64 {
	var out []float64
	total, acc := w.cycleLen(), 0
	for _, c := range w.classes[:len(w.classes)-1] {
		acc += c.count
		out = append(out, 100*float64(acc)/float64(total))
	}
	return out
}
