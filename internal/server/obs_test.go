package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"urel/internal/cluster"
)

// syncBuf is an io.Writer safe for the handler goroutines the slow log
// writes from while the test reads.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

// TestServerMetricsExposition fires one query per mode (plus a failure
// and a rejection-free admission pass) and validates GET /metrics line
// by line: every line is a well-formed comment or sample, histogram
// buckets are monotone and consistent with _count, and the counters
// agree with what the test actually did.
func TestServerMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"POSSIBLE SELECT typ FROM r WHERE id = 2",
		"SELECT typ FROM r WHERE id = 2",
		"CERTAIN SELECT typ FROM r WHERE id = 1",
		"CONF SELECT typ FROM r WHERE id = 2",
		"CONF BOUNDS SELECT typ FROM r WHERE id = 2",
	}
	for _, q := range queries {
		if code, body := post(t, ts, queryRequest{SQL: q}); code != 200 {
			t.Fatalf("%s: status %d: %v", q, code, body)
		}
	}
	if code, _ := post(t, ts, queryRequest{SQL: "SELECT nope FROM nothing"}); code != 400 {
		t.Fatalf("bad query should 400, got %d", code)
	}

	code, text := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}

	types := map[string]string{}      // family -> TYPE
	values := map[string]float64{}    // full sample line key -> value
	buckets := map[string][]float64{} // series (name+labels sans le) -> cumulative counts in order
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		var val float64
		if valStr == "+Inf" {
			val = 1e308
		} else {
			var err error
			val, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
		}
		values[name+labels] = val
		if strings.HasSuffix(name, "_bucket") {
			series := strings.TrimSuffix(name, "_bucket")
			// Strip the le label so all buckets of one series group.
			lab := regexp.MustCompile(`,?le="[^"]*"`).ReplaceAllString(labels, "")
			buckets[series+lab] = append(buckets[series+lab], val)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Bucket monotonicity, and _count == the +Inf (last) bucket.
	for series, cum := range buckets {
		for i := 1; i < len(cum); i++ {
			if cum[i] < cum[i-1] {
				t.Fatalf("%s buckets not monotone: %v", series, cum)
			}
		}
	}

	// The counters must reflect what the test did: 5 successes + 1
	// failure admitted, conf paths exercised, per-mode histograms fed.
	expect := map[string]float64{
		"urel_queries_total":        6,
		"urel_query_failures_total": 1,
	}
	for k, want := range expect {
		if got := values[k]; got != want {
			t.Fatalf("%s = %v, want %v\nexposition:\n%s", k, got, want, text)
		}
	}
	var modeCount float64
	for k, v := range values {
		if strings.HasPrefix(k, `urel_query_seconds_count{mode=`) {
			modeCount += v
		}
	}
	if modeCount != 5 {
		t.Fatalf("per-mode latency histograms observed %v queries, want 5", modeCount)
	}
	for _, need := range []string{
		`urel_conf_path_tuples_total{path="bounds"}`,
		`urel_admission_wait_seconds_count`,
		"urel_active_queries",
		"urel_uptime_seconds",
		"urel_seg_cache_hits",
		// Storage-layer families from obs.Default ride the same scrape.
		"urel_wal_appended_bytes_total",
	} {
		if _, ok := values[need]; !ok {
			t.Fatalf("metric %s missing from exposition:\n%s", need, text)
		}
	}
	if types["urel_query_seconds"] != "histogram" || types["urel_queries_total"] != "counter" {
		t.Fatalf("TYPE declarations wrong: %v", types)
	}
}

// TestServerStatsUptimeAndCompat asserts /stats keeps its JSON shape
// after the registry migration and gained uptime/build fields.
func TestServerStatsUptimeAndCompat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	if code, _ := post(t, ts, queryRequest{SQL: "POSSIBLE SELECT typ FROM r"}); code != 200 {
		t.Fatalf("query failed: %d", code)
	}
	code, text := get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("/stats status %d", code)
	}
	var body map[string]any
	if err := json.Unmarshal([]byte(text), &body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queries", "active", "rejected", "failed", "truncated",
		"writes", "write_failed", "conf_paths", "certain_paths", "seg_cache", "plan_cache", "catalogs",
		"uptime_seconds", "go_version"} {
		if _, ok := body[key]; !ok {
			t.Fatalf("/stats lost key %q: %v", key, body)
		}
	}
	if body["queries"].(float64) != 1 {
		t.Fatalf("queries = %v, want 1", body["queries"])
	}
	if up := body["uptime_seconds"].(float64); up <= 0 {
		t.Fatalf("uptime_seconds = %v, want > 0", up)
	}
	cp := body["conf_paths"].(map[string]any)
	for _, key := range []string{"bounds", "read_once", "enumeration", "monte_carlo"} {
		if _, ok := cp[key]; !ok {
			t.Fatalf("conf_paths lost key %q: %v", key, cp)
		}
	}
}

// TestServerQueryTrace asserts "trace": true returns the operator span
// tree and that its row accounting matches the response.
func TestServerQueryTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts, queryRequest{SQL: "POSSIBLE SELECT typ FROM r WHERE id = 2", Trace: true})
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	tr, ok := body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("response has no trace tree: %v", body)
	}
	if tr["op"] != "query" {
		t.Fatalf("trace root op = %v, want query", tr["op"])
	}
	kids, ok := tr["children"].([]any)
	if !ok || len(kids) != 1 {
		t.Fatalf("trace root should hold the top operator: %v", tr)
	}
	top := kids[0].(map[string]any)
	if top["rows"].(float64) != body["row_count"].(float64) {
		t.Fatalf("top operator traced %v rows, response has %v", top["rows"], body["row_count"])
	}
	// Without the flag the field must stay absent (tracing off).
	if _, body := post(t, ts, queryRequest{SQL: "POSSIBLE SELECT typ FROM r"}); body["trace"] != nil {
		t.Fatalf("untraced response carries a trace: %v", body["trace"])
	}
}

// TestServerExplainAnalyze runs EXPLAIN and EXPLAIN ANALYZE through
// POST /query and checks the "plan" payload: the plain form estimates
// only, the ANALYZE form carries per-operator actuals.
func TestServerExplainAnalyze(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts, queryRequest{SQL: "EXPLAIN POSSIBLE SELECT typ FROM r WHERE id = 2"})
	if code != 200 {
		t.Fatalf("EXPLAIN status %d: %v", code, body)
	}
	plan, _ := body["plan"].(string)
	if plan == "" || strings.Contains(plan, "actual rows=") {
		t.Fatalf("EXPLAIN plan should estimate without executing:\n%s", plan)
	}

	for _, sql := range []string{
		"EXPLAIN ANALYZE POSSIBLE SELECT typ FROM r WHERE id = 2",
		"EXPLAIN ANALYZE CONF SELECT typ FROM r WHERE id = 2",
	} {
		code, body = post(t, ts, queryRequest{SQL: sql, Trace: true})
		if code != 200 {
			t.Fatalf("%s: status %d: %v", sql, code, body)
		}
		plan, _ = body["plan"].(string)
		if !strings.Contains(plan, "actual rows=") || !strings.Contains(plan, "est=") {
			t.Fatalf("%s: plan lacks actuals/estimates:\n%s", sql, plan)
		}
		if !strings.Contains(plan, "Execution:") {
			t.Fatalf("%s: plan lacks the execution summary:\n%s", sql, plan)
		}
		if _, ok := body["trace"].(map[string]any); !ok {
			t.Fatalf("%s: ANALYZE with trace:true should return the span tree: %v", sql, body)
		}
	}

	// EXPLAIN of DML is a parse error, reported as such.
	code, body = post(t, ts, queryRequest{SQL: "EXPLAIN DELETE FROM r WHERE id = 1"})
	if code != 400 {
		t.Fatalf("EXPLAIN DML should 400, got %d: %v", code, body)
	}
}

// TestServerSlowQueryLog asserts queries over the threshold emit one
// JSON line carrying the normalized SQL, the deadline, and the trace
// tree — and that fast queries stay silent.
func TestServerSlowQueryLog(t *testing.T) {
	buf := &syncBuf{}
	s, ts := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowLogWriter:      buf,
	})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	sql := "POSSIBLE  SELECT   typ FROM r\nWHERE id = 2"
	code, _ := post(t, ts, queryRequest{SQL: sql, TimeoutMS: 5000})
	if code != 200 {
		t.Fatalf("query status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 slow-log line, got %d: %q", len(lines), buf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("slow-log line is not JSON: %v\n%s", err, lines[0])
	}
	if entry["sql"] != "POSSIBLE SELECT typ FROM r WHERE id = 2" {
		t.Fatalf("sql not normalized: %q", entry["sql"])
	}
	if entry["mode"] != "possible" || entry["db"] != "vehicles" {
		t.Fatalf("mode/db wrong: %v", entry)
	}
	if dl := entry["deadline_ms"].(float64); dl <= 0 || dl > 5000 {
		t.Fatalf("deadline_ms = %v, want (0, 5000]", dl)
	}
	if _, ok := entry["trace"].(map[string]any); !ok {
		t.Fatalf("slow-log entry lacks the trace tree: %v", entry)
	}
	if _, ok := entry["time"].(string); !ok {
		t.Fatalf("slow-log entry lacks a timestamp: %v", entry)
	}
	if v := s.reg.Counter("urel_slow_queries_total", "").Value(); v != 1 {
		t.Fatalf("urel_slow_queries_total = %d, want 1", v)
	}

	// A deadline-bounded query that exceeds its budget still logs, with
	// the error recorded. An unreasonably small timeout forces a 504.
	buf2 := &syncBuf{}
	s2, ts2 := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowLogWriter:      buf2,
		Timeout:            time.Nanosecond,
	})
	if err := s2.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	code, _ = post(t, ts2, queryRequest{SQL: "POSSIBLE SELECT typ FROM r"})
	if code != 504 {
		t.Fatalf("nanosecond deadline should 504, got %d", code)
	}
	var errEntry map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf2.String())), &errEntry); err != nil {
		t.Fatalf("slow-log error line: %v", err)
	}
	if msg, _ := errEntry["error"].(string); msg == "" {
		t.Fatalf("timed-out query should log its error: %v", errEntry)
	}
	if v := s2.timeouts.Value(); v != 1 {
		t.Fatalf("urel_query_timeouts_total = %d, want 1", v)
	}

	// A coordinator logs through the same path: its line carries the
	// outcome, and the trace is rooted at the scatter-gather span.
	tc := newTestCluster(t, 2, false)
	buf3 := &syncBuf{}
	s3, ts3 := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond, SlowLogWriter: buf3})
	if err := s3.OpenCoordinator("demo", cluster.CatalogSpec{Sharded: []string{"readings"}, Shards: tc.nodes}); err != nil {
		t.Fatal(err)
	}
	code, _ = post(t, ts3, queryRequest{SQL: "CONF SELECT sid FROM readings", Accuracy: "exact"})
	if code != 200 {
		t.Fatalf("coordinator query status %d", code)
	}
	var coordEntry map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf3.String())), &coordEntry); err != nil {
		t.Fatalf("coordinator slow-log line: %v\n%s", err, buf3.String())
	}
	trace, _ := coordEntry["trace"].(map[string]any)
	if coordEntry["mode"] != "conf" || coordEntry["row_count"] != float64(3) || coordEntry["accuracy"] != "exact" ||
		trace == nil || trace["op"] != "scatter-gather" {
		t.Fatalf("coordinator slow-log line lacks mode, row_count, accuracy or the scatter-gather root: %v", coordEntry)
	}
}

// TestIsExplain pins the EXPLAIN dispatch: only a leading EXPLAIN
// keyword routes around the plan cache.
func TestIsExplain(t *testing.T) {
	for sql, want := range map[string]bool{
		"explain select a from r":           true,
		"  EXPLAIN ANALYZE select a from r": true,
		"Explain\tselect 1":                 true,
		"select explain from r":             false,
		"explains select a from r":          false,
		"":                                  false,
	} {
		if got := isExplain(sql); got != want {
			t.Errorf("isExplain(%q) = %v, want %v", sql, got, want)
		}
	}
}
