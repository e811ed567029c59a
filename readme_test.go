package urel_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"urel"
	"urel/internal/cluster"
	"urel/internal/engine"
)

// TestReadmePersistenceSnippetVerbatim keeps the README's Persistence
// code block honest: every line of it must appear, contiguously and
// verbatim (modulo the example's one level of function-body
// indentation), in examples/persist/main.go — which the test suite
// compiles and the example runs.
func TestReadmePersistenceSnippetVerbatim(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("examples/persist/main.go")
	if err != nil {
		t.Fatal(err)
	}

	// Extract the fenced go block of the Persistence section.
	_, rest, found := strings.Cut(string(readme), "## Persistence")
	if !found {
		t.Fatal("README has no Persistence section")
	}
	_, rest, found = strings.Cut(rest, "```go\n")
	if !found {
		t.Fatal("Persistence section has no go code block")
	}
	block, _, found := strings.Cut(rest, "```")
	if !found {
		t.Fatal("unterminated code block")
	}

	// Re-indent each non-empty line by one tab (the example's function
	// body indentation) and require the whole block as one contiguous
	// substring of the example.
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
		if line != "" {
			b.WriteByte('\t')
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if !strings.Contains(string(example), b.String()) {
		t.Fatalf("README Persistence snippet is not verbatim in examples/persist/main.go;\nwant block:\n%s", b.String())
	}
}

// TestReadmeUpdatingSnippetVerbatim keeps the README's Updating code
// block honest the same way: every line must appear contiguously and
// verbatim (modulo the example's function-body indentation) in
// examples/update/main.go, which the test suite compiles.
func TestReadmeUpdatingSnippetVerbatim(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("examples/update/main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(readme), "## Updating")
	if !found {
		t.Fatal("README has no Updating section")
	}
	_, rest, found = strings.Cut(rest, "```go\n")
	if !found {
		t.Fatal("Updating section has no go code block")
	}
	block, _, found := strings.Cut(rest, "```")
	if !found {
		t.Fatal("unterminated code block")
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
		if line != "" {
			b.WriteByte('\t')
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if !strings.Contains(string(example), b.String()) {
		t.Fatalf("README Updating snippet is not verbatim in examples/update/main.go;\nwant block:\n%s", b.String())
	}
}

// TestReadmeUpdatingSnippetRuns executes the documented DML against
// the Persistence snippet's sensor database and checks the claims in
// prose: the commit is WAL-durable (a plain read-only reopen sees it)
// and the MVCC snapshot serves the updated state.
func TestReadmeUpdatingSnippetRuns(t *testing.T) {
	db := urel.New()
	db.MustAddRelation("sensor", "id", "temp")
	x := db.W.NewBoolVar("x")
	u := db.MustAddPartition("sensor", "u_sensor", "id", "temp")
	u.Add(urel.D(urel.A(x, 1)), 1, urel.Int(1), urel.Float(21.5))
	u.Add(urel.D(urel.A(x, 2)), 1, urel.Int(1), urel.Float(24.0))
	dir := t.TempDir()
	if err := urel.Save(db, dir); err != nil {
		t.Fatal(err)
	}

	rw, err := urel.OpenRW(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"insert into sensor values (2, 19.0), (3, 27.5)",
		"update sensor set temp = 18.5 where id = 2",
		"delete from sensor where temp > 27",
	} {
		if _, err := rw.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	q := urel.Poss(urel.Rel("sensor"))
	rel, err := rw.Snapshot().EvalPoss(q, urel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Two original alternatives for sensor 1, plus sensor 2 at 18.5;
	// sensor 3 was deleted.
	if rel.Len() != 3 {
		t.Fatalf("snapshot sees %d possible readings, want 3:\n%s", rel.Len(), rel)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := urel.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, err := db2.EvalPoss(q, urel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != 3 {
		t.Fatalf("read-only reopen sees %d possible readings, want 3", rel2.Len())
	}
}

// TestReadmeObservabilitySection keeps the README's Observability
// section honest: every metric series named in its /metrics sample
// block must appear in a live scrape of a read-write server over the
// Persistence snippet's sensor database, and the documented EXPLAIN
// ANALYZE plan shape (actual rows, estimates, execution summary) must
// hold for the section's query. (The section's curl exchange itself is
// replayed by TestReadmeServingExchange, which scans every /query
// example after the Serving heading.)
func TestReadmeObservabilitySection(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "## Observability")
	if !found {
		t.Fatal("README has no Observability section")
	}
	if next := strings.Index(section, "\n## "); next >= 0 {
		section = section[:next]
	}
	var series []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "urel_") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("metrics sample line has no value: %q", line)
		}
		series = append(series, line[:sp])
	}
	if len(series) < 5 {
		t.Fatalf("Observability section samples %d metric series, want a representative set", len(series))
	}

	// The Persistence snippet's sensor database, served read-write so
	// the per-catalog write-path gauges (urel_mvcc_epoch{...}) exist.
	db := urel.New()
	db.MustAddRelation("sensor", "id", "temp")
	x := db.W.NewBoolVar("x")
	u := db.MustAddPartition("sensor", "u_sensor", "id", "temp")
	u.Add(urel.D(urel.A(x, 1)), 1, urel.Int(1), urel.Float(21.5))
	u.Add(urel.D(urel.A(x, 2)), 1, urel.Int(1), urel.Float(24.0))
	dir := t.TempDir()
	if err := urel.Save(db, dir); err != nil {
		t.Fatal(err)
	}
	s, err := urel.NewServer(urel.ServeConfig{
		Catalogs: map[string]string{"sensors": dir},
		Writable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The documented EXPLAIN ANALYZE exchange, checked for the plan
	// shape the text block claims.
	body := `{"db":"sensors","sql":"EXPLAIN ANALYZE POSSIBLE SELECT temp FROM sensor WHERE temp > 22"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Plan     string `json:"plan"`
		RowCount int    `json:"row_count"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"actual rows=", " est=", "Store Scan on u_sensor", "segments_read=", "Execution: 1 rows"} {
		if !strings.Contains(got.Plan, want) {
			t.Errorf("EXPLAIN ANALYZE plan lacks documented annotation %q:\n%s", want, got.Plan)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrapeBytes, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(scrapeBytes)
	for _, ser := range series {
		if !strings.Contains(scrape, ser+" ") {
			t.Errorf("README documents metric series %q, absent from /metrics scrape", ser)
		}
	}
}

// TestReadmeClusterExchange keeps the README's Cluster section honest:
// the topology JSON embedded in its quickstart must parse into the
// documented two-shard layout, and each documented curl exchange is
// replayed against a real coordinator booted over that topology (two
// shard servers on a ShardedSave split of the Persistence snippet's
// sensor database), comparing every documented response field.
func TestReadmeClusterExchange(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "## Cluster")
	if !found {
		t.Fatal("README has no Cluster section")
	}
	if next := strings.Index(section, "\n## "); next >= 0 {
		section = section[:next]
	}

	// The quickstart's topology heredoc, parsed by the same loader
	// urserved -coordinator uses.
	_, afterHeredoc, found := strings.Cut(section, "<<'EOF'\n")
	if !found {
		t.Fatal("Cluster quickstart has no topology heredoc")
	}
	topoDoc, _, found := strings.Cut(afterHeredoc, "\nEOF")
	if !found {
		t.Fatal("unterminated topology heredoc")
	}
	spec, err := cluster.ParseSpec([]byte(topoDoc))
	if err != nil {
		t.Fatalf("documented topology does not parse: %v", err)
	}
	cat, ok := spec.Catalogs["sensors"]
	if !ok || len(cat.Shards) != 2 || len(cat.Sharded) != 1 || cat.Sharded[0] != "sensor" {
		t.Fatalf("documented topology is not the two-shard sensors layout: %+v", spec)
	}

	// The Persistence snippet's sensor database plus one certain
	// reading, split exactly as the section's ShardedSave call says.
	db := urel.New()
	db.MustAddRelation("sensor", "id", "temp")
	x := db.W.NewBoolVar("x")
	u := db.MustAddPartition("sensor", "u_sensor", "id", "temp")
	u.Add(urel.D(urel.A(x, 1)), 1, urel.Int(1), urel.Float(21.5))
	u.Add(urel.D(urel.A(x, 2)), 1, urel.Int(1), urel.Float(24.0))
	u.Add(nil, 2, urel.Int(2), urel.Float(19.0))
	base := t.TempDir()
	dirs := []string{filepath.Join(base, "shard0"), filepath.Join(base, "shard1")}
	if err := urel.ShardedSave(db, dirs, []string{"sensor"}); err != nil {
		t.Fatal(err)
	}

	// Boot the documented topology in-process: one server per shard
	// directory, the coordinator pointed at their live URLs.
	for i := range cat.Shards {
		s, err := urel.NewServer(urel.ServeConfig{Catalogs: map[string]string{"sensors": dirs[i]}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		cat.Shards[i].Nodes = []string{ts.URL}
	}
	coord, err := urel.NewServer(urel.ServeConfig{Cluster: map[string]cluster.CatalogSpec{"sensors": cat}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	// Replay every documented curl exchange of the section.
	type exchange struct{ req, resp string }
	var exchanges []exchange
	rest := section
	for {
		var afterCurl string
		_, afterCurl, found = strings.Cut(rest, "curl -s localhost:8080/query -d '")
		if !found {
			break
		}
		reqBody, _, ok := strings.Cut(afterCurl, "'")
		if !ok {
			t.Fatal("unterminated curl body")
		}
		_, afterJSON, ok := strings.Cut(afterCurl, "```json\n")
		if !ok {
			t.Fatal("curl example has no json response block")
		}
		respDoc, _, ok := strings.Cut(afterJSON, "```")
		if !ok {
			t.Fatal("unterminated json block")
		}
		exchanges = append(exchanges, exchange{req: reqBody, resp: respDoc})
		rest = afterJSON
	}
	if len(exchanges) < 2 {
		t.Fatalf("Cluster section documents %d exchanges, want the CONF and CERTAIN examples", len(exchanges))
	}
	for _, ex := range exchanges {
		resp, err := http.Post(cts.URL+"/query", "application/json", bytes.NewReader([]byte(ex.req)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			resp.Body.Close()
			t.Fatalf("documented request %s returned %d", ex.req, resp.StatusCode)
		}
		var got map[string]any
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]any
		if err := json.Unmarshal([]byte(ex.resp), &want); err != nil {
			t.Fatalf("documented response is not valid JSON: %v\n%s", err, ex.resp)
		}
		for key, wv := range want {
			if !reflect.DeepEqual(got[key], wv) {
				t.Errorf("%s: README documents %s = %v, coordinator returned %v", ex.req, key, wv, got[key])
			}
		}
	}
}

// TestReadmeServingExchange keeps the README's Serving section honest:
// every documented curl request body (the CONF and CONF BOUNDS
// examples) is POSTed (curl-equivalent, via net/http/httptest) to a
// real server over the Persistence snippet's sensor database, and
// every field of the documented JSON response that follows it must
// match the actual one.
func TestReadmeServingExchange(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(readme), "## Serving")
	if !found {
		t.Fatal("README has no Serving section")
	}
	// Scan this section only — the Cluster section documents its own
	// exchanges against a different (sharded) database, replayed by
	// TestReadmeClusterExchange.
	if next := strings.Index(rest, "\n## "); next >= 0 {
		rest = rest[:next]
	}

	// Collect the documented exchanges: each curl -d '...' body with
	// the json code block that follows it.
	type exchange struct{ req, resp string }
	var exchanges []exchange
	for {
		var afterCurl string
		_, afterCurl, found = strings.Cut(rest, "curl -s localhost:8080/query -d '")
		if !found {
			break
		}
		reqBody, _, ok := strings.Cut(afterCurl, "'")
		if !ok {
			t.Fatal("unterminated curl body")
		}
		_, afterJSON, ok := strings.Cut(afterCurl, "```json\n")
		if !ok {
			t.Fatal("curl example has no json response block")
		}
		respDoc, _, ok := strings.Cut(afterJSON, "```")
		if !ok {
			t.Fatal("unterminated json block")
		}
		exchanges = append(exchanges, exchange{req: reqBody, resp: respDoc})
		rest = afterJSON
	}
	if len(exchanges) < 2 {
		t.Fatalf("Serving section documents %d exchanges, want at least the CONF and CONF BOUNDS examples", len(exchanges))
	}

	// The Persistence snippet's sensor database, saved and served.
	db := urel.New()
	db.MustAddRelation("sensor", "id", "temp")
	x := db.W.NewBoolVar("x")
	u := db.MustAddPartition("sensor", "u_sensor", "id", "temp")
	u.Add(urel.D(urel.A(x, 1)), 1, urel.Int(1), urel.Float(21.5))
	u.Add(urel.D(urel.A(x, 2)), 1, urel.Int(1), urel.Float(24.0))
	dir := t.TempDir()
	if err := urel.Save(db, dir); err != nil {
		t.Fatal(err)
	}
	s, err := urel.NewServer(urel.ServeConfig{Catalogs: map[string]string{"sensors": dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ex := range exchanges {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(ex.req)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			resp.Body.Close()
			t.Fatalf("documented request %s returned %d", ex.req, resp.StatusCode)
		}
		var got map[string]any
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]any
		if err := json.Unmarshal([]byte(ex.resp), &want); err != nil {
			t.Fatalf("documented response is not valid JSON: %v\n%s", err, ex.resp)
		}
		for key, wv := range want {
			if !reflect.DeepEqual(got[key], wv) {
				t.Errorf("%s: README documents %s = %v, server returned %v", ex.req, key, wv, got[key])
			}
		}
	}
}

// TestReadmeIndexingSnippetVerbatim keeps the README's Indexing code
// block honest the same way as the Persistence and Updating blocks:
// every line must appear contiguously and verbatim (modulo the
// example's function-body indentation) in examples/indexing/main.go,
// which the test suite compiles and the example runs.
func TestReadmeIndexingSnippetVerbatim(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("examples/indexing/main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(readme), "## Indexing")
	if !found {
		t.Fatal("README has no Indexing section")
	}
	_, rest, found = strings.Cut(rest, "```go\n")
	if !found {
		t.Fatal("Indexing section has no go code block")
	}
	block, _, found := strings.Cut(rest, "```")
	if !found {
		t.Fatal("unterminated code block")
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
		if line != "" {
			b.WriteByte('\t')
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if !strings.Contains(string(example), b.String()) {
		t.Fatalf("README Indexing snippet is not verbatim in examples/indexing/main.go;\nwant block:\n%s", b.String())
	}
}

// TestReadmeIndexingSnippetRuns executes the documented indexing flow
// over the example's sensor catalog and checks the claims in prose:
// the declared index answers the point query, EXPLAIN shows the probe on
// the store scan's line, and a key the zone maps find in one segment
// plans no probe.
func TestReadmeIndexingSnippetRuns(t *testing.T) {
	db := urel.New()
	db.MustAddRelation("sensor", "id", "temp")
	x := db.W.NewBoolVar("x")
	u := db.MustAddPartition("sensor", "u_sensor", "id", "temp")
	u.Add(urel.D(urel.A(x, 1)), 1, urel.Int(1), urel.Float(21.5))
	u.Add(urel.D(urel.A(x, 2)), 1, urel.Int(1), urel.Float(24.0))
	for i := int64(2); i <= 5000; i++ {
		u.Add(nil, i, urel.Int(2+i%1000), urel.Float(20+float64(i%7)))
	}
	dir := t.TempDir()
	if err := urel.Save(db, dir); err != nil {
		t.Fatal(err)
	}

	rw, err := urel.OpenRW(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if err := urel.CreateIndex(rw, "sensor", "id"); err != nil {
		t.Fatal(err)
	}

	q := urel.Poss(urel.Select(urel.Rel("sensor"),
		urel.Eq(urel.Col("id"), urel.Const(urel.Int(702)))))
	rel, err := rw.Snapshot().EvalPoss(q, urel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 5 {
		t.Fatalf("point lookup sees %d possible readings, want 5:\n%s", rel.Len(), rel)
	}

	// Sensor 702's readings lie in both segments, so the scan probes;
	// sensor 1's lie in the first alone, which the zone maps leave the
	// scan, and it reads that segment without a run.
	for key, want := range map[int64]string{
		702: "Store Scan on u_sensor (2/2 segments, index sensor.id = 702)",
		1:   "Store Scan on u_sensor (1/2 segments)",
	} {
		plan, _, err := rw.Snapshot().Translate(urel.Poss(urel.Select(urel.Rel("sensor"), urel.Eq(urel.Col("id"), urel.Const(urel.Int(key))))))
		if err != nil {
			t.Fatal(err)
		}
		text, err := engine.Explain(plan, engine.NewCatalog(), true)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, want+"  (") {
			t.Errorf("EXPLAIN lacks documented annotation %q:\n%s", want, text)
		}
	}
}
