package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// vehiclesDB is the paper's running example: vehicle 1 is certainly a
// Tank, vehicle 2 is a Tank or a Transport depending on x.
func vehiclesDB(t testing.TB) *core.UDB {
	t.Helper()
	db := core.NewUDB()
	db.MustAddRelation("r", "id", "typ")
	x := db.W.NewBoolVar("x")
	uid := db.MustAddPartition("r", "u_id", "id")
	uty := db.MustAddPartition("r", "u_typ", "typ")
	uid.Add(nil, 1, engine.Int(1))
	uid.Add(nil, 2, engine.Int(2))
	uty.Add(nil, 1, engine.Str("Tank"))
	uty.Add(ws.MustDescriptor(ws.A(x, 1)), 2, engine.Str("Tank"))
	uty.Add(ws.MustDescriptor(ws.A(x, 2)), 2, engine.Str("Transport"))
	return db
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// post sends a query and decodes the JSON response.
func post(t *testing.T, ts *httptest.Server, req queryRequest) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func rowsOf(t *testing.T, body map[string]any) [][]any {
	t.Helper()
	raw, ok := body["rows"].([]any)
	if !ok {
		t.Fatalf("response has no rows: %v", body)
	}
	out := make([][]any, len(raw))
	for i, r := range raw {
		out[i] = r.([]any)
	}
	return out
}

func TestServerModes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}

	// possible: both types are possible for vehicle 2.
	code, body := post(t, ts, queryRequest{SQL: "POSSIBLE SELECT typ FROM r WHERE id = 2"})
	if code != 200 {
		t.Fatalf("possible: status %d: %v", code, body)
	}
	if rows := rowsOf(t, body); len(rows) != 2 {
		t.Fatalf("possible: %d rows, want 2 (Tank, Transport): %v", len(rows), rows)
	}
	if body["mode"] != "possible" || body["db"] != "vehicles" {
		t.Fatalf("mode/db echo wrong: %v", body)
	}

	// certain: only vehicle 1 is certainly a Tank.
	code, body = post(t, ts, queryRequest{SQL: "CERTAIN SELECT id FROM r WHERE typ = 'Tank'"})
	if code != 200 {
		t.Fatalf("certain: status %d: %v", code, body)
	}
	rows := rowsOf(t, body)
	if len(rows) != 1 || rows[0][0].(float64) != 1 {
		t.Fatalf("certain: want [[1]], got %v", rows)
	}

	// conf: vehicle 2 is a Tank with probability 1/2 (x uniform). The
	// single-variable lineage is read-once, so the fast path answers it
	// exactly without enumeration.
	code, body = post(t, ts, queryRequest{SQL: "CONF SELECT typ FROM r WHERE id = 2"})
	if code != 200 {
		t.Fatalf("conf: status %d: %v", code, body)
	}
	if body["estimator"] != "read-once" {
		t.Fatalf("conf estimator: %v", body["estimator"])
	}
	probs := map[string]float64{}
	for _, r := range rowsOf(t, body) {
		probs[r[0].(string)] = r[len(r)-1].(float64)
	}
	if probs["Tank"] != 0.5 || probs["Transport"] != 0.5 {
		t.Fatalf("conf probabilities: %v", probs)
	}

	// plain: the representation itself, descriptor first.
	code, body = post(t, ts, queryRequest{SQL: "SELECT typ FROM r WHERE id = 2"})
	if code != 200 {
		t.Fatalf("plain: status %d: %v", code, body)
	}
	cols := body["columns"].([]any)
	if cols[0] != "_d" {
		t.Fatalf("plain result should lead with the descriptor column: %v", cols)
	}
	if rows := rowsOf(t, body); len(rows) != 2 {
		t.Fatalf("plain: want the 2 representation tuples of vehicle 2, got %v", rows)
	}
}

// TestServerConfReadOnceBeyondCap: a 23-way conjunction has 2^23 joint
// assignments, but its lineage is one product — exact without a single
// expansion step, so counted read-once.
func TestServerConfReadOnceBeyondCap(t *testing.T) {
	db := core.NewUDB()
	db.MustAddRelation("big", "a")
	u := db.MustAddPartition("big", "", "a")
	var assigns []ws.Assignment
	for i := 0; i < 23; i++ {
		assigns = append(assigns, ws.A(db.W.NewBoolVar(fmt.Sprintf("x%d", i)), 1))
	}
	// One tuple present only when all 23 coins land on 1: P = 2^-23.
	u.Add(ws.MustDescriptor(assigns...), 1, engine.Int(7))

	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("big", db); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts, queryRequest{SQL: "CONF SELECT a FROM big"})
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["estimator"] != "read-once" {
		t.Fatalf("estimator = %v, want read-once for a 23-way conjunction", body["estimator"])
	}
	rows := rowsOf(t, body)
	if len(rows) != 1 {
		t.Fatalf("one distinct tuple, got %v", rows)
	}
	if p := rows[0][1].(float64); p != 1/float64(1<<23) {
		t.Fatalf("P(all 23 coins = 1) = %v, want exactly 2^-23", p)
	}
}

// TestServerConfMCFallback: a tuple whose lineage exhausts the exact
// evaluator's step budget must be answered by the Monte-Carlo
// estimator, not an error — and a chain of 23 coins, which the former
// joint-domain enumeration had to hand to the sampler, is exact.
func TestServerConfMCFallback(t *testing.T) {
	s, ts := newTestServer(t, Config{MCSamples: 2000})
	if err := s.AddDB("big", hardDB(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDB("chain", chainedDB(t, 23)); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts, queryRequest{SQL: "CONF SELECT a FROM big", DB: "big"})
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["estimator"] != "monte-carlo" {
		t.Fatalf("estimator = %v, want monte-carlo past the step budget", body["estimator"])
	}
	rows := rowsOf(t, body)
	if len(rows) != 1 {
		t.Fatalf("one distinct tuple, got %v", rows)
	}
	// Each coin triple holds with probability 1/8 and there are 160.
	if p := rows[0][1].(float64); p < 0.9 || p > 1 {
		t.Fatalf("union of 160 coin triples estimated at %v, want ≈1", p)
	}

	code, body = post(t, ts, queryRequest{SQL: "CONF SELECT a FROM big", DB: "chain"})
	if code != 200 || body["estimator"] != "exact" {
		t.Fatalf("chain of 23 coins: status %d, estimator %v, want exact", code, body["estimator"])
	}
	// P(some adjacent coin pair is 1,1) = 1 − Fib(25)/2^23.
	want := 1 - 75025.0/float64(1<<23)
	if p := rowsOf(t, body)[0][1].(float64); math.Abs(p-want) > 1e-12 {
		t.Fatalf("chained-pair union = %v, want %v", p, want)
	}
}

// TestServerRefusesUnencodableValues: JSON has no NaN, so an answer
// holding one is a 500 with an error body, not a 200 whose body breaks
// off where encoding failed.
func TestServerRefusesUnencodableValues(t *testing.T) {
	db := core.NewUDB()
	db.MustAddRelation("m", "x")
	u := db.MustAddPartition("m", "u_x", "x")
	u.Add(nil, 1, engine.Float(1.5))
	u.Add(nil, 2, engine.Float(math.NaN()))
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("m", db); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"POSSIBLE SELECT x FROM m", "SELECT x FROM m", "CONF SELECT x FROM m"} {
		if code, body := post(t, ts, queryRequest{SQL: sql}); code != 500 || body["error"] == nil {
			t.Errorf("%s: status %d, want 500 with an error: %v", sql, code, body)
		}
	}
}

func TestServerErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		req  queryRequest
		code int
	}{
		{queryRequest{SQL: "select from where"}, 400},                 // parse error
		{queryRequest{SQL: "select * from nosuch"}, 400},              // unknown table
		{queryRequest{SQL: "possible select * from r", DB: "x"}, 404}, // unknown catalog
		{queryRequest{}, 400},                                         // missing sql
	}
	for _, c := range cases {
		code, body := post(t, ts, c.req)
		if code != c.code {
			t.Errorf("%+v: status %d, want %d (%v)", c.req, code, c.code, body)
		}
		if body["error"] == "" {
			t.Errorf("%+v: error body missing", c.req)
		}
	}

	// GET on /query is not allowed.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d", resp.StatusCode)
	}
}

// TestServerBodyLimit: a request body past maxBodyBytes is refused with
// 413 and an error body instead of being buffered, on /query and /exec
// alike, and the server goes on answering ordinary queries.
func TestServerBodyLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 17<<20)
	big := []byte(`{"sql": "possible select typ from r", "pad": "` + pad + `"}`)
	for _, path := range []string{"/query", "/exec"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || body["error"] == nil {
			t.Fatalf("%s with a 17 MiB body: status %d, body %v (%v), want 413 with an error", path, resp.StatusCode, body, derr)
		}
	}
	if code, body := post(t, ts, queryRequest{SQL: "possible select typ from r"}); code != 200 {
		t.Fatalf("query after the refused body: status %d: %v", code, body)
	}
}

func TestServerRowLimitAndTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRows: 2})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}

	// possible: the representation exceeds 2 rows -> truncated result.
	code, body := post(t, ts, queryRequest{SQL: "POSSIBLE SELECT id, typ FROM r"})
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["truncated"] != true {
		t.Fatalf("row-capped possible query should be flagged truncated: %v", body)
	}
	if n := body["row_count"].(float64); n != 2 {
		t.Fatalf("row_count %v, want 2 (the cap)", n)
	}

	// certain: truncation would be silently wrong -> 413.
	code, body = post(t, ts, queryRequest{SQL: "CERTAIN SELECT id, typ FROM r"})
	if code != 413 {
		t.Fatalf("certain over the row cap: status %d, want 413: %v", code, body)
	}

	// Exactly at the cap nothing is cut: r's representation has 3 rows
	// for (id, typ), so under a cap of 3 the certain answer is computed
	// and the plain one is whole.
	sAt, tsAt := newTestServer(t, Config{MaxRows: 3})
	if err := sAt.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	if code, body = post(t, tsAt, queryRequest{SQL: "CERTAIN SELECT id, typ FROM r"}); code != 200 {
		t.Fatalf("certain at exactly the row cap: status %d, want 200: %v", code, body)
	}
	code, body = post(t, tsAt, queryRequest{SQL: "SELECT id, typ FROM r"})
	if code != 200 || body["truncated"] != nil || body["row_count"] != float64(3) {
		t.Fatalf("plain at exactly the row cap: status %d, want 200 with 3 rows, not truncated: %v", code, body)
	}

	// A negative client timeout is ignored.
	code, _ = post(t, ts, queryRequest{SQL: "POSSIBLE SELECT id FROM r", TimeoutMS: -1})
	if code != 200 {
		t.Fatalf("negative timeout must be ignored: %d", code)
	}
	sTight, tsTight := newTestServer(t, Config{Timeout: time.Nanosecond})
	if err := sTight.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	code, body = post(t, tsTight, queryRequest{SQL: "POSSIBLE SELECT id FROM r"})
	if code != 504 {
		t.Fatalf("expired deadline: status %d, want 504: %v", code, body)
	}
}

// TestServerAdmission: with every slot held, requests are rejected
// with 429 (and Retry-After) once the queue wait elapses.
func TestServerAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueWait: 10 * time.Millisecond})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	// Occupy both slots.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()

	body, _ := json.Marshal(queryRequest{SQL: "POSSIBLE SELECT id FROM r"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 should carry Retry-After")
	}
	if s.rejected.Value() != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.rejected.Value())
	}
}

// TestNormalizeSQLPreservesLiterals: whitespace inside single-quoted
// literals is data — it must survive normalization, and statements
// differing only inside a literal must not share a cache key.
func TestNormalizeSQLPreservesLiterals(t *testing.T) {
	got := normalizeSQL("  select   a\nfrom r where s = 'x  \t y' ")
	want := "select a from r where s = 'x  \t y'"
	if got != want {
		t.Fatalf("normalizeSQL = %q, want %q", got, want)
	}
	a := normalizeSQL("select a from r where s = 'x  y'")
	b := normalizeSQL("select a from r where s = 'x y'")
	if a == b {
		t.Fatal("distinct literals must not collide onto one cache key")
	}
	// Doubled-quote escapes keep the literal open across the pair.
	esc := normalizeSQL("select a from r where s = 'O''Brien  x'   and b = 1")
	if esc != "select a from r where s = 'O''Brien  x' and b = 1" {
		t.Fatalf("escape handling: %q", esc)
	}
}

func TestServerIntrospection(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	post(t, ts, queryRequest{SQL: "possible select id from r"})
	post(t, ts, queryRequest{SQL: "  possible   select id\n from r "}) // same statement modulo whitespace

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 2 {
		t.Fatalf("stats report %d queries, want 2", st.Queries)
	}
	if st.PlanCache.Hits != 1 || st.PlanCache.Misses != 1 {
		t.Fatalf("plan cache hits/misses = %d/%d, want 1/1 (whitespace-normalized key)",
			st.PlanCache.Hits, st.PlanCache.Misses)
	}
	if _, ok := st.Catalogs["vehicles"]; !ok {
		t.Fatalf("stats missing catalog: %+v", st.Catalogs)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
}
