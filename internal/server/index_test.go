package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
)

// TestServerCreateIndexAndPointLookup drives the index path end to end
// over HTTP: CREATE INDEX arrives through /exec like any other
// statement, EXPLAIN over /query shows the point query's store scan
// probing the index, and the answers match what the full scan returned
// before the index existed.
func TestServerCreateIndexAndPointLookup(t *testing.T) {
	db := core.NewUDB()
	db.MustAddRelation("items", "k", "v")
	u := db.MustAddPartition("items", "u_items", "k", "v")
	const n = 5000
	for i := 0; i < n; i++ {
		// Shuffled keys so segment min/max stats cannot prune the scan.
		u.Add(nil, int64(i+1), engine.Int(int64((i*2654435761)%n)), engine.Int(int64(i)))
	}
	dir := t.TempDir()
	if err := store.Save(db, dir); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Catalogs: map[string]string{"items": dir},
		Writable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) map[string]any {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %v", path, resp.StatusCode, out)
		}
		return out
	}

	q := fmt.Sprintf("select v from items where k = %d", (123*2654435761)%n)
	before := post("/query", map[string]any{"db": "items", "sql": q})

	res := post("/exec", map[string]any{"db": "items", "sql": "create index on items(k)"})
	if res["kind"] != "create_index" {
		t.Fatalf("exec kind = %v, want create_index", res["kind"])
	}

	after := post("/query", map[string]any{"db": "items", "sql": q})
	if fmt.Sprint(before["rows"]) != fmt.Sprint(after["rows"]) {
		t.Fatalf("indexed answers diverge:\n before %v\n after  %v", before["rows"], after["rows"])
	}
	if rc, _ := after["row_count"].(float64); rc != 1 {
		t.Fatalf("row_count = %v, want 1", after["row_count"])
	}

	exp := post("/query", map[string]any{"db": "items", "sql": "explain " + q})
	plan, _ := exp["plan"].(string)
	probe := fmt.Sprintf(", index items.k = %d)", (123*2654435761)%n)
	if !strings.Contains(plan, "Store Scan on u_items (") || !strings.Contains(plan, probe) {
		t.Fatalf("EXPLAIN does not show the index probe:\n%s", plan)
	}

	// EXPLAIN ANALYZE executes through the same plan and must agree.
	ea := post("/query", map[string]any{"db": "items", "sql": "explain analyze " + q})
	plan, _ = ea["plan"].(string)
	if !strings.Contains(plan, probe) {
		t.Fatalf("EXPLAIN ANALYZE does not show the index probe:\n%s", plan)
	}
}
