package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"urel/internal/store"
	"urel/internal/tpch"
)

// stressQueries mixes every mode over the uncertain TPC-H schema.
var stressQueries = []queryRequest{
	{SQL: "possible select l_extendedprice from lineitem where l_quantity < 24"},
	{SQL: "possible select c_mktsegment from customer where c_custkey < 10"},
	{SQL: "possible select n_name from nation, region where n_regionkey = r_regionkey"},
	{SQL: "certain select c_mktsegment from customer where c_custkey < 5"},
	{SQL: "conf select o_shippriority from orders where o_orderkey < 8"},
	{SQL: "select n_name from nation where n_nationkey < 3"},
	{SQL: `possible select o_orderkey, o_orderdate, o_shippriority
		from customer, orders, lineitem
		where c_mktsegment = 'BUILDING' and c_custkey = o_custkey
		and o_orderkey = l_orderkey and o_orderdate > '1995-03-15'
		and l_shipdate < '1995-03-17'`},
}

// canonicalRows reduces a response body to a sorted multiset of row
// strings, so concurrent and serial results compare order-free.
func canonicalRows(t *testing.T, body map[string]any) []string {
	t.Helper()
	raw, ok := body["rows"].([]any)
	if !ok {
		t.Fatalf("no rows in %v", body)
	}
	out := make([]string, len(raw))
	for i, r := range raw {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return out
}

func equalMultisets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServerStress is the acceptance-criteria proof: 64 goroutines
// fire mixed-mode queries at one shared, lazily-opened (segment-
// backed) catalog; every concurrent result must be multiset-equal to
// the serial execution of the same statement, the shared segment
// cache must show measured hits, and every concurrent query must run
// the physical plan its serial golden cached — one plan, lowered by
// many goroutines at once. Run under -race in CI.
func TestServerStress(t *testing.T) {
	db, _, err := tpch.Generate(tpch.DefaultParams(0.01, 0.01, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(db, dir); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Catalogs:      map[string]string{"tpch": dir},
		MaxConcurrent: 16,
		QueueWait:     time.Minute, // the stress must not shed load
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Serial goldens, one per statement.
	goldens := make([][]string, len(stressQueries))
	for i, q := range stressQueries {
		code, body := post(t, ts, q)
		if code != 200 {
			t.Fatalf("serial %q: status %d: %v", q.SQL, code, body)
		}
		goldens[i] = canonicalRows(t, body)
		if len(goldens[i]) == 0 {
			t.Fatalf("serial %q: empty result makes the stress vacuous", q.SQL)
		}
	}

	const goroutines = 64
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine runs every statement, starting at a
			// different offset so distinct plans overlap in flight.
			for k := 0; k < len(stressQueries); k++ {
				i := (g + k) % len(stressQueries)
				body, _ := json.Marshal(stressQueries[i])
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				var out map[string]any
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("goroutine %d %q: status %d: %v", g, stressQueries[i].SQL, resp.StatusCode, out)
					return
				}
				raw := out["rows"].([]any)
				rows := make([]string, len(raw))
				for j, r := range raw {
					rows[j] = fmt.Sprintf("%v", r)
				}
				sort.Strings(rows)
				if !equalMultisets(rows, goldens[i]) {
					errCh <- fmt.Errorf("goroutine %d %q: concurrent result (%d rows) != serial (%d rows)",
						g, stressQueries[i].SQL, len(rows), len(goldens[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := s.SegCacheStats()
	if st.Hits == 0 {
		t.Fatal("shared segment cache saw no hits under 64 concurrent re-scans")
	}
	t.Logf("segment cache: %d hits, %d misses, %d bytes resident", st.Hits, st.Misses, st.Bytes)
	if s.rejected.Value() != 0 {
		t.Fatalf("%d queries rejected despite the long queue wait", s.rejected.Value())
	}
	pc := s.plans.stats()
	if want := uint64(goroutines * len(stressQueries)); pc.Hits != want || pc.Misses != uint64(len(stressQueries)) {
		t.Fatalf("plan cache hits/misses = %d/%d, want %d/%d: each statement planned once, by its serial golden",
			pc.Hits, pc.Misses, want, len(stressQueries))
	}
}
