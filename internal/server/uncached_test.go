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
	"urel/internal/txn"
)

// servedMixStatements are the statement shapes of the served_mix
// workload, one constant each, as servedMixShapes in the root package's
// stitch_test.go lists them.
var servedMixStatements = []string{
	"possible select l_extendedprice from lineitem where l_quantity < 3 and l_discount < 0.02",
	"possible select o_totalprice from orders where o_orderkey < 188",
	"possible select l_extendedprice from lineitem where l_shipdate between '1994-01-01' and '1994-01-21' and l_quantity < 10",
	"possible select c_name from customer where c_acctbal < 100",
	"possible select c_name, o_totalprice from customer, orders where c_custkey = o_custkey and o_orderkey < 300",
	"possible select o_orderkey, l_quantity from orders, lineitem where o_orderkey = l_orderkey and o_orderkey < 113",
	"possible select n_name, c_name from nation, customer where n_nationkey = c_nationkey and c_custkey < 113",
	"possible select s_name, l_quantity from supplier, lineitem where s_suppkey = l_suppkey and l_orderkey < 75",
	"possible select l_extendedprice, l_quantity from lineitem where l_orderkey = 77",
	"certain select c_mktsegment from customer where c_custkey < 113",
	"certain select o_orderstatus from orders where o_orderkey < 376",
	"certain select o_shippriority from orders where o_orderkey < 751",
	"conf select o_orderstatus from orders where o_orderkey < 300",
	"conf select c_mktsegment from customer where c_custkey < 188",
	"conf select o_orderpriority from orders where o_orderkey < 188",
	"conf bounds select o_orderpriority from orders where o_orderkey < 450",
	"conf bounds select c_mktsegment from customer",
}

// queryRows posts one statement and returns its rows as sorted strings.
func queryRows(ts *httptest.Server, sql string) ([]string, error) {
	body, _ := json.Marshal(queryRequest{SQL: sql})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	raw, ok := out["rows"].([]any)
	if resp.StatusCode != 200 || !ok {
		return nil, fmt.Errorf("%q: status %d: %v", sql, resp.StatusCode, out)
	}
	rows := make([]string, len(raw))
	for i, r := range raw {
		rows[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(rows)
	return rows, nil
}

// TestUncachedServingRecyclesSafely: a server without a segment cache
// (DisableSegCache), each of whose scans decodes into pooled buffers and
// recycles them at Close, answers the served_mix statements from several
// goroutines at once, every answer equal to what a server with the cache
// — whose segments are never recycled — answers, over TPC-H data with
// lineitem(l_orderkey) indexed; every recycled buffer is poisoned
// (store.PoisonRecycled). CI runs it under -race, ten times.
func TestUncachedServingRecyclesSafely(t *testing.T) {
	defer store.PoisonRecycled()()
	p := tpch.DefaultParams(0.1, 0.01, 0.25)
	p.Seed = 1
	db, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(db, dir); err != nil {
		t.Fatal(err)
	}
	w, err := txn.Open(dir, txn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("create index on lineitem(l_orderkey)"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	serve := func(disableCache bool) *httptest.Server {
		s, err := New(Config{Catalogs: map[string]string{"tpch": dir}, DisableSegCache: disableCache,
			MaxConcurrent: 8, QueueWait: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return ts
	}
	cached, uncached := serve(false), serve(true)
	goldens := make([][]string, len(servedMixStatements))
	for i, sql := range servedMixStatements {
		if goldens[i], err = queryRows(cached, sql); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range servedMixStatements {
				i := (g + k) % len(servedMixStatements)
				rows, err := queryRows(uncached, servedMixStatements[i])
				if err != nil {
					errCh <- err
					return
				}
				if !equalMultisets(rows, goldens[i]) {
					errCh <- fmt.Errorf("goroutine %d %q: %d rows without the cache, %d with it",
						g, servedMixStatements[i], len(rows), len(goldens[i]))
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
}
