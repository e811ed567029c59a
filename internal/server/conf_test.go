package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// coinsDB builds one answer tuple over n coins whose lineage has one
// descriptor per conjunction, each listing the coins that must show 1.
func coinsDB(t *testing.T, n int, conjs [][]int) *core.UDB {
	t.Helper()
	db := core.NewUDB()
	db.MustAddRelation("big", "a")
	u := db.MustAddPartition("big", "", "a")
	var vars []ws.Var
	for i := 0; i < n; i++ {
		vars = append(vars, db.W.NewBoolVar(fmt.Sprintf("x%d", i)))
	}
	for i, c := range conjs {
		var as []ws.Assignment
		for _, j := range c {
			as = append(as, ws.A(vars[j], 1))
		}
		u.Add(ws.MustDescriptor(as...), int64(i+1), engine.Int(7))
	}
	return db
}

// chainedDB chains n coins pairwise — (x0∧x1) ∨ (x1∧x2) ∨ … — a single
// variable-connected component with overlapping non-exclusive
// disjuncts. It is exact however long, but from a few coins on it takes
// more expansion steps than it has descriptors, which counts it as
// enumeration.
func chainedDB(t *testing.T, n int) *core.UDB {
	var conjs [][]int
	for i := 0; i+1 < n; i++ {
		conjs = append(conjs, []int{i, i + 1})
	}
	return coinsDB(t, n, conjs)
}

// hardDB builds confidence lineage that is hard in fact: a seeded random
// 3-DNF of 160 conjunctions over 80 coins. It exhausts the exact
// evaluator's step budget, leaving Monte-Carlo.
func hardDB(t *testing.T) *core.UDB {
	rng := rand.New(rand.NewSource(1))
	conjs := make([][]int, 160)
	for i := range conjs {
		conjs[i] = rng.Perm(80)[:3]
	}
	return coinsDB(t, 80, conjs)
}

// TestServerConfBoundsStatement: CONF BOUNDS SELECT returns
// certain/possible bound columns, exact on both ends for the vehicles
// fixture's two-alternative tuples.
func TestServerConfBoundsStatement(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts, queryRequest{SQL: "CONF BOUNDS SELECT typ FROM r WHERE id = 2"})
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["mode"] != "conf-bounds" {
		t.Fatalf("mode = %v, want conf-bounds", body["mode"])
	}
	if body["estimator"] != "bounds" {
		t.Fatalf("estimator = %v, want bounds", body["estimator"])
	}
	cols := body["columns"].([]any)
	if n := len(cols); cols[n-2] != "_p_lo" || cols[n-1] != "_p_hi" {
		t.Fatalf("bounds columns: %v", cols)
	}
	for _, r := range rowsOf(t, body) {
		lo, hi := r[len(r)-2].(float64), r[len(r)-1].(float64)
		// One disjunct of probability 1/2 each: the bounds are tight.
		if lo != 0.5 || hi != 0.5 {
			t.Fatalf("vehicle 2 bounds [%v, %v], want [0.5, 0.5]", lo, hi)
		}
	}
}

// TestServerConfAccuracyKnob: the accuracy knob switches a CONF query
// between exact and bounds; unknown values are a 400.
func TestServerConfAccuracyKnob(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts, queryRequest{SQL: "CONF SELECT typ FROM r WHERE id = 2", Accuracy: "bounds"})
	if code != 200 || body["estimator"] != "bounds" {
		t.Fatalf("accuracy=bounds: status %d, estimator %v", code, body["estimator"])
	}
	code, body = post(t, ts, queryRequest{SQL: "CONF SELECT typ FROM r WHERE id = 2", Accuracy: "exact"})
	if code != 200 || body["estimator"] != "read-once" {
		t.Fatalf("accuracy=exact: status %d, estimator %v", code, body["estimator"])
	}
	if body["degraded"] != nil {
		t.Fatalf("exact answer within deadline must not be flagged degraded: %v", body)
	}
	code, body = post(t, ts, queryRequest{SQL: "CONF SELECT typ FROM r WHERE id = 2", Accuracy: "somewhat"})
	if code != 400 {
		t.Fatalf("unknown accuracy: status %d: %v", code, body)
	}
}

// TestServerConfBoundsBeatsDeadline is the bounds mode's service-level
// claim: on lineage where exact CONF cannot finish within the request
// deadline, the same query 504s with accuracy=exact, answers instantly
// with accuracy=bounds, and degrades gracefully with accuracy=auto.
func TestServerConfBoundsBeatsDeadline(t *testing.T) {
	// Neither the step budget nor, were it reached, 200M samples over 80
	// variables can finish in 150ms; the deadline probes inside the
	// evaluator and the sampler make the exact path fail
	// deterministically rather than stall.
	s, ts := newTestServer(t, Config{MCSamples: 200_000_000})
	if err := s.AddDB("big", hardDB(t)); err != nil {
		t.Fatal(err)
	}
	req := queryRequest{SQL: "CONF SELECT a FROM big", TimeoutMS: 150}

	req.Accuracy = "exact"
	code, body := post(t, ts, req)
	if code != 504 {
		t.Fatalf("accuracy=exact under deadline: status %d, want 504: %v", code, body)
	}

	req.Accuracy = "bounds"
	code, body = post(t, ts, req)
	if code != 200 || body["estimator"] != "bounds" {
		t.Fatalf("accuracy=bounds: status %d, estimator %v", code, body["estimator"])
	}
	rows := rowsOf(t, body)
	if len(rows) != 1 {
		t.Fatalf("one distinct tuple, got %v", rows)
	}
	lo, hi := rows[0][1].(float64), rows[0][2].(float64)
	// 160 disjuncts of probability 1/8: lower bound 1/8, upper clamps to 1.
	if lo != 0.125 || hi != 1 {
		t.Fatalf("bounds [%v, %v], want [0.125, 1]", lo, hi)
	}

	req.Accuracy = "auto"
	code, body = post(t, ts, req)
	if code != 200 || body["estimator"] != "bounds" || body["degraded"] != true {
		t.Fatalf("accuracy=auto: status %d, estimator %v, degraded %v",
			code, body["estimator"], body["degraded"])
	}
}

// TestServerConfPathStats: /stats breaks CONF evaluation down by what
// each distinct answer tuple cost (bounds / read-once / enumeration /
// Monte-Carlo).
func TestServerConfPathStats(t *testing.T) {
	s, ts := newTestServer(t, Config{MCSamples: 1000})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	// Chained lineage: exact, in more steps than it has descriptors →
	// counted as enumeration.
	if err := s.AddDB("small", chainedDB(t, 23)); err != nil {
		t.Fatal(err)
	}
	// Random 3-DNF over 80 coins: past the step budget → Monte-Carlo.
	if err := s.AddDB("big", hardDB(t)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []queryRequest{
		{SQL: "CONF BOUNDS SELECT typ FROM r WHERE id = 2", DB: "vehicles"},
		{SQL: "CONF SELECT typ FROM r WHERE id = 2", DB: "vehicles"},
		{SQL: "CONF SELECT a FROM big", DB: "small"},
		{SQL: "CONF SELECT a FROM big", DB: "big"},
	} {
		if code, body := post(t, ts, q); code != 200 {
			t.Fatalf("%s: status %d: %v", q.SQL, code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Vehicle 2 has two distinct answer tuples (Tank, Transport), so
	// both the bounds and the read-once queries count 2 tuples each.
	want := confPathCounters{Bounds: 2, ReadOnce: 2, Enumeration: 1, MonteCarlo: 1}
	if st.ConfPaths != want {
		t.Fatalf("conf_paths = %+v, want %+v", st.ConfPaths, want)
	}
}
