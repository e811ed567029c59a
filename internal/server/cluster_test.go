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

	"urel/internal/cluster"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
	"urel/internal/ws"
)

// clusterDB builds the cluster tests' dataset: readings is the sharded
// fact relation, sensors the replicated dimension. The tuple ids are
// chosen on parity — ShardHash with an odd multiplier maps even tids to
// shard 0 and odd tids to shard 1 at count=2 — so the reading (1, 70)
// is certain only across shards: its two representation rows (one per
// world of x) land on DIFFERENT shards, and any shard-local certain
// computation misses it.
func clusterDB(t *testing.T) *core.UDB {
	t.Helper()
	db := core.NewUDB()
	db.MustAddRelation("readings", "sid", "temp")
	db.MustAddRelation("sensors", "sensor", "name")
	x := db.W.NewBoolVar("x")
	ur := db.MustAddPartition("readings", "u_read", "sid", "temp")
	us := db.MustAddPartition("sensors", "u_sens", "sensor", "name")
	ur.Add(ws.MustDescriptor(ws.A(x, 1)), 1, engine.Int(1), engine.Int(70)) // shard 1
	ur.Add(ws.MustDescriptor(ws.A(x, 2)), 2, engine.Int(1), engine.Int(70)) // shard 0
	ur.Add(ws.MustDescriptor(ws.A(x, 1)), 3, engine.Int(2), engine.Int(80)) // shard 1, possible only
	ur.Add(nil, 4, engine.Int(3), engine.Int(90))                           // shard 0, certain
	us.Add(nil, 10, engine.Int(1), engine.Str("alpha"))
	us.Add(nil, 11, engine.Int(2), engine.Str("beta"))
	us.Add(nil, 12, engine.Int(3), engine.Str("gamma"))
	return db
}

// testCluster is an in-process sharded deployment: n shard servers over
// ShardedSave directories plus a coordinator server routing to them,
// all under the catalog name "demo".
type testCluster struct {
	coord  *httptest.Server
	coordS *Server
	shards []*httptest.Server
	nodes  []cluster.ShardNodes
}

func newTestCluster(t *testing.T, nShards int, writable bool) *testCluster {
	t.Helper()
	dirs := make([]string, nShards)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	if err := store.ShardedSave(clusterDB(t), dirs, []string{"readings"}); err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{}
	for i, dir := range dirs {
		_, ts := newTestServer(t, Config{Catalogs: map[string]string{"demo": dir}, Writable: writable})
		tc.shards = append(tc.shards, ts)
		tc.nodes = append(tc.nodes, cluster.ShardNodes{Name: fmt.Sprintf("s%d", i), Nodes: []string{ts.URL}})
	}
	tc.coordS, tc.coord = newTestServer(t, Config{Cluster: map[string]cluster.CatalogSpec{
		"demo": {Sharded: []string{"readings"}, Shards: tc.nodes},
	}})
	return tc
}

// rowSet canonicalizes a response's rows into a multiset keyed on
// re-marshaled JSON, so locally-built rows and shard-relayed raw rows
// compare equal regardless of order.
func rowSet(t *testing.T, body map[string]any) map[string]int {
	t.Helper()
	raw, ok := body["rows"].([]any)
	if !ok {
		t.Fatalf("response has no rows: %v", body)
	}
	out := map[string]int{}
	for _, r := range raw {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[string(b)]++
	}
	return out
}

// encodedRowSet is the rowSet of rows the server's encoder wrote, read
// back as a client reads them.
func encodedRowSet(t *testing.T, rows []json.RawMessage) map[string]int {
	t.Helper()
	b, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatal(err)
	}
	return rowSet(t, body)
}

// TestClusterDifferential: for every uncertainty mode, the coordinator's
// merged answer over 2 shards equals the single-node answer over the
// unsplit database — the scatter-gather semantics are exact, not
// approximate — and so do the status and error body of a request the
// server refuses: both run one request path.
func TestClusterDifferential(t *testing.T) {
	tc := newTestCluster(t, 2, false)
	single, singleTS := newTestServer(t, Config{})
	if err := single.AddDB("demo", clusterDB(t)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		req  queryRequest
		want int // the status both must answer
	}{
		{queryRequest{SQL: "POSSIBLE SELECT sid, temp FROM readings"}, 200},
		{queryRequest{SQL: "CERTAIN SELECT sid, temp FROM readings"}, 200},
		{queryRequest{SQL: "SELECT sid, temp FROM readings"}, 200}, // plain: shard concatenation
		{queryRequest{SQL: "CONF SELECT sid FROM readings"}, 200},
		{queryRequest{SQL: "CONF SELECT sid FROM readings", Accuracy: "auto"}, 200},
		{queryRequest{SQL: "CONF BOUNDS SELECT sid FROM readings"}, 200},
		{queryRequest{SQL: "POSSIBLE SELECT name FROM readings, sensors WHERE sid = sensor"}, 200},
		{queryRequest{SQL: "CERTAIN SELECT name FROM readings, sensors WHERE sid = sensor"}, 200},
		{queryRequest{SQL: "POSSIBLE SELECT sid, temp FROM readings", Limit: 1}, 200},
		{queryRequest{SQL: "CONF SELECT sid FROM readings", Accuracy: "sometimes"}, 400},
		{queryRequest{SQL: "CERTAIN SELECT sid FROM readings", Wire: "protobuf"}, 400},
		{queryRequest{SQL: "POSSIBLE SELECT sid FROM readings", Wire: "repr"}, 400},
	}
	for _, c := range cases {
		req := c.req
		req.DB = "demo"
		code, got := post(t, tc.coord, req)
		if code != c.want {
			t.Fatalf("%+v: coordinator status %d, want %d: %v", req, code, c.want, got)
		}
		wcode, want := post(t, singleTS, req)
		if wcode != c.want {
			t.Fatalf("%+v: single-node status %d, want %d: %v", req, wcode, c.want, want)
		}
		if c.want != 200 {
			if len(got) != 1 || got["error"] == nil || got["error"] != want["error"] {
				t.Errorf("%+v: coordinator error body %v, single node %v", req, got, want)
			}
			continue
		}
		if got["mode"] != want["mode"] || got["row_count"] != want["row_count"] {
			t.Errorf("%+v: mode, row_count %v, %v != %v, %v", req, got["mode"], got["row_count"], want["mode"], want["row_count"])
		}
		gs, wants := rowSet(t, got), rowSet(t, want)
		if req.Limit > 0 {
			// Which rows make the cut differs; the full count does not.
			if len(gs) != req.Limit || len(wants) != req.Limit || got["row_count"] != float64(3) {
				t.Errorf("%+v: coordinator %v, single node %v: want %d row of row_count 3", req, got, want, req.Limit)
			}
			continue
		}
		if len(gs) != len(wants) {
			t.Fatalf("%+v: coordinator %d distinct rows, single node %d\n coord: %v\n single: %v",
				req, len(gs), len(wants), gs, wants)
		}
		for k, n := range wants {
			if gs[k] != n {
				t.Errorf("%+v: row %s: coordinator ×%d, single node ×%d", req, k, gs[k], n)
			}
		}
	}
}

// TestClusterRowCap: a coordinator holds what it merges to its own row
// cap, as a node holds what it evaluates: possible and plain rows are
// cut at the cap and flagged truncated, and a certain answer or conf
// bounds whose gathered representation passes the cap fail 413 with the
// node's body. A statement one shard answers whole, which the
// coordinator relays, comes back under the coordinator's cap too.
func TestClusterRowCap(t *testing.T) {
	tc := newTestCluster(t, 2, false)
	_, coord := newTestServer(t, Config{MaxRows: 1, Cluster: map[string]cluster.CatalogSpec{
		"demo": {Sharded: []string{"readings"}, Shards: tc.nodes},
	}})
	single, singleTS := newTestServer(t, Config{MaxRows: 1})
	if err := single.AddDB("demo", clusterDB(t)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql       string
		status    int
		truncated any
	}{
		{"POSSIBLE SELECT sid, temp FROM readings", 200, true},
		{"SELECT sid, temp FROM readings", 200, true},
		{"CERTAIN SELECT sid, temp FROM readings", 413, nil},
		{"CONF BOUNDS SELECT sid FROM readings", 413, nil},
		{"POSSIBLE SELECT sensor, name FROM sensors", 200, true}, // one shard answers it whole: relayed
	} {
		req := queryRequest{SQL: c.sql, DB: "demo"}
		code, got := post(t, coord, req)
		wcode, want := post(t, singleTS, req)
		if wcode != c.status || want["truncated"] != c.truncated {
			t.Fatalf("%s on one node: status %d, want %d: %v", c.sql, wcode, c.status, want)
		}
		if code != wcode || got["error"] != want["error"] || got["truncated"] != want["truncated"] ||
			got["row_count"] != want["row_count"] {
			t.Errorf("%s: the coordinator answers %d %v, one node %d %v", c.sql, code, got, wcode, want)
		}
	}
}

// TestClusterCrossShardCertain pins the cases that distinguish merged
// from shard-local certain answers, neither with a descriptor-free row:
// (1, 70) is present in every world only because its two representation
// rows — one per world of x — live on different shards, and (4, 60) only
// because y -> 1 and y -> 3 ∧ x -> 1 live on one shard, y -> 2 and
// y -> 3 ∧ x -> 2 on the other, which no single variable covers: it
// takes normalizing x and y into one component over the union. Each
// shard alone deems both merely possible.
func TestClusterCrossShardCertain(t *testing.T) {
	db := clusterDB(t)
	x := db.W.NontrivialVars()[0]
	y := db.W.MustNewVar("y", 1, 2, 3)
	ur := db.Rels["readings"].Parts[0]
	ur.Add(ws.MustDescriptor(ws.A(y, 1)), 5, engine.Int(4), engine.Int(60))             // shard 1
	ur.Add(ws.MustDescriptor(ws.A(y, 2)), 6, engine.Int(4), engine.Int(60))             // shard 0
	ur.Add(ws.MustDescriptor(ws.A(x, 1), ws.A(y, 3)), 7, engine.Int(4), engine.Int(60)) // shard 1
	ur.Add(ws.MustDescriptor(ws.A(x, 2), ws.A(y, 3)), 8, engine.Int(4), engine.Int(60)) // shard 0
	coord, shards := buildCluster(t, db, 2)
	code, body := post(t, coord, queryRequest{SQL: "CERTAIN SELECT sid, temp FROM readings", DB: "demo"})
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	rows := rowSet(t, body)
	if len(rows) != 3 || rows["[1,70]"] != 1 || rows["[3,90]"] != 1 || rows["[4,60]"] != 1 {
		t.Fatalf("merged certain = %v, want exactly [1,70], [3,90] and [4,60]", rows)
	}
	// The coordinator decided them: one by its label, two over the union.
	_, text := get(t, coord.URL+"/stats")
	var st statsResponse
	if err := json.Unmarshal([]byte(text), &st); err != nil {
		t.Fatal(err)
	}
	if want := (certainPathCounters{Labelled: 1, Pipeline: 2}); st.CertainPaths != want {
		t.Fatalf("coordinator certain_paths = %+v, want %+v", st.CertainPaths, want)
	}

	// Each shard alone must NOT report them certain — this is what
	// makes the merged result a genuine cross-shard proof.
	for i, ts := range shards {
		scode, sbody := post(t, ts, queryRequest{SQL: "CERTAIN SELECT sid, temp FROM readings", DB: "demo"})
		if scode != 200 {
			t.Fatalf("shard %d: status %d: %v", i, scode, sbody)
		}
		if srows := rowSet(t, sbody); srows["[1,70]"] != 0 || srows["[4,60]"] != 0 {
			t.Fatalf("shard %d reports a cross-shard tuple certain on its slice alone: %v", i, srows)
		}
	}
}

// TestClusterConfValues checks the merged exact confidences and the
// cross-shard bounds combination against hand-computed values.
func TestClusterConfValues(t *testing.T) {
	tc := newTestCluster(t, 2, false)
	probs := func(sql string) map[string][2]float64 {
		code, body := post(t, tc.coord, queryRequest{SQL: sql, DB: "demo"})
		if code != 200 {
			t.Fatalf("%s: status %d: %v", sql, code, body)
		}
		out := map[string][2]float64{}
		for _, r := range rowsOf(t, body) {
			lo := r[len(r)-2].(float64)
			hi := r[len(r)-1].(float64)
			if len(r) == 2 { // CONF: single trailing probability
				lo = hi
			}
			out[fmt.Sprint(r[0])] = [2]float64{lo, hi}
		}
		return out
	}

	// Exact: sid 1 present in both worlds (rows on different shards) →
	// P=1; sid 2 only when x=1 → 1/2; sid 3 descriptor-free → 1.
	exact := probs("CONF SELECT sid FROM readings")
	for sid, want := range map[string]float64{"1": 1, "2": 0.5, "3": 1} {
		if p := exact[sid][1]; math.Abs(p-want) > 1e-12 {
			t.Errorf("CONF sid=%s: P=%v, want %v", sid, p, want)
		}
	}

	// Bounds: sid 1's per-shard bounds are (0.5, 0.5) on each shard;
	// merged lower = max = 0.5, merged upper = min(1, 0.5+0.5) = 1 —
	// the cross-shard combination, strictly wider than either shard's.
	bounds := probs("CONF BOUNDS SELECT sid FROM readings")
	want := map[string][2]float64{"1": {0.5, 1}, "2": {0.5, 0.5}, "3": {1, 1}}
	for sid, w := range want {
		got := bounds[sid]
		if math.Abs(got[0]-w[0]) > 1e-12 || math.Abs(got[1]-w[1]) > 1e-12 {
			t.Errorf("CONF BOUNDS sid=%s: [%v, %v], want [%v, %v]", sid, got[0], got[1], w[0], w[1])
		}
	}
}

// TestClusterRouting covers the routing decisions that never reach a
// shard evaluator: replicated-only queries relay to a single node,
// joins of two sharded relations are rejected, and the introspection
// endpoints describe the topology.
func TestClusterRouting(t *testing.T) {
	tc := newTestCluster(t, 2, false)

	// Replicated-only query: single-shard relay; the shard's response
	// passes through verbatim, so it is indistinguishable from a direct
	// answer (db echoes the catalog name the shard serves).
	code, body := post(t, tc.coord, queryRequest{SQL: "POSSIBLE SELECT name FROM sensors", DB: "demo"})
	if code != 200 {
		t.Fatalf("relay: status %d: %v", code, body)
	}
	if rows := rowSet(t, body); len(rows) != 3 {
		t.Fatalf("relay: %d rows, want 3 sensors: %v", len(rows), rows)
	}
	if body["db"] != "demo" || body["mode"] != "possible" {
		t.Fatalf("relay must preserve the response shape: %v", body)
	}

	// A join of two sharded relations cannot be evaluated per shard.
	_, bothTS := newTestServer(t, Config{Cluster: map[string]cluster.CatalogSpec{
		"demo": {Sharded: []string{"readings", "sensors"}, Shards: tc.nodes},
	}})
	code, body = post(t, bothTS, queryRequest{
		SQL: "POSSIBLE SELECT name FROM readings, sensors WHERE sid = sensor", DB: "demo"})
	if code != 400 || !strings.Contains(body["error"].(string), "sharded relations") {
		t.Fatalf("two-sharded join: status %d: %v, want 400 naming the relations", code, body)
	}

	// wire=repr applies to certain/conf only.
	code, body = post(t, tc.coord, queryRequest{SQL: "POSSIBLE SELECT sid FROM readings", DB: "demo", Wire: "repr"})
	if code != 400 {
		t.Fatalf("possible+repr: status %d: %v, want 400", code, body)
	}

	// EXPLAIN composes the routing decision with per-shard plans.
	code, body = post(t, tc.coord, queryRequest{SQL: "EXPLAIN POSSIBLE SELECT sid FROM readings", DB: "demo"})
	if code != 200 {
		t.Fatalf("explain: status %d: %v", code, body)
	}
	plan := body["plan"].(string)
	if !strings.Contains(plan, "Scatter-Gather on demo: fan-out 2/2 shards") ||
		!strings.Contains(plan, "shard s0:") || !strings.Contains(plan, "shard s1:") {
		t.Fatalf("explain plan missing scatter structure:\n%s", plan)
	}

	// /catalogs on the coordinator describes the topology.
	resp, err := http.Get(tc.coord.URL + "/catalogs")
	if err != nil {
		t.Fatal(err)
	}
	var cats map[string]catalogInfo
	if err := json.NewDecoder(resp.Body).Decode(&cats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ci := cats["demo"].Cluster; ci == nil || len(ci.Shards) != 2 || ci.Sharded[0] != "readings" {
		t.Fatalf("/catalogs cluster info: %+v", cats["demo"])
	}
}

// TestClusterDML: inserts route to the write shard's primary,
// deletes scatter to every primary and sum their counts, and
// replicated relations are read-only under sharding.
func TestClusterDML(t *testing.T) {
	tc := newTestCluster(t, 2, true)
	exec := func(sql string) (int, map[string]any) {
		t.Helper()
		b, _ := json.Marshal(execRequest{SQL: sql, DB: "demo"})
		resp, err := http.Post(tc.coord.URL+"/exec", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	// Insert lands on shard 0's primary; the scattered read sees it.
	code, body := exec("insert into readings values (9, 99)")
	if code != 200 || body["kind"] != "insert" {
		t.Fatalf("insert: status %d: %v", code, body)
	}
	code, qbody := post(t, tc.coord, queryRequest{SQL: "POSSIBLE SELECT sid, temp FROM readings", DB: "demo"})
	if code != 200 {
		t.Fatalf("read-after-insert: status %d: %v", code, qbody)
	}
	if rows := rowSet(t, qbody); rows["[9,99]"] != 1 {
		t.Fatalf("inserted row not visible through the coordinator: %v", rows)
	}

	// Delete scatters: (1,70) has one representation row on EACH shard,
	// so the summed count proves both primaries executed it.
	code, body = exec("delete from readings where temp = 70")
	if code != 200 {
		t.Fatalf("delete: status %d: %v", code, body)
	}
	if n := body["tuples"].(float64); n != 2 {
		t.Fatalf("scattered delete removed %v representation rows, want 2 (one per shard)", n)
	}

	// Replicated relations reject DML: per-shard writes would diverge.
	code, body = exec("insert into sensors values (4, 'delta')")
	if code != 403 || !strings.Contains(body["error"].(string), "replicated") {
		t.Fatalf("replicated DML: status %d: %v, want 403", code, body)
	}

	// INSERT ... SELECT reading a sharded relation sees one slice only.
	code, body = exec("insert into readings select sid, temp from readings")
	if code != 400 || !strings.Contains(body["error"].(string), "sharded relation") {
		t.Fatalf("insert-select from sharded: status %d: %v, want 400", code, body)
	}
}

// TestClusterFailover: a dead node fails over to the shard's next node;
// a shard with every node dead yields the explicit 503 naming it.
func TestClusterFailover(t *testing.T) {
	tc := newTestCluster(t, 2, false)

	// A single-shard spec listing a dead node first: the coordinator's
	// very first read (round-robin rotation 0) tries the dead node,
	// fails at the transport, and routes around it — deterministically
	// one failover.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, coordTS := newTestServer(t, Config{Cluster: map[string]cluster.CatalogSpec{
		"demo": {Sharded: []string{"readings"}, Shards: []cluster.ShardNodes{
			{Name: "s0", Nodes: []string{dead.URL, tc.nodes[0].Nodes[0]}},
		}},
	}})
	code, body := post(t, coordTS, queryRequest{SQL: "POSSIBLE SELECT sid FROM readings", DB: "demo"})
	if code != 200 {
		t.Fatalf("failover read: status %d: %v", code, body)
	}
	if rows := rowSet(t, body); len(rows) != 2 {
		t.Fatalf("failover read over shard 0's slice: %v", rows)
	}

	// All nodes of s1 dead: the 503 names the shard and the catalog.
	nodes := []cluster.ShardNodes{
		tc.nodes[0],
		{Name: "s1", Nodes: []string{dead.URL}},
	}
	_, downTS := newTestServer(t, Config{Cluster: map[string]cluster.CatalogSpec{
		"demo": {Sharded: []string{"readings"}, Shards: nodes},
	}})
	code, body = post(t, downTS, queryRequest{SQL: "POSSIBLE SELECT sid FROM readings", DB: "demo"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead shard: status %d: %v, want 503", code, body)
	}
	msg := body["error"].(string)
	if !strings.Contains(msg, `shard "s1"`) || !strings.Contains(msg, `catalog "demo"`) {
		t.Fatalf("503 must name the dead shard: %q", msg)
	}

	// Metrics surface the fan-out and the failure.
	mresp, err := http.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	_, _ = mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metrics := mb.String()
	if !strings.Contains(metrics, `urel_shard_requests_total{catalog="demo",shard="s0"}`) {
		t.Fatalf("metrics missing shard request counters:\n%s", metrics)
	}
	if !strings.Contains(metrics, `urel_shard_failovers_total{catalog="demo",shard="s0"} 1`) {
		t.Fatalf("metrics missing the failover count:\n%s", metrics)
	}
}

// TestClusterReplica: a follower bootstraps from the primary, applies
// shipped WAL commits, converges (lag → 0), refuses writes, and serves
// coordinator reads when the primary dies.
func TestClusterReplica(t *testing.T) {
	primaryDir := t.TempDir()
	if err := store.Save(clusterDB(t), primaryDir); err != nil {
		t.Fatal(err)
	}
	primaryS, primaryTS := newTestServer(t, Config{
		Catalogs: map[string]string{"demo": primaryDir}, Writable: true})
	followerS, followerTS := newTestServer(t, Config{
		Catalogs: map[string]string{"demo": t.TempDir()},
		Follow:   map[string]string{"demo": primaryTS.URL}})

	query := func(ts *httptest.Server, sql string) map[string]int {
		t.Helper()
		code, body := post(t, ts, queryRequest{SQL: sql, DB: "demo"})
		if code != 200 {
			t.Fatalf("%s: status %d: %v", sql, code, body)
		}
		return rowSet(t, body)
	}

	// The initial sync is a complete clone.
	if rows := query(followerTS, "POSSIBLE SELECT sid, temp FROM readings"); len(rows) != 3 {
		t.Fatalf("bootstrapped follower rows: %v", rows)
	}

	// A primary commit ships through /wal/stream and becomes visible.
	b, _ := json.Marshal(execRequest{SQL: "insert into readings values (9, 99)", DB: "demo"})
	resp, err := http.Post(primaryTS.URL+"/exec", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("primary insert: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if rows := query(followerTS, "POSSIBLE SELECT sid, temp FROM readings"); rows["[9,99]"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica did not apply the shipped insert within 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Converged: the lag gauge returns to zero.
	for {
		entry, _, err := followerS.lookup("demo")
		if err != nil {
			t.Fatal(err)
		}
		if st := entry.rep.Stats(); st.LagBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica lag did not converge to 0")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Followers refuse writes, pointing at the primary.
	resp, err = http.Post(followerTS.URL+"/exec", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var eb map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != 403 || !strings.Contains(eb["error"].(string), "read replica") {
		t.Fatalf("follower write: status %d: %v, want 403", resp.StatusCode, eb)
	}

	// Coordinator failover: with the primary listed first and dead, the
	// replica serves the read.
	_, coordTS := newTestServer(t, Config{Cluster: map[string]cluster.CatalogSpec{
		"demo": {Sharded: []string{"readings"}, Shards: []cluster.ShardNodes{
			{Name: "s0", Nodes: []string{primaryTS.URL, followerTS.URL}},
		}},
	}})
	primaryS.Close() // aborts the follower's in-flight long-poll
	primaryTS.Close()
	code, body := post(t, coordTS, queryRequest{SQL: "POSSIBLE SELECT sid, temp FROM readings", DB: "demo"})
	if code != 200 {
		t.Fatalf("read after primary death: status %d: %v", code, body)
	}
	if rows := rowSet(t, body); rows["[9,99]"] != 1 {
		t.Fatalf("replica-served read missing the replicated insert: %v", rows)
	}
}
