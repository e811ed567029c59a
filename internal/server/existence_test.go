package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"urel/internal/store"
)

// savedVehicles saves the paper's vehicles relation with its
// existence-complete bit set — it holds: vehicle 1 is certain in both
// partitions, vehicle 2's id is certain and its type ranges over all of
// x's domain.
func savedVehicles(t *testing.T) string {
	t.Helper()
	db := vehiclesDB(t)
	db.Rels["r"].ExistenceComplete = true
	if err := db.CheckExistenceComplete("r"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(db, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// fullMergeOf reads catalog demo's "full_merge" from GET /stats.
func fullMergeOf(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	code, text := get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("/stats status %d", code)
	}
	var st struct {
		Catalogs map[string]struct {
			FullMerge []string `json:"full_merge"`
		} `json:"catalogs"`
	}
	if err := json.Unmarshal([]byte(text), &st); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(st.Catalogs["demo"].FullMerge)
}

// answerCount posts sql and returns how many rows came back.
func answerCount(t *testing.T, ts *httptest.Server, sql string) int {
	t.Helper()
	code, body := post(t, ts, queryRequest{SQL: sql, DB: "demo"})
	if code != 200 {
		t.Fatalf("%s: status %d: %v", sql, code, body)
	}
	return len(rowsOf(t, body))
}

// The DELETE of TestServerFullMergeAfterPartialDelete: it matches one
// alternative of vehicle 2 and all of vehicle 1.
const partialDelete = "DELETE FROM r WHERE typ = 'Tank'"

// TestServerFullMergeAfterPartialDelete: the vehicles relation is
// existence-complete, so every mode reads only the partitions its
// statement needs. A DELETE that matches one alternative of vehicle 2
// tombstones its id row and only that alternative of its type: the
// vehicle now exists in no world, while u_typ still says Transport
// where x = 2. The statement clears the relation's bit, after which
// every mode merges both partitions — the possible types are none, not
// Transport — and /stats and EXPLAIN say why.
func TestServerFullMergeAfterPartialDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalogs: map[string]string{"demo": savedVehicles(t)}, Writable: true})
	explain := func() string {
		t.Helper()
		code, body := post(t, ts, queryRequest{SQL: "EXPLAIN CERTAIN SELECT typ FROM r"})
		if code != 200 {
			t.Fatalf("EXPLAIN: status %d: %v", code, body)
		}
		return body["plan"].(string)
	}

	if got := fullMergeOf(t, ts); got != "[]" {
		t.Fatalf("full_merge = %s before any write", got)
	}
	if plan := explain(); strings.Contains(plan, "u_id") || strings.Contains(plan, "[full merge]") {
		t.Fatalf("the existence-complete relation merged u_id to read typ:\n%s", plan)
	}
	if n := answerCount(t, ts, "POSSIBLE SELECT typ FROM r"); n != 2 {
		t.Fatalf("%d possible types before the delete, want Tank and Transport", n)
	}

	if code, body := execWithFence(t, ts, partialDelete, 0); code != 200 {
		t.Fatalf("DELETE: status %d: %v", code, body)
	}
	if got := fullMergeOf(t, ts); got != "[r]" {
		t.Fatalf("full_merge = %s after a delete of alternatives, want [r]", got)
	}
	if plan := explain(); !strings.Contains(plan, "u_id [full merge]") || !strings.Contains(plan, "u_typ [full merge]") {
		t.Fatalf("EXPLAIN does not mark the full merge:\n%s", plan)
	}
	for _, sql := range []string{"POSSIBLE SELECT typ FROM r", "CERTAIN SELECT typ FROM r", "CONF SELECT typ FROM r"} {
		if n := answerCount(t, ts, sql); n != 0 {
			t.Fatalf("%s: %d answers after the delete; vehicle 2 exists in no world", sql, n)
		}
	}
}

// TestReplicaAppliesTheClear: the clear op rides the DELETE's WAL
// record to a follower, whose snapshots then merge fully too — and keep
// doing so when the follower restarts from its own directory.
func TestReplicaAppliesTheClear(t *testing.T) {
	_, primary := newTestServer(t, Config{Catalogs: map[string]string{"demo": savedVehicles(t)}, Writable: true})
	followerDir := t.TempDir()
	followerS, follower := newTestServer(t, Config{
		Catalogs: map[string]string{"demo": followerDir},
		Follow:   map[string]string{"demo": primary.URL}})
	if got := fullMergeOf(t, follower); got != "[]" {
		t.Fatalf("bootstrapped follower: full_merge = %s", got)
	}
	if code, body := execWithFence(t, primary, partialDelete, 0); code != 200 {
		t.Fatalf("DELETE: status %d: %v", code, body)
	}
	for deadline := time.Now().Add(15 * time.Second); fullMergeOf(t, follower) != "[r]"; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower did not apply the shipped clear within 15s")
		}
	}
	if n := answerCount(t, follower, "POSSIBLE SELECT typ FROM r"); n != 0 {
		t.Fatalf("the follower answers %d possible types after the delete", n)
	}

	followerS.Close()
	follower.Close()
	_, follower = newTestServer(t, Config{
		Catalogs: map[string]string{"demo": followerDir},
		Follow:   map[string]string{"demo": primary.URL}})
	if got := fullMergeOf(t, follower); got != "[r]" {
		t.Fatalf("restarted follower: full_merge = %s", got)
	}
}
