package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/ws"
)

// TestServerCertainHonoursDeadline: a CERTAIN statement past its
// timeout_ms returns the server's timeout error instead of running on.
// 22 chained coins make one component of 2²² valuations, the most
// normalization accepts: building its product domain and expanding its
// 21 descriptors takes many seconds, all of it after the plan.
func TestServerCertainHonoursDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("big", chainedDB(t, 22)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	code, body := post(t, ts, queryRequest{SQL: "CERTAIN SELECT a FROM big", TimeoutMS: 50})
	took := time.Since(start)
	if code != 504 || !strings.Contains(body["error"].(string), errTimeout.Error()) {
		t.Fatalf("status %d, want 504 with %q: %v", code, errTimeout, body)
	}
	if took > time.Second {
		t.Fatalf("the 50 ms deadline was answered after %v", took)
	}
	if got := s.timeouts.Value(); got != 1 {
		t.Fatalf("urel_query_timeouts_total = %v, want 1", got)
	}
}

// TestServerCertainPathStats: /stats and /metrics break CERTAIN answers
// down by the path that decided each tuple. Vehicle 1 is a Tank under an
// empty descriptor (labelled); vehicle 2 exists in every world only
// because its two alternatives cover x (pipeline).
func TestServerCertainPathStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]int{
		"CERTAIN SELECT id FROM r WHERE typ = 'Tank'": 1, // vehicle 1, labelled
		"CERTAIN SELECT id FROM r":                    2, // 1 labelled, 2 through the pipeline
		"CERTAIN SELECT typ FROM r WHERE id = 2":      0,
	} {
		code, body := post(t, ts, queryRequest{SQL: sql})
		if code != 200 || len(rowsOf(t, body)) != want {
			t.Fatalf("%s: status %d, want %d rows: %v", sql, code, want, body)
		}
	}
	_, text := get(t, ts.URL+"/stats")
	var st statsResponse
	if err := json.Unmarshal([]byte(text), &st); err != nil {
		t.Fatal(err)
	}
	if want := (certainPathCounters{Labelled: 2, Pipeline: 1}); st.CertainPaths != want {
		t.Fatalf("certain_paths = %+v, want %+v", st.CertainPaths, want)
	}
	_, text = get(t, ts.URL+"/metrics")
	for _, line := range []string{
		`urel_certain_tuples_total{path="labelled"} 2`,
		`urel_certain_tuples_total{path="pipeline"} 1`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", line, text)
		}
	}
}

// randReadings generates a valid database with one relation
// readings(sid, temp) in two vertical partitions: per tuple id and
// partition either one certain row, or alternatives over one variable —
// part of its domain or all of it, with one value or several, sometimes
// widened by a second variable. Values repeat across tuple ids, so a
// value tuple's rows spread over the shards.
func randReadings(rng *rand.Rand) *core.UDB {
	db := core.NewUDB()
	db.MustAddRelation("readings", "sid", "temp")
	var vars []ws.Var
	for i := 0; i < 3; i++ {
		vars = append(vars, db.W.MustNewVar(fmt.Sprintf("v%d", i), []ws.Val{1, 2, 3}[:2+rng.Intn(2)]...))
	}
	parts := []*core.URelation{
		db.MustAddPartition("readings", "u_sid", "sid"),
		db.MustAddPartition("readings", "u_temp", "temp"),
	}
	for tid := int64(1); tid <= int64(3+rng.Intn(5)); tid++ {
		for _, p := range parts {
			val := func() engine.Value { return engine.Int(int64(rng.Intn(2))) }
			if rng.Intn(3) == 0 {
				p.Add(nil, tid, val())
				continue
			}
			x := vars[rng.Intn(len(vars))]
			same, whole := val(), rng.Intn(2) == 0
			for _, v := range db.W.Domain(x) {
				if !whole && rng.Intn(3) == 0 {
					continue
				}
				d := ws.Descriptor{ws.A(x, v)}
				if y := vars[rng.Intn(len(vars))]; y != x && rng.Intn(4) == 0 {
					d, _ = d.Union(ws.Descriptor{ws.A(y, db.W.Domain(y)[0])})
				}
				if rng.Intn(3) == 0 {
					p.Add(d, tid, val())
				} else {
					p.Add(d, tid, same)
				}
			}
		}
	}
	return db.Reduce()
}

// TestPropertyCertainServedAndSharded: on random databases a CERTAIN
// statement answers with the intersection of the worlds' answers — from
// one node, and from the coordinator over two shards, which computes it
// over the gathered representation. Together the instances have tuples
// decided by label and by the pipeline, on both.
func TestPropertyCertainServedAndSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	statements := []string{
		"CERTAIN SELECT sid FROM readings",
		"CERTAIN SELECT temp FROM readings",
		"CERTAIN SELECT sid, temp FROM readings",
		"CERTAIN SELECT temp FROM readings WHERE sid = 1",
	}
	var paths [2]certainPathCounters // single node, coordinator
	answers := 0
	for iter := 0; iter < 25; iter++ {
		db := randReadings(rng)
		if err := db.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		single, singleTS := newTestServer(t, Config{})
		if err := single.AddDB("demo", db); err != nil {
			t.Fatal(err)
		}
		coord, _ := buildCluster(t, db, 2)
		for _, sql := range statements {
			parsed, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			gt, err := db.CertainGroundTruth(parsed.Query, 4000)
			if err != nil {
				t.Fatalf("iter %d: %s: %v", iter, sql, err)
			}
			resp, herr := single.tupleAnswer(gt, false)
			if herr != nil {
				t.Fatal(herr)
			}
			want := encodedRowSet(t, resp.Rows)
			answers += len(want)
			for where, ts := range map[string]*httptest.Server{"one node": singleTS, "the coordinator": coord} {
				code, body := post(t, ts, queryRequest{SQL: sql, DB: "demo"})
				if code != 200 {
					t.Fatalf("iter %d: %s on %s: status %d: %v", iter, sql, where, code, body)
				}
				if got := rowSet(t, body); !maps.Equal(got, want) {
					t.Fatalf("iter %d: %s on %s answers %v, the worlds share %v", iter, sql, where, got, want)
				}
			}
		}
		for i, ts := range []*httptest.Server{singleTS, coord} {
			_, text := get(t, ts.URL+"/stats")
			var st statsResponse
			if err := json.Unmarshal([]byte(text), &st); err != nil {
				t.Fatal(err)
			}
			paths[i].Labelled += st.CertainPaths.Labelled
			paths[i].Pipeline += st.CertainPaths.Pipeline
		}
	}
	t.Logf("%d answer tuples; by path %+v on one node, %+v on the coordinator", answers, paths[0], paths[1])
	if paths[0] != paths[1] || int(paths[0].Labelled+paths[0].Pipeline) != answers || paths[0].Labelled < 20 || paths[0].Pipeline < 20 {
		t.Fatal("the instances do not exercise both paths on both servers")
	}
}
