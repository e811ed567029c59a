package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"urel/internal/cluster"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/store"
)

// TestServerReadWriteStress extends the PR 3 read stress with live
// writers: 64 goroutines hammer one writable catalog with atomic
// pair-inserts, whole-pair deletes and pair-updates over /exec while
// readers pull the representation over /query. Snapshot consistency is
// the pair invariant: every commit writes or removes BOTH rows of a
// key in one statement, so any read observing a key with exactly one
// row has seen a partial commit. The flush threshold is set tiny so
// background flushes rotate the WAL and layer delta files *during*
// the storm, and /stats must report the write path's epoch and WAL
// bytes at the end. Run under -race in CI.
func TestServerReadWriteStress(t *testing.T) {
	db := core.NewUDB()
	db.MustAddRelation("kv", "k", "v")
	u := db.MustAddPartition("kv", "u_kv", "k", "v")
	u.Add(nil, 1, engine.Int(0), engine.Int(1))
	u.Add(nil, 2, engine.Int(0), engine.Int(2))
	dir := t.TempDir()
	if err := store.Save(db, dir); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Catalogs:      map[string]string{"kv": dir},
		Writable:      true,
		FlushBytes:    1 << 10, // flush constantly: exercise rotation under load
		MaxConcurrent: 16,
		QueueWait:     time.Minute, // the stress must not shed load
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON := func(path string, body any) (int, map[string]any, error) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, nil, err
		}
		return resp.StatusCode, out, nil
	}

	const (
		writers   = 8
		readers   = 56
		writerOps = 12
		readerOps = 10
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)

	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writerOps; i++ {
				k := 1 + g*1000 + i
				var sql string
				switch i % 4 {
				case 0, 1:
					// Atomic pair insert: both rows in one commit.
					sql = fmt.Sprintf("insert into kv values (%d, 1), (%d, 2)", k, k)
				case 2:
					// Remove an earlier pair whole.
					sql = fmt.Sprintf("delete from kv where k = %d", 1+g*1000+i-2)
				default:
					// Rewrite an earlier pair's payloads in one commit.
					sql = fmt.Sprintf("update kv set v = 7 where k = %d", 1+g*1000+i-2)
				}
				code, body, err := postJSON("/exec", map[string]any{"sql": sql})
				if err != nil {
					errCh <- fmt.Errorf("writer %d: %v", g, err)
					return
				}
				if code != 200 {
					errCh <- fmt.Errorf("writer %d: %q -> %d: %v", g, sql, code, body)
					return
				}
			}
		}()
	}

	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readerOps; i++ {
				code, body, err := postJSON("/query", map[string]any{"sql": "select k, v from kv"})
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if code != 200 {
					errCh <- fmt.Errorf("reader %d: status %d: %v", g, code, body)
					return
				}
				// Plain mode: columns are _d, tid, kv.k, kv.v. Group by k
				// and enforce the pair invariant.
				rows, ok := body["rows"].([]any)
				if !ok {
					errCh <- fmt.Errorf("reader %d: no rows in %v", g, body)
					return
				}
				perKey := map[float64]int{}
				for _, r := range rows {
					cells := r.([]any)
					perKey[cells[2].(float64)]++
				}
				for k, n := range perKey {
					if n != 2 {
						errCh <- fmt.Errorf("reader %d: key %v has %d rows — a partial commit became visible", g, k, n)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if got := s.writes.Value(); got != int64(writers*writerOps) {
		t.Fatalf("writes counter = %d, want %d", got, writers*writerOps)
	}
	if got := s.writeFailed.Value(); got != 0 {
		t.Fatalf("%d DML statements failed", got)
	}
	if got := s.rejected.Value(); got != 0 {
		t.Fatalf("%d requests rejected despite the long queue wait", got)
	}

	// /stats reports the write path's state for the catalog.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	info, ok := st.Catalogs["kv"]
	if !ok || !info.Writable || info.Write == nil {
		t.Fatalf("stats lacks writable catalog info: %+v", st.Catalogs)
	}
	if info.Write.Epoch == 0 {
		t.Fatal("stats reports epoch 0 after the write storm")
	}
	if info.Write.WALBytes <= 0 {
		t.Fatalf("stats reports %d WAL bytes", info.Write.WALBytes)
	}
	if info.Write.Commits == 0 {
		t.Fatal("stats reports 0 commits")
	}
	t.Logf("write path after storm: %+v", *info.Write)

	// The final state is exactly the serial outcome: the initial pair
	// plus, per writer, the surviving inserts (every insert at i%4==0
	// with i+2 < writerOps was deleted or updated — still a pair either
	// way, unless deleted).
	code, body, err := postJSON("/query", map[string]any{"sql": "select k, v from kv"})
	if err != nil || code != 200 {
		t.Fatalf("final read: %d %v %v", code, body, err)
	}
	rows := body["rows"].([]any)
	perKey := map[float64]int{}
	for _, r := range rows {
		cells := r.([]any)
		perKey[cells[2].(float64)]++
	}
	for k, n := range perKey {
		if n != 2 {
			t.Fatalf("final state: key %v has %d rows", k, n)
		}
	}
}

// TestCachedPlansFollowTheSnapshot: on a writable catalog, a repeated
// possible, certain and conf statement answers what a fresh translation
// answers on the current snapshot — after each INSERT, UPDATE and
// DELETE, after a flush and after a compaction. The first read after
// each of them plans afresh and the second runs the cached plan, and
// once that read has run, the cache holds no plan of an older snapshot.
func TestCachedPlansFollowTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := store.Save(randReadings(rand.New(rand.NewSource(29))), dir); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Catalogs:   map[string]string{"r": dir},
		Writable:   true,
		FlushBytes: 1 << 30, // flush and compact only when the script says
	})
	entry, _, err := s.lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	exec := func(sql string) func() error {
		return func() error {
			_, err := entry.mut.Exec(sql)
			return err
		}
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"open", func() error { return nil }},
		{"insert", exec("insert into readings values (7, 1), (8, 0), (9, 1)")},
		{"update", exec("update readings set temp = 0 where sid = 7")},
		{"delete", exec("delete from readings where sid = 8")},
		{"flush", entry.mut.Flush},
		{"compact", entry.mut.Compact},
	}
	statements := []string{
		"possible select sid, temp from readings",
		"certain select sid from readings",
		"conf select temp from readings",
	}
	// fresh answers sql on the current snapshot through a translation of
	// its own, rendered as the server renders it.
	fresh := func(sql string) map[string]int {
		parsed, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		db := entry.snapshot()
		var resp *queryResponse
		var herr *cluster.Error
		if parsed.Mode == sqlparse.ModePossible {
			rel, err := db.EvalPoss(parsed.Query, engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			resp, herr = s.tupleAnswer(rel, false)
		} else {
			res, err := db.Eval(parsed.Query, engine.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if parsed.Mode == sqlparse.ModeCertain {
				resp, herr = s.certainFromResult(res, time.Time{})
			} else if resp, err = s.confExact(res, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
		if herr != nil {
			t.Fatal(herr)
		}
		return encodedRowSet(t, resp.Rows)
	}
	for _, step := range steps {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for _, sql := range statements {
			want := fresh(sql)
			for i, wantCached := range []bool{false, true} {
				code, body := post(t, ts, queryRequest{SQL: sql})
				if code != 200 {
					t.Fatalf("after %s, %s: status %d: %v", step.name, sql, code, body)
				}
				if got := body["plan_cached"].(bool); got != wantCached {
					t.Errorf("after %s, read %d of %s: plan_cached %v, want %v", step.name, i+1, sql, got, wantCached)
				}
				if got := rowSet(t, body); !maps.Equal(got, want) {
					t.Errorf("after %s, read %d of %s answers %v, a fresh translation %v", step.name, i+1, sql, got, want)
				}
			}
		}
		s.plans.mu.Lock()
		for cat, sp := range s.plans.snaps {
			if sp.db != entry.snapshot() {
				t.Errorf("after %s: the cache holds the plans of catalog %q on a superseded snapshot", step.name, cat)
			}
			if len(sp.plans) != len(statements) {
				t.Errorf("after %s: the cache holds %d plans, want %d", step.name, len(sp.plans), len(statements))
			}
		}
		s.plans.mu.Unlock()
	}
}
