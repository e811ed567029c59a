package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"urel/internal/store"
)

// corruptingProxy forwards replica-bootstrap traffic to the primary,
// mangling it per the active mode: a truncated manifest, a bit-flipped
// segment payload, or a connection killed once the manifest is out
// (the primary dying mid-bootstrap).
type corruptingProxy struct {
	upstream string
	mode     atomic.Value // "", "truncate-manifest", "flip-segment", "die-after-manifest"
}

func (p *corruptingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := p.mode.Load().(string)
	if mode == "die-after-manifest" && r.URL.Path != "/store/manifest" {
		panic(http.ErrAbortHandler) // slam the connection mid-bootstrap
	}
	// Forward under the incoming request's context, so a closed replica
	// does not leave an orphaned long-poll holding the primary open.
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		p.upstream+r.URL.Path+"?"+r.URL.RawQuery, nil)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	switch {
	case mode == "truncate-manifest" && r.URL.Path == "/store/manifest":
		b = b[:len(b)/2]
	case mode == "flip-segment" && r.URL.Path == "/store/file" && len(b) > 0:
		b[len(b)/2] ^= 0xFF
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(b)
}

// TestReplicaBootstrapCorruptSource: a follower bootstrapping from a
// corrupt or dying source fails cleanly — no catalog is registered, no
// bad row is ever served — and the same local directory then bootstraps
// successfully against the healthy primary.
func TestReplicaBootstrapCorruptSource(t *testing.T) {
	primaryDir := t.TempDir()
	if err := store.Save(clusterDB(t), primaryDir); err != nil {
		t.Fatal(err)
	}
	_, primaryTS := newTestServer(t, Config{
		Catalogs: map[string]string{"demo": primaryDir}, Writable: true})
	proxy := &corruptingProxy{upstream: primaryTS.URL}
	proxyTS := httptest.NewServer(proxy)
	// Cleanup, not defer: LIFO cleanup closes the replicas registered
	// below first, so no long-poll is still threading the proxy when it
	// shuts down.
	t.Cleanup(proxyTS.Close)

	boot := func(dir string) (*Server, error) {
		return New(Config{
			Catalogs: map[string]string{"demo": dir},
			Follow:   map[string]string{"demo": proxyTS.URL},
		})
	}

	// Structural corruption (half a manifest) and a source dying between
	// the manifest and the segment fetches both fail the bootstrap
	// outright — no catalog registers.
	replicaDir := t.TempDir()
	for _, mode := range []string{"truncate-manifest", "die-after-manifest"} {
		proxy.mode.Store(mode)
		if s, err := boot(replicaDir); err == nil {
			s.Close()
			t.Fatalf("mode %s: bootstrap against corrupt source succeeded", mode)
		}
	}

	// A flipped byte inside a CRC-protected segment payload is only
	// decodable lazily: the bootstrap may complete, but every read that
	// touches the segment must error — wrong rows are never served.
	proxy.mode.Store("flip-segment")
	flipDir := t.TempDir()
	if s, err := boot(flipDir); err == nil {
		ts := httptest.NewServer(s.Handler())
		code, body := post(t, ts, queryRequest{SQL: "POSSIBLE SELECT sid, temp FROM readings", DB: "demo"})
		ts.Close()
		s.Close()
		if code == 200 {
			t.Fatalf("replica served rows decoded from a corrupt segment: %v", body)
		}
		if !strings.Contains(strings.ToLower(body["error"].(string)), "corrupt") {
			t.Fatalf("corrupt-segment read error = %v, want a corruption error", body)
		}
	}

	// The aborted bootstraps left nothing poisonous behind: the same
	// directory syncs cleanly from the healthy source and serves the
	// full dataset.
	proxy.mode.Store("")
	s, err := boot(replicaDir)
	if err != nil {
		t.Fatalf("clean re-bootstrap after failed attempts: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	code, body := post(t, ts, queryRequest{SQL: "POSSIBLE SELECT sid, temp FROM readings", DB: "demo"})
	if code != 200 {
		t.Fatalf("re-bootstrapped replica query: %d %v", code, body)
	}
	if rows := rowSet(t, body); len(rows) != 3 {
		t.Fatalf("re-bootstrapped replica rows = %v, want the 3 possible readings", rows)
	}
}

// TestReplicaBootstrapAfterPartialCompaction: after DML on readings, a
// compaction rewrites readings' partition and leaves sensors' file as
// it was. A follower bootstrapping from that manifest — new files for
// one relation, the original file for the other — answers both
// relations as the primary does, and then follows the primary's next
// commit.
func TestReplicaBootstrapAfterPartialCompaction(t *testing.T) {
	primaryDir := t.TempDir()
	if err := store.Save(clusterDB(t), primaryDir); err != nil {
		t.Fatal(err)
	}
	primaryS, primaryTS := newTestServer(t, Config{
		Catalogs: map[string]string{"demo": primaryDir}, Writable: true})
	write := func(sql string) {
		t.Helper()
		b, _ := json.Marshal(execRequest{SQL: sql, DB: "demo"})
		resp, err := http.Post(primaryTS.URL+"/exec", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", sql, resp.StatusCode)
		}
	}
	write("insert into readings values (9, 99)")
	write("delete from readings where temp = 90")
	entry, _, err := primaryS.lookup("demo")
	if err != nil {
		t.Fatal(err)
	}
	sensors := entry.mut.Manifest().Relations[1].Parts[0].File
	if err := entry.mut.Compact(); err != nil {
		t.Fatal(err)
	}
	man := entry.mut.Manifest()
	if n := entry.mut.Stats().PartitionsRewritten; n != 1 || man.Relations[1].Parts[0].File != sensors {
		t.Fatalf("compaction rewrote %d partitions, sensors' file %s → %s", n, sensors, man.Relations[1].Parts[0].File)
	}
	write("insert into sensors values (4, 'delta')")

	_, followerTS := newTestServer(t, Config{
		Catalogs: map[string]string{"demo": t.TempDir()},
		Follow:   map[string]string{"demo": primaryTS.URL}})
	deadline := time.Now().Add(15 * time.Second)
	for _, sql := range []string{"POSSIBLE SELECT sid, temp FROM readings", "POSSIBLE SELECT sensor, name FROM sensors"} {
		_, want := post(t, primaryTS, queryRequest{SQL: sql, DB: "demo"})
		for {
			code, got := post(t, followerTS, queryRequest{SQL: sql, DB: "demo"})
			if code == 200 && fmt.Sprint(rowSet(t, got)) == fmt.Sprint(rowSet(t, want)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the follower answers %d %v, the primary %v", sql, code, got, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
