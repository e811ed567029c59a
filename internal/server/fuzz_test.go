package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzRequestBodies posts arbitrary bytes as a /query and as an /exec
// body to the server's handler over a small in-memory catalog: every
// reply is a 200, a 4xx or a 5xx whose body is JSON, and nothing
// panics.
//
//	go test -run=NONE -fuzz='^FuzzRequestBodies$' -fuzztime=10s -fuzzminimizetime=1s ./internal/server
func FuzzRequestBodies(f *testing.F) {
	s, err := New(Config{MaxRows: 64, Timeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if err := s.AddDB("vehicles", vehiclesDB(f)); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	for _, body := range []string{
		`{"sql":"possible select id, typ from r"}`,
		`{"sql":"certain select typ from r","limit":1}`,
		`{"sql":"conf select typ from r","accuracy":"auto","timeout_ms":5}`,
		`{"sql":"conf bounds select typ from r","wire":"repr"}`,
		`{"sql":"select id, typ from r where id = 2","trace":true}`,
		`{"sql":"explain analyze certain select typ from r"}`,
		`{"sql":"delete from r where id = 1","db":"vehicles"}`,
		`{"sql":"possible select id from r","db":"nope","partial":true}`,
		`{"sql":5}`, `{"sql":"select"}`, `{}`, `[]`, `null`, ``, `{"sql":"possible select id from r"} trailing`,
		`{"sql":"possible select id from r"} {"sql":"certain select id from r"} garbage`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/query", "/exec"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if c := rec.Code; c != http.StatusOK && (c < 400 || c > 599) {
				t.Fatalf("%s %q: status %d", path, body, c)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %q: status %d with a body that is not JSON: %q", path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}

// TestRequestBodyIsOneValue holds /query and /exec to bodies of one JSON
// value: white space may follow it, anything else — a second value,
// garbage — is a 400, and the statement is not run.
func TestRequestBodyIsOneValue(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddDB("vehicles", vehiclesDB(t)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
		return rec
	}
	if rec := serve("/query", "{\"sql\":\"possible select id from r\"} \n\t"); rec.Code != http.StatusOK {
		t.Errorf("a body with white space after its value: status %d: %s", rec.Code, rec.Body)
	}
	for _, body := range []string{
		`{"sql":"possible select id from r"} {"sql":"certain select id from r"} garbage`,
		`{"sql":"possible select id from r"} {"sql":"certain select id from r"}`,
		`{"sql":"possible select id from r"} }`,
		`{"sql":"delete from r where id = 1"}x`,
	} {
		for _, path := range []string{"/query", "/exec"} {
			if rec := serve(path, body); rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte("after the JSON value")) {
				t.Errorf("%s %q: status %d, want 400 for data after the value: %s", path, body, rec.Code, rec.Body)
			}
		}
	}
}
