package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"urel/internal/server"
)

// node is one in-process query server behind its own loopback
// listener. Nothing here starts a process: the server is a value, the
// listener a socket on 127.0.0.1:0.
type node struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// startNode boots a server from cfg and serves its handler. The
// returned node's stop is registered on the cleanup stack by the
// caller.
func startNode(cfg server.Config) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	n := &node{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.http.Serve(ln) // returns ErrServerClosed after stop
	}()
	return n, nil
}

// stop closes the listener and every connection, waits for the accept
// loop and the connection goroutines to end, then closes the server's
// catalogs.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := n.http.Shutdown(ctx); err != nil {
		n.http.Close()
	}
	cancel()
	<-n.done
	n.srv.Close()
}

// served is what the served sessions share: the stored directory, the
// node over it, one client per closed-loop caller, and the release
// functions of all three on the cleanup stack.
type served struct {
	dir     string
	node    *node
	clients []*client
	release []func()
}

// startServed boots a node from cfg over dir (whose removal is rm) and
// connects the clients.
func startServed(e *env, cfg server.Config, dir string, rm func(), clients int) (*served, error) {
	s := &served{dir: dir, release: []func(){rm}}
	var err error
	if s.node, err = startNode(cfg); err != nil {
		s.close()
		return nil, err
	}
	s.release = append(s.release, e.cl.push(s.node.stop))
	for c := 0; c < clients; c++ {
		cl := newClient()
		s.clients = append(s.clients, cl)
		s.release = append(s.release, e.cl.push(cl.close))
	}
	return s, nil
}

// close releases clients, node and directory, newest first.
func (s *served) close() {
	for i := len(s.release) - 1; i >= 0; i-- {
		s.release[i]()
	}
	s.release = nil
}

// client is one closed-loop caller: a keep-alive connection of its
// own.
type client struct {
	http *http.Client
	tr   *http.Transport
	// posts and bytes count the requests sent and the reply bytes read;
	// a client belongs to one goroutine at a time.
	posts, bytes int
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{http: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is the part of a /query or /exec response the benchmark reads.
type reply struct {
	Status     int
	Rows       []any   `json:"rows"`
	RowCount   int     `json:"row_count"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	PlanCached bool    `json:"plan_cached"`
	Estimator  string  `json:"estimator"`
	Truncated  bool    `json:"truncated"`
	Tuples     int     `json:"tuples"`
	Error      string  `json:"error"`
}

// post sends one JSON request and decodes the reply. A non-200 status
// is not an error here; callers count it as a failed op.
func (c *client) post(url string, body map[string]any) (*reply, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.posts, c.bytes = c.posts+1, c.bytes+len(raw)
	r := &reply{Status: resp.StatusCode}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("decode %d-byte reply (status %d): %w", len(raw), resp.StatusCode, err)
	}
	return r, nil
}

// getJSON fetches and decodes a GET endpoint (/stats).
func (c *client) getJSON(url string, out any) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Queries  uint64 `json:"queries"`
	Rejected uint64 `json:"rejected"`
	Failed   uint64 `json:"failed"`
	SegCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Bytes     int64  `json:"bytes"`
	} `json:"seg_cache"`
	PlanCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"plan_cache"`
	Catalogs map[string]struct {
		SizeBytes int64 `json:"size_bytes"`
		Write     *struct {
			Flushes     uint64 `json:"flushes"`
			Compactions uint64 `json:"compactions"`
			WALBytes    int64  `json:"wal_bytes"`
			Commits     uint64 `json:"commits"`
			Tombstones  int    `json:"tombstones"`
		} `json:"write"`
	} `json:"catalogs"`
}

// checkReply compares a served answer with the expected one.
func checkReply(cls int, r *reply, err error, want answer, sql string) opResult {
	if err != nil {
		return opResult{class: cls, msg: fmt.Sprintf("%s: %v", sql, err)}
	}
	if r.Status != http.StatusOK {
		return opResult{class: cls, msg: fmt.Sprintf("%s: status %d: %s", sql, r.Status, r.Error)}
	}
	got, err := answerOfJSONRows(r.Rows)
	if err != nil {
		return opResult{class: cls, msg: fmt.Sprintf("%s: %v", sql, err)}
	}
	if got != want || r.Truncated {
		return opResult{class: cls, msg: fmt.Sprintf("%s: got %v, want %v", sql, got, want)}
	}
	return opResult{class: cls, ok: true}
}

// tracedPost is post under an op root: the round trip is the root,
// the server's own elapsed_ms a child span placed in its middle, so
// the root's self time is what HTTP, JSON and the client cost.
func (c *client) tracedPost(tr *tracer, opName, url string, body map[string]any) (*reply, error) {
	if tr == nil {
		return c.post(url, body)
	}
	root := tr.newOp("server", opName)
	start := tr.now()
	r, err := c.post(url, body)
	end := tr.now()
	if err == nil && r.Status == http.StatusOK {
		el := int64(r.ElapsedMS * 1e6)
		if el > end-start {
			el = end - start
		}
		mid := start + (end-start-el)/2
		tr.add(root, layerExec, "elapsed", mid, mid+el)
	}
	tr.end(root)
	return r, err
}
