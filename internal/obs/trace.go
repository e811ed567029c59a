package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of a per-query trace tree: an operator's actual
// row/batch counts, inclusive wall time, and a small bag of
// operator-specific stats (segments read, cache hits, bytes decoded).
// The tree mirrors the physical plan; it is built single-threaded at
// lowering time, and it assumes nothing about which goroutine updates
// or reads a counter — a span is safe to share like any other value
// handed down a call stack — so all updates are atomic. A nil *Span is
// the disabled tracer: every method no-ops, so call sites need no
// branches beyond the receiver nil check the compiler already emits.
type Span struct {
	op  string
	est float64 // estimated rows at build time; NaN-free, <0 = unknown

	rows    atomic.Int64
	batches atomic.Int64
	nanos   atomic.Int64

	mu       sync.Mutex
	kv       map[string]int64
	children []*Span
}

// NewSpan returns an enabled root span.
func NewSpan(op string) *Span { return &Span{op: op, est: -1} }

// Child creates, attaches, and returns a child span; nil-safe (a nil
// parent returns nil, keeping the whole tree disabled).
func (s *Span) Child(op string, est float64) *Span {
	if s == nil {
		return nil
	}
	c := &Span{op: op, est: est}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddRows counts n rows emitted by the operator.
func (s *Span) AddRows(n int64) {
	if s == nil {
		return
	}
	s.rows.Add(n)
}

// AddBatches counts n batches emitted.
func (s *Span) AddBatches(n int64) {
	if s == nil {
		return
	}
	s.batches.Add(n)
}

// AddNanos accumulates inclusive wall time spent inside the operator
// (children included, as in EXPLAIN ANALYZE).
func (s *Span) AddNanos(n int64) {
	if s == nil {
		return
	}
	s.nanos.Add(n)
}

// AddStat accumulates an operator-specific named statistic.
func (s *Span) AddStat(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.kv == nil {
		s.kv = map[string]int64{}
	}
	s.kv[key] += v
	s.mu.Unlock()
}

// Op returns the operator label ("" on nil).
func (s *Span) Op() string {
	if s == nil {
		return ""
	}
	return s.op
}

// Rows returns the actual rows emitted.
func (s *Span) Rows() int64 {
	if s == nil {
		return 0
	}
	return s.rows.Load()
}

// Batches returns the batches emitted.
func (s *Span) Batches() int64 {
	if s == nil {
		return 0
	}
	return s.batches.Load()
}

// Duration returns the inclusive wall time.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.nanos.Load())
}

// Est returns the build-time row estimate (<0 = unknown).
func (s *Span) Est() float64 {
	if s == nil {
		return -1
	}
	return s.est
}

// Stat returns one named statistic.
func (s *Span) Stat(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kv[key]
}

// Children returns the child spans in attachment order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// DriftLimit is the estimate-vs-actual ratio past which a node is
// flagged in the rendering — the signal the optimizer-stats work feeds
// on.
const DriftLimit = 10

// drift reports the off-by ratio between estimate and actual and
// whether it crosses DriftLimit. Estimates below one row are clamped
// to one (estimating 0.3 rows and seeing 2 is not drift worth
// flagging).
func drift(est float64, actual int64) (ratio float64, flagged bool) {
	if est < 0 {
		return 0, false
	}
	e := est
	if e < 1 {
		e = 1
	}
	a := float64(actual)
	if a < 1 {
		a = 1
	}
	ratio = e / a
	if a > e {
		ratio = a / e
	}
	return ratio, ratio > DriftLimit
}

// Render writes the trace tree as an indented text plan annotated with
// actuals, estimates, and per-operator stats — the EXPLAIN ANALYZE
// body. Nodes whose estimate is off by more than DriftLimit× carry an
// "est-drift" flag.
func (s *Span) Render(b *strings.Builder) {
	s.render(b, 0, true)
}

func (s *Span) render(b *strings.Builder, depth int, root bool) {
	if s == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	head := indent
	if !root {
		head = indent + "->  "
	}
	fmt.Fprintf(b, "%s%s  (actual rows=%d batches=%d time=%s", head, s.op,
		s.Rows(), s.Batches(), s.Duration().Round(time.Microsecond))
	if s.est >= 0 {
		fmt.Fprintf(b, " est=%.0f", s.est)
		if ratio, off := drift(s.est, s.Rows()); off {
			fmt.Fprintf(b, " est-drift=%.0fx", ratio)
		}
	}
	b.WriteString(")\n")
	s.mu.Lock()
	if len(s.kv) > 0 {
		keys := make([]string, 0, len(s.kv))
		for k := range s.kv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, s.kv[k])
		}
		fmt.Fprintf(b, "%s      Stats: %s\n", indent, strings.Join(parts, " "))
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.render(b, depth+1, false)
	}
}

// String renders the tree (convenience for logs and tests).
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Render(&b)
	return b.String()
}

// spanJSON is the wire form of a span tree.
type spanJSON struct {
	Op       string           `json:"op"`
	Rows     int64            `json:"rows"`
	Batches  int64            `json:"batches"`
	TimeMS   float64          `json:"time_ms"`
	EstRows  *float64         `json:"est_rows,omitempty"`
	EstDrift bool             `json:"est_drift,omitempty"`
	Stats    map[string]int64 `json:"stats,omitempty"`
	Children []*spanJSON      `json:"children,omitempty"`
}

func (s *Span) toJSON() *spanJSON {
	if s == nil {
		return nil
	}
	j := &spanJSON{
		Op:      s.op,
		Rows:    s.Rows(),
		Batches: s.Batches(),
		TimeMS:  float64(s.nanos.Load()) / 1e6,
	}
	if s.est >= 0 {
		est := s.est
		j.EstRows = &est
		_, j.EstDrift = drift(est, j.Rows)
	}
	s.mu.Lock()
	if len(s.kv) > 0 {
		j.Stats = make(map[string]int64, len(s.kv))
		for k, v := range s.kv {
			j.Stats[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		j.Children = append(j.Children, c.toJSON())
	}
	return j
}

// MarshalJSON renders the span tree as a nested object (the /query
// "trace" field and the slow-query log use it).
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.toJSON())
}
