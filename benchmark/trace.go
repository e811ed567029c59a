package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The benchmark's own tracing: a span around each call into a layer,
// recorded from the benchmark's files, kept in memory and written out
// when the run ends. Spans inside the program are a later change.

// span is one timed interval. Parent is the id of the span that
// caused it (-1 for an op's root); spans of one op share Op. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerBench is the layer of an op's root span: time in it that no
// child covers is the benchmark's own (or nobody's), and counts as
// unattributed.
const layerBench = "bench"

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	nops  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newOp starts an op's root span and returns its id. layer owns the
// part of the op no child span covers: layerBench for an in-process
// op (what is left is the benchmark's own checking), "server" for a
// served one (what is left is HTTP, JSON and the connection).
func (t *tracer) newOp(layer, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.nops
	t.nops++
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Op: op, Layer: layer, Name: name, Start: t.now()})
	return id
}

// begin starts a child span of parent.
func (t *tracer) begin(parent int, layer, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.spans[parent].Op, Layer: layer, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished child span whose interval the benchmark did
// not time itself but was told: the server's elapsed_ms, placed in the
// middle of the round trip that carried it.
func (t *tracer) add(parent int, layer, name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.spans[parent].Op, Layer: layer, Name: name, Start: start, End: end})
}

// step times f as a child span of parent.
func (t *tracer) step(parent int, layer, name string, f func() error) error {
	id := t.begin(parent, layer, name)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its children cover (overlapping children
// are not counted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by layer, and the total time of root spans.
func layerSelf(spans []span) (byLayer map[string]int64, total int64) {
	byLayer = map[string]int64{}
	self := selfTimes(spans)
	for i, s := range spans {
		byLayer[s.Layer] += self[i]
		if s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	return byLayer, total
}

// writeSpans writes the span file: one JSON object holding the spans.
func writeSpans(path string, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
