package engine

import (
	"time"

	"urel/internal/obs"
)

// OperatorStats is implemented by physical operators that accumulate
// side statistics worth surfacing in a trace — the store's segment
// scan reports segments read/pruned, cache hits, and bytes decoded.
// The engine calls it once, after Close, so implementations just
// expose their final counters.
type OperatorStats interface {
	OperatorStats(emit func(key string, v int64))
}

// traceIter wraps a physical operator and records its actual row and
// batch counts plus inclusive wall time (children included, as in
// EXPLAIN ANALYZE) into a span. It only adds a counter update per
// batch, and it is only ever constructed when tracing is on; the
// untraced hot path never sees it.
type traceIter struct {
	in Iterator
	sp *obs.Span
}

func newTraceIter(in Iterator, sp *obs.Span) *traceIter {
	return &traceIter{in: in, sp: sp}
}

func (t *traceIter) Open() error {
	start := time.Now()
	err := t.in.Open()
	t.sp.AddNanos(int64(time.Since(start)))
	return err
}

func (t *traceIter) Next() (*ColBatch, bool, error) {
	start := time.Now()
	cb, ok, err := t.in.Next()
	t.sp.AddNanos(int64(time.Since(start)))
	if ok {
		t.sp.AddRows(int64(cb.Rows()))
		t.sp.AddBatches(1)
	}
	return cb, ok, err
}

// NarrowKeys forwards keys to the wrapped operator and, when it takes
// keys and they are a list, counts the list as keys_in.
func (t *traceIter) NarrowKeys(col int, keys Keys) {
	if _, ok := t.in.(KeyNarrower); ok && keys.List != nil {
		t.sp.AddStat("keys_in", int64(len(keys.List)))
	}
	narrowInput(t.in, col, keys)
}

// Lookup forwards a lookup, counting the distinct keys asked as
// tids_looked_up and the rows found as the rows and a batch the
// operator made.
func (t *traceIter) Lookup(col int) func([]int64, []int32) (*ColBatch, error) {
	find := lookupOf(t.in, col, nil)
	if find == nil {
		return nil
	}
	return func(keys []int64, sel []int32) (*ColBatch, error) {
		start := time.Now()
		cb, err := find(keys, sel)
		t.sp.AddNanos(int64(time.Since(start)))
		asked := 0
		for k, i := range sel {
			if k == 0 || keys[i] != keys[sel[k-1]] {
				asked++
			}
		}
		t.sp.AddStat("tids_looked_up", int64(asked))
		if cb != nil {
			t.sp.AddRows(int64(cb.Rows()))
			t.sp.AddBatches(1)
		}
		return cb, err
	}
}

func (t *traceIter) Close() error {
	start := time.Now()
	err := t.in.Close()
	t.sp.AddNanos(int64(time.Since(start)))
	if os, ok := t.in.(OperatorStats); ok {
		os.OperatorStats(t.sp.AddStat)
	}
	return err
}

func (t *traceIter) Schema() Schema { return t.in.Schema() }
