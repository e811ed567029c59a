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
// EXPLAIN ANALYZE) into a span. It forwards the wrapped operator's
// columnar capability along with its row batches, so inserting it
// never changes which representation the parent pulls — it only adds a
// counter update per batch. It is only ever constructed when tracing
// is on; the untraced hot path never sees it.
type traceIter struct {
	in  Iterator
	sp  *obs.Span
	cin ColBatchIterator // the wrapped operator's columnar path, nil when it has none
}

func newTraceIter(in Iterator, sp *obs.Span) *traceIter {
	return &traceIter{in: in, sp: sp}
}

func (t *traceIter) Open() error {
	start := time.Now()
	err := t.in.Open()
	t.cin, _ = NativeColumnar(t.in)
	t.sp.AddNanos(int64(time.Since(start)))
	return err
}

func (t *traceIter) NextBatch() ([]Tuple, bool, error) {
	start := time.Now()
	b, ok, err := t.in.NextBatch()
	t.sp.AddNanos(int64(time.Since(start)))
	if ok {
		t.sp.AddRows(int64(len(b)))
		t.sp.AddBatches(1)
	}
	return b, ok, err
}

func (t *traceIter) NextColBatch() (*ColBatch, bool, error) {
	start := time.Now()
	cb, ok, err := t.cin.NextColBatch()
	t.sp.AddNanos(int64(time.Since(start)))
	if ok {
		t.sp.AddRows(int64(cb.Rows()))
		t.sp.AddBatches(1)
	}
	return cb, ok, err
}

// ColumnarNative reports the wrapped operator's answer, so the parent
// negotiates the same representation it would without tracing.
func (t *traceIter) ColumnarNative() bool {
	_, ok := NativeColumnar(t.in)
	return ok
}

// NarrowKeyRange forwards a key range to the wrapped operator.
func (t *traceIter) NarrowKeyRange(col int, lo, hi int64) { narrowInput(t.in, col, lo, hi) }

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
