package engine

import (
	"fmt"
	"runtime"
	"sync"
)

// effectiveWorkers normalizes a worker-count knob: n > 0 is taken
// literally, anything else means one worker per logical CPU.
func effectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelHashJoinIter is the partitioned parallel counterpart of
// HashJoinIter. The build side is drained as column batches, as the
// serial join drains it, and its rows are hash-partitioned by join key
// across Workers tables that share the batches, each indexed by its own
// goroutine (no shared-table contention). Each probe batch is narrowed
// by the serial join's own narrowProbe, which scatters as it goes — a
// row's partition is its key hash's — and every partition with hits
// then walks its chains, evaluates the residual on its own evaluator
// and gathers its own output batches, all partitions in parallel. The
// multiset of output rows is exactly that of HashJoinIter; only the
// order differs.
type ParallelHashJoinIter struct {
	L, R     Iterator
	Pairs    []EquiPair
	Residual Expr
	Workers  int // <= 0 means GOMAXPROCS

	outCols []string // output projection of the concatenated row (nil = all)

	shape *joinShape
	parts []*joinTable
	built int         // rows in parts, all together
	preds []*pairPred // per partition (nil = no residual)
	probe colReader
	hits  []probeHits // per partition: the current probe batch's matches
	curs  []joinCursor
	ready []ColBatch // output batches of the current probe batch
	next  int        // the first of ready not handed out yet
	mat   materializer

	probeRows, cellsGathered int64 // OperatorStats
}

// NewParallelHashJoin builds a partitioned parallel hash join; pairs
// must be non-empty and out is NewHashJoin's. workers <= 0 selects
// GOMAXPROCS.
func NewParallelHashJoin(l, r Iterator, pairs []EquiPair, residual Expr, out []string, workers int) *ParallelHashJoinIter {
	return &ParallelHashJoinIter{L: l, R: r, Pairs: pairs, Residual: residual, outCols: out, Workers: workers}
}

func (j *ParallelHashJoinIter) Open() error {
	if len(j.Pairs) == 0 {
		return fmt.Errorf("engine: parallel hash join requires at least one equi pair")
	}
	if err := j.L.Open(); err != nil {
		return err
	}
	if err := j.R.Open(); err != nil {
		return err
	}
	var err error
	if j.shape, err = newJoinShape("parallel hash join", j.L.Schema(), j.R.Schema(), j.Pairs, j.Residual, j.outCols, true); err != nil {
		return err
	}
	nw := effectiveWorkers(j.Workers)
	if j.parts, err = buildJoinTables(j.L, j.shape.lidx, nw); err != nil {
		return err
	}
	j.built = 0
	j.preds = make([]*pairPred, nw)
	for p, t := range j.parts {
		j.built += t.len()
		j.preds[p] = j.shape.pred()
	}
	narrowProbeInput(j.R, j.shape.ridx, j.parts)
	j.probe = newColReader(j.R)
	j.hits = make([]probeHits, nw)
	j.curs = make([]joinCursor, nw)
	j.ready, j.next = nil, 0
	j.probeRows, j.cellsGathered, j.mat.made = 0, 0, 0
	return nil
}

// NextColBatch hands out the output batches of the current probe batch,
// and once they are gone narrows the next probe batch and joins it in
// every partition with a hit at once.
func (j *ParallelHashJoinIter) NextColBatch() (*ColBatch, bool, error) {
	if j.built == 0 {
		return nil, false, nil // nothing to join with: R is not read
	}
	for j.next >= len(j.ready) {
		cb, ok, err := j.probe.next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.probeRows += int64(cb.Rows())
		narrowProbe(j.parts, cb, j.shape.ridx, j.hits)
		outs := make([][]ColBatch, len(j.parts))
		var wg sync.WaitGroup
		for p := range j.parts {
			if len(j.hits[p].sel) == 0 {
				continue
			}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				t, cur := j.parts[p], &j.curs[p]
				cur.reset()
				for more := true; more; {
					more = cur.fill(t, j.preds[p], cb, &j.hits[p], DefaultBatchSize)
					if n := len(cur.bsel); n > 0 {
						cols := make([]ColVec, len(j.shape.out))
						cur.gather(t, cb, j.shape.out, cols)
						outs[p] = append(outs[p], ColBatch{Sch: j.shape.sch, Cols: cols, N: n})
					}
				}
			}(p)
		}
		wg.Wait()
		j.ready, j.next = j.ready[:0], 0
		for _, o := range outs {
			j.ready = append(j.ready, o...)
		}
	}
	out := &j.ready[j.next]
	j.next++
	j.cellsGathered += int64(out.N * len(out.Cols))
	return out, true, nil
}

// NextBatch makes the next output batch into tuples.
func (j *ParallelHashJoinIter) NextBatch() ([]Tuple, bool, error) {
	return j.mat.next(j.NextColBatch())
}

// ColumnarNative is HashJoinIter's.
func (j *ParallelHashJoinIter) ColumnarNative() bool { return true }

// OperatorStats is HashJoinIter's.
func (j *ParallelHashJoinIter) OperatorStats(emit func(key string, v int64)) {
	emit("probe_rows", j.probeRows)
	emit("cells_gathered", j.cellsGathered)
	j.mat.stats(emit)
}

func (j *ParallelHashJoinIter) Close() error {
	j.parts, j.preds, j.hits, j.curs, j.ready = nil, nil, nil, nil, nil
	j.probe, j.mat.rows = colReader{}, nil
	err1 := j.L.Close()
	err2 := j.R.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (j *ParallelHashJoinIter) Schema() Schema {
	if j.shape != nil {
		return j.shape.sch
	}
	return joinSchema(j.L.Schema(), j.R.Schema(), j.outCols)
}

// ParallelFilterIter is the parallel scan/drain operator: it pulls
// large input chunks and evaluates the predicate across Workers
// goroutines, each on a contiguous slice with its own bound expression
// copy. Output preserves input order.
type ParallelFilterIter struct {
	In      Iterator
	Pred    Expr
	Workers int // <= 0 means GOMAXPROCS

	nw     int
	bounds []Expr
	chunk  []Tuple   // gathered input rows (reused)
	outs   [][]Tuple // per-worker outputs (reused)
	result []Tuple   // concatenated output batch (reused)
}

// NewParallelFilter builds a parallel filter; workers <= 0 selects
// GOMAXPROCS.
func NewParallelFilter(in Iterator, pred Expr, workers int) *ParallelFilterIter {
	return &ParallelFilterIter{In: in, Pred: pred, Workers: workers}
}

func (f *ParallelFilterIter) Open() error {
	if err := f.In.Open(); err != nil {
		return err
	}
	f.nw = effectiveWorkers(f.Workers)
	f.bounds = make([]Expr, f.nw)
	for w := 0; w < f.nw; w++ {
		b, err := f.Pred.Bind(f.In.Schema())
		if err != nil {
			return err
		}
		f.bounds[w] = b
	}
	f.outs = make([][]Tuple, f.nw)
	return nil
}

// NextBatch gathers a multi-batch chunk and filters it with all workers.
func (f *ParallelFilterIter) NextBatch() ([]Tuple, bool, error) {
	target := f.nw * DefaultBatchSize
	for {
		chunk := f.chunk[:0]
		for len(chunk) < target {
			batch, ok, err := f.In.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			chunk = append(chunk, batch...)
		}
		f.chunk = chunk
		if len(chunk) == 0 {
			return nil, false, nil
		}
		per := (len(chunk) + f.nw - 1) / f.nw
		var wg sync.WaitGroup
		for w := 0; w < f.nw; w++ {
			lo := w * per
			if lo >= len(chunk) {
				f.outs[w] = f.outs[w][:0]
				continue
			}
			hi := lo + per
			if hi > len(chunk) {
				hi = len(chunk)
			}
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				bound := f.bounds[w]
				out := f.outs[w][:0]
				for _, row := range chunk[lo:hi] {
					if bound.Eval(row).Truth() {
						out = append(out, row)
					}
				}
				f.outs[w] = out
			}()
		}
		wg.Wait()
		result := f.result[:0]
		for w := 0; w < f.nw; w++ {
			result = append(result, f.outs[w]...)
		}
		f.result = result
		if len(result) > 0 {
			return result, true, nil
		}
	}
}

func (f *ParallelFilterIter) Close() error {
	f.chunk, f.outs, f.result = nil, nil, nil
	return f.In.Close()
}

func (f *ParallelFilterIter) Schema() Schema { return f.In.Schema() }
