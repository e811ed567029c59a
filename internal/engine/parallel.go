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

// hashKeyAt hashes the key columns idx of row, consistent with
// KeyString/TupleEqual. ok=false signals a NULL key (which never joins).
func hashKeyAt(row Tuple, idx []int) (uint64, bool) {
	h := uint64(fnvOffset64)
	for _, i := range idx {
		v := row[i]
		if v.IsNull() {
			return 0, false
		}
		h ^= HashValue(v)
		h *= fnvPrime64
	}
	return h, true
}

// ParallelHashJoinIter is the partitioned parallel counterpart of
// HashJoinIter. The build side is hash-partitioned by join key across
// Workers partitions, each owned by one goroutine that builds a
// private open-addressing joinTable (the same hashed-key machinery as
// the serial join — no shared-table contention, no per-row key
// strings). Probe batches are then scattered by the same hash function
// and probed against the per-partition tables in parallel; each worker
// evaluates the residual predicate on its own bound expression copy
// and carves output rows from its own arena. A columnar probe side is
// narrowed by the serial join's own narrowProbe, which scatters as it
// goes — a row's partition is its key hash's — so only the matches are
// materialized and each worker walks its partition's chains from the
// remembered heads. Results stream out as batches. The multiset of
// output rows is exactly that of HashJoinIter; only the order differs.
type ParallelHashJoinIter struct {
	L, R     Iterator
	Pairs    []EquiPair
	Residual Expr
	Workers  int // <= 0 means GOMAXPROCS

	outCols []string // output projection of the concatenated row (nil = all)
	pick    []int

	nw        int
	parts     []*joinTable
	built     int // rows in parts, all together
	lidx      []int
	ridx      []int
	bounds    []Expr // per-partition bound residual copies
	sch       Schema
	colR      ColBatchIterator // R's columnar path; nil when it has none
	hits      []probeHits      // per-partition matches of the current column batch
	probe     []Tuple          // gathered probe rows (reused)
	buckets   [][]Tuple        // per-partition probe buckets (reused)
	outs      [][]Tuple        // per-partition outputs (reused)
	arenas    []outArena       // per-partition output cells (write-once)
	scratches []Tuple          // per-partition residual buffers
	result    []Tuple          // concatenated output batch (reused)

	probeRows, probeMaterialized int64 // OperatorStats
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
	lsch, rsch := j.L.Schema(), j.R.Schema()
	full := lsch.Concat(rsch)
	var err error
	if j.sch, j.pick, err = bindOut(full, j.outCols); err != nil {
		return err
	}
	j.lidx = make([]int, len(j.Pairs))
	j.ridx = make([]int, len(j.Pairs))
	for i, p := range j.Pairs {
		li := lsch.IndexOf(p.L)
		ri := rsch.IndexOf(p.R)
		if li < 0 || ri < 0 {
			return fmt.Errorf("engine: parallel hash join: pair %v not resolvable (%v ⋈ %v)",
				p, lsch.Names(), rsch.Names())
		}
		j.lidx[i] = li
		j.ridx[i] = ri
	}
	j.nw = effectiveWorkers(j.Workers)
	j.bounds = make([]Expr, j.nw)
	for w := 0; w < j.nw; w++ {
		if j.Residual != nil {
			b, err := j.Residual.Bind(full)
			if err != nil {
				return err
			}
			j.bounds[w] = b
		}
	}
	if err := j.build(); err != nil {
		return err
	}
	j.colR, _ = NativeColumnar(j.R)
	j.hits = make([]probeHits, j.nw)
	j.probeRows, j.probeMaterialized = 0, 0
	j.buckets = make([][]Tuple, j.nw)
	j.outs = make([][]Tuple, j.nw)
	j.arenas = make([]outArena, j.nw)
	j.scratches = make([]Tuple, j.nw)
	for w := 0; w < j.nw; w++ {
		j.scratches[w] = make(Tuple, full.Len())
	}
	return nil
}

// build drains the left input, scattering rows to per-partition builder
// goroutines that each construct a private hash table.
func (j *ParallelHashJoinIter) build() error {
	j.parts = make([]*joinTable, j.nw)
	chans := make([]chan []Tuple, j.nw)
	var wg sync.WaitGroup
	for w := 0; w < j.nw; w++ {
		w := w
		chans[w] = make(chan []Tuple, 4)
		j.parts[w] = newJoinTable(j.lidx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tbl := j.parts[w]
			for chunk := range chans[w] {
				for _, row := range chunk {
					if h, keyed := tbl.hashRow(row); keyed {
						tbl.insert(row, h)
					}
				}
			}
		}()
	}
	send := func(buf [][]Tuple, p int) {
		if len(buf[p]) > 0 {
			chans[p] <- buf[p]
			buf[p] = nil
		}
	}
	buf := make([][]Tuple, j.nw)
	var err error
	for {
		batch, ok, e := j.L.NextBatch()
		if e != nil {
			err = e
			break
		}
		if !ok {
			break
		}
		for _, row := range batch {
			h, keyed := hashKeyAt(row, j.lidx)
			if !keyed {
				continue // NULL keys never join
			}
			p := int(h % uint64(j.nw))
			if buf[p] == nil {
				buf[p] = make([]Tuple, 0, DefaultBatchSize)
			}
			buf[p] = append(buf[p], row)
			if len(buf[p]) == DefaultBatchSize {
				send(buf, p)
			}
		}
	}
	for p := 0; p < j.nw; p++ {
		send(buf, p)
		close(chans[p])
	}
	wg.Wait()
	j.built = 0
	for _, tbl := range j.parts {
		j.built += tbl.len()
	}
	return err
}

// scatterProbe fills the per-partition probe buckets from R: a gathered
// chunk of row batches scattered by key hash, or the next column batch
// narrowed to its matches, which narrowProbe scatters as it finds them
// (their chain heads stay in hits, row for row). ok=false at the end
// of R.
func (j *ParallelHashJoinIter) scatterProbe() (bool, error) {
	if j.colR != nil {
		cb, ok, err := j.colR.NextColBatch()
		if err != nil || !ok {
			return false, err
		}
		j.probeRows += int64(cb.Rows())
		narrowProbe(j.parts, cb, j.ridx, j.hits)
		for p := range j.buckets {
			j.buckets[p] = j.buckets[p][:0]
			if len(j.hits[p].sel) > 0 {
				matched := ColBatch{Sch: cb.Sch, Cols: cb.Cols, N: cb.N, Sel: j.hits[p].sel}
				j.buckets[p] = matched.Materialize(j.buckets[p])
				j.probeMaterialized += int64(len(j.buckets[p]))
			}
		}
		return true, nil
	}
	// Gather probe rows (copying row headers: upstream batch buffers
	// may be reused by the producer).
	probe := j.probe[:0]
	for target := j.nw * DefaultBatchSize; len(probe) < target; {
		batch, ok, err := j.R.NextBatch()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		probe = append(probe, batch...)
	}
	j.probe = probe
	j.probeRows += int64(len(probe))
	for p := range j.buckets {
		j.buckets[p] = j.buckets[p][:0]
	}
	for _, row := range probe {
		h, keyed := hashKeyAt(row, j.ridx)
		if !keyed {
			continue
		}
		p := int(h % uint64(j.nw))
		j.buckets[p] = append(j.buckets[p], row)
	}
	return len(probe) > 0, nil
}

// NextBatch scatters a chunk of the probe side across the build
// partitions and probes all partitions in parallel.
func (j *ParallelHashJoinIter) NextBatch() ([]Tuple, bool, error) {
	if j.built == 0 {
		return nil, false, nil // nothing to join with: R is not read
	}
	for {
		ok, err := j.scatterProbe()
		if err != nil || !ok {
			return nil, false, err
		}
		// Probe each partition in parallel.
		var wg sync.WaitGroup
		for p := 0; p < j.nw; p++ {
			if len(j.buckets[p]) == 0 {
				j.outs[p] = j.outs[p][:0]
				continue
			}
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				tbl := j.parts[p]
				bound := j.bounds[p]
				arena := &j.arenas[p]
				scratch := j.scratches[p]
				out := j.outs[p][:0]
				for i, row := range j.buckets[p] {
					m := int32(-1)
					if j.colR != nil {
						m = j.hits[p].heads[i]
					} else if h, keyed := hashKeyAt(row, j.ridx); keyed {
						m = tbl.lookup(h, row, j.ridx)
					}
					for ; m >= 0; m = tbl.nextMatch(m) {
						l := tbl.row(m)
						if residualHolds(bound, scratch, l, row) {
							out = append(out, arena.emit(l, row, j.pick))
						}
					}
				}
				j.outs[p] = out
			}()
		}
		wg.Wait()
		result := j.result[:0]
		for p := 0; p < j.nw; p++ {
			result = append(result, j.outs[p]...)
		}
		j.result = result
		if len(result) > 0 {
			return result, true, nil
		}
		// All probe rows missed; pull the next chunk.
	}
}

// OperatorStats is HashJoinIter's.
func (j *ParallelHashJoinIter) OperatorStats(emit func(key string, v int64)) {
	emit("probe_rows", j.probeRows)
	emit("probe_rows_materialized", j.probeMaterialized)
}

func (j *ParallelHashJoinIter) Close() error {
	j.parts = nil
	j.probe, j.buckets, j.outs, j.result, j.hits = nil, nil, nil, nil, nil
	j.arenas, j.scratches = nil, nil
	err1 := j.L.Close()
	err2 := j.R.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (j *ParallelHashJoinIter) Schema() Schema {
	if j.sch.Len() > 0 {
		return j.sch
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
