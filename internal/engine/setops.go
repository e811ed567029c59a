package engine

import "fmt"

// UnionIter concatenates two inputs with identical widths (UNION ALL):
// it hands over L's batches, then R's, relabelled with L's column names.
type UnionIter struct {
	L, R    Iterator
	onRight bool
	sch     Schema
	cb      ColBatch // reused header of a relabelled R batch
}

// NewUnion builds a bag union.
func NewUnion(l, r Iterator) *UnionIter { return &UnionIter{L: l, R: r} }

func (u *UnionIter) Open() error {
	if err := openPair(u.L, u.R, "union"); err != nil {
		return err
	}
	u.onRight, u.sch = false, u.L.Schema()
	return nil
}

func (u *UnionIter) Next() (*ColBatch, bool, error) {
	if !u.onRight {
		cb, ok, err := u.L.Next()
		if err != nil || ok {
			return cb, ok, err
		}
		u.onRight = true
	}
	cb, ok, err := u.R.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	u.cb = *cb
	u.cb.Sch = u.sch
	return &u.cb, true, nil
}

func (u *UnionIter) Close() error   { return closePair(u.L, u.R) }
func (u *UnionIter) Schema() Schema { return u.L.Schema() }

// openPair opens the two inputs of a set operation and checks that
// their widths agree; what names the operation in the error.
func openPair(l, r Iterator, what string) error {
	if err := l.Open(); err != nil {
		return err
	}
	if err := r.Open(); err != nil {
		return err
	}
	if l.Schema().Len() != r.Schema().Len() {
		return fmt.Errorf("engine: %s width mismatch: %d vs %d", what, l.Schema().Len(), r.Schema().Len())
	}
	return nil
}

// closePair closes both inputs and returns the first error.
func closePair(l, r Iterator) error {
	err1 := l.Close()
	err2 := r.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// DiffIter computes the set difference L − R (set semantics: the output
// is deduplicated), the Lemma 4.3 certain-answer RA query's. R is
// drained into the set of its rows' keys at Open; each L batch is handed
// over narrowed to a selection of its rows whose key is not in that set
// and was not handed over before — keyed from the vectors, so no tuple
// is made.
type DiffIter struct {
	L, R Iterator

	right map[string]struct{}
	seen  map[string]struct{}
	buf   []byte   // reused key-encoding buffer
	sel   []int32  // reused selection buffer
	cb    ColBatch // reused output batch header
}

// NewDiff builds a set difference.
func NewDiff(l, r Iterator) *DiffIter { return &DiffIter{L: l, R: r} }

func (d *DiffIter) Open() error {
	if err := openPair(d.L, d.R, "difference"); err != nil {
		return err
	}
	d.seen, d.right = make(map[string]struct{}), make(map[string]struct{})
	for {
		cb, ok, err := d.R.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for k, n := 0, cb.Rows(); k < n; k++ {
			d.buf = appendRowKey(d.buf[:0], cb.Cols, cb.RowID(k))
			d.right[string(d.buf)] = struct{}{}
		}
	}
}

func (d *DiffIter) Next() (*ColBatch, bool, error) {
	for {
		in, ok, err := d.L.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		sel := d.sel[:0]
		for k, n := 0, in.Rows(); k < n; k++ {
			i := in.RowID(k)
			d.buf = appendRowKey(d.buf[:0], in.Cols, i)
			if _, has := d.right[string(d.buf)]; has {
				continue
			}
			if _, dup := d.seen[string(d.buf)]; dup {
				continue
			}
			d.seen[string(d.buf)] = struct{}{}
			sel = append(sel, int32(i))
		}
		d.sel = sel
		if len(sel) > 0 {
			d.cb = ColBatch{Sch: in.Sch, Cols: in.Cols, N: in.N, Sel: sel}
			return &d.cb, true, nil
		}
	}
}

func (d *DiffIter) Close() error {
	d.right, d.seen, d.sel = nil, nil, nil
	return closePair(d.L, d.R)
}

func (d *DiffIter) Schema() Schema { return d.L.Schema() }
