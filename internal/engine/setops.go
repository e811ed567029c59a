package engine

import "fmt"

// UnionIter concatenates two inputs with identical widths (UNION ALL).
// Column names are taken from the left input.
type UnionIter struct {
	L, R    Iterator
	onRight bool
}

// NewUnion builds a bag union.
func NewUnion(l, r Iterator) *UnionIter { return &UnionIter{L: l, R: r} }

func (u *UnionIter) Open() error {
	if err := u.L.Open(); err != nil {
		return err
	}
	if err := u.R.Open(); err != nil {
		return err
	}
	if u.L.Schema().Len() != u.R.Schema().Len() {
		return fmt.Errorf("engine: union width mismatch: %d vs %d",
			u.L.Schema().Len(), u.R.Schema().Len())
	}
	u.onRight = false
	return nil
}

func (u *UnionIter) NextBatch() ([]Tuple, bool, error) {
	if !u.onRight {
		batch, ok, err := u.L.NextBatch()
		if err != nil || ok {
			return batch, ok, err
		}
		u.onRight = true
	}
	return u.R.NextBatch()
}

func (u *UnionIter) Close() error {
	err1 := u.L.Close()
	err2 := u.R.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (u *UnionIter) Schema() Schema { return u.L.Schema() }

// keySet drains the opened iterator it into the set of its rows' keys.
func keySet(it Iterator) (map[string]struct{}, error) {
	set := make(map[string]struct{})
	for {
		batch, ok, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return set, nil
		}
		for _, row := range batch {
			set[KeyString(row)] = struct{}{}
		}
	}
}

// appendNewMembers appends to out the rows of in whose membership in
// right equals member and that seen does not hold yet, recording them
// in seen: one batch of a deduplicated difference (member=false) or
// intersection (member=true).
func appendNewMembers(out, in []Tuple, right map[string]struct{}, member bool, seen map[string]struct{}) []Tuple {
	for _, row := range in {
		k := KeyString(row)
		if _, has := right[k]; has != member {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, row)
	}
	return out
}

// DiffIter computes set difference L − R (set semantics: output is
// deduplicated). Used by the Lemma 4.3 certain-answer RA query.
type DiffIter struct {
	L, R Iterator

	right map[string]struct{}
	seen  map[string]struct{}
	out   []Tuple // reused output batch headers
}

// NewDiff builds a set difference.
func NewDiff(l, r Iterator) *DiffIter { return &DiffIter{L: l, R: r} }

func (d *DiffIter) Open() error {
	if err := d.L.Open(); err != nil {
		return err
	}
	if err := d.R.Open(); err != nil {
		return err
	}
	if d.L.Schema().Len() != d.R.Schema().Len() {
		return fmt.Errorf("engine: difference width mismatch: %d vs %d",
			d.L.Schema().Len(), d.R.Schema().Len())
	}
	d.seen = make(map[string]struct{})
	var err error
	d.right, err = keySet(d.R)
	return err
}

func (d *DiffIter) NextBatch() ([]Tuple, bool, error) {
	for {
		in, ok, err := d.L.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		d.out = appendNewMembers(d.out[:0], in, d.right, false, d.seen)
		if len(d.out) > 0 {
			return d.out, true, nil
		}
	}
}

func (d *DiffIter) Close() error {
	d.right, d.seen, d.out = nil, nil, nil
	err1 := d.L.Close()
	err2 := d.R.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (d *DiffIter) Schema() Schema { return d.L.Schema() }

// IntersectIter computes set intersection (deduplicated).
type IntersectIter struct {
	L, R Iterator

	right map[string]struct{}
	seen  map[string]struct{}
	out   []Tuple // reused output batch headers
}

// NewIntersect builds a set intersection.
func NewIntersect(l, r Iterator) *IntersectIter { return &IntersectIter{L: l, R: r} }

func (d *IntersectIter) Open() error {
	if err := d.L.Open(); err != nil {
		return err
	}
	if err := d.R.Open(); err != nil {
		return err
	}
	if d.L.Schema().Len() != d.R.Schema().Len() {
		return fmt.Errorf("engine: intersect width mismatch: %d vs %d",
			d.L.Schema().Len(), d.R.Schema().Len())
	}
	d.seen = make(map[string]struct{})
	var err error
	d.right, err = keySet(d.R)
	return err
}

func (d *IntersectIter) NextBatch() ([]Tuple, bool, error) {
	for {
		in, ok, err := d.L.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		d.out = appendNewMembers(d.out[:0], in, d.right, true, d.seen)
		if len(d.out) > 0 {
			return d.out, true, nil
		}
	}
}

func (d *IntersectIter) Close() error {
	d.right, d.seen, d.out = nil, nil, nil
	err1 := d.L.Close()
	err2 := d.R.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (d *IntersectIter) Schema() Schema { return d.L.Schema() }
