package engine

import (
	"fmt"
	"sort"
)

// AggFunc enumerates aggregate functions supported by the substrate.
// (The uncertain algebra of the paper drops aggregation — the authors
// removed it from TPC-H Q3/Q6/Q7 — but a relational substrate without
// aggregation would not be credible, and the experiment harness uses
// COUNT to measure answer sizes.)
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

func (f AggFunc) String() string {
	return [...]string{"count", "sum", "min", "max", "avg"}[f]
}

// AggSpec is one aggregate column: Fn applied to input column Col
// (ignored for COUNT with Col == ""), output named As.
type AggSpec struct {
	Fn  AggFunc
	Col string
	As  string
}

// HashAggIter groups by the named columns and computes aggregates,
// reading the group and aggregate cells straight from the input's
// vectors. Groups are emitted in deterministic (sorted key) order.
type HashAggIter struct {
	In      Iterator
	GroupBy []string
	Aggs    []AggSpec

	out  *Relation
	held HeldRows
}

// NewHashAgg builds a hash aggregate.
func NewHashAgg(in Iterator, groupBy []string, aggs []AggSpec) *HashAggIter {
	return &HashAggIter{In: in, GroupBy: groupBy, Aggs: aggs}
}

type aggState struct {
	key    Tuple
	count  []int64
	sum    []float64
	sumInt []int64
	isInt  []bool
	min    []Value
	max    []Value
	seen   []bool
}

func (h *HashAggIter) Open() error {
	if err := h.In.Open(); err != nil {
		return err
	}
	insch := h.In.Schema()
	gidx := make([]int, len(h.GroupBy))
	for i, g := range h.GroupBy {
		j := insch.IndexOf(g)
		if j < 0 {
			return fmt.Errorf("engine: group by: column %q not in %v", g, insch.Names())
		}
		gidx[i] = j
	}
	aidx := make([]int, len(h.Aggs))
	for i, a := range h.Aggs {
		if a.Col == "" {
			aidx[i] = -1
			continue
		}
		j := insch.IndexOf(a.Col)
		if j < 0 {
			return fmt.Errorf("engine: aggregate: column %q not in %v", a.Col, insch.Names())
		}
		aidx[i] = j
	}
	groups := map[string]*aggState{}
	scratch := make(Tuple, len(gidx))
	var kbuf []byte
	for {
		cb, ok, err := h.In.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for k, n := 0, cb.Rows(); k < n; k++ {
			r := cb.RowID(k)
			for i, j := range gidx {
				scratch[i] = cb.Cols[j].Value(r)
			}
			// Non-allocating lookup on the common (existing group) path; a
			// fresh group copies the key tuple once.
			kbuf = AppendKey(kbuf[:0], scratch)
			st, ok2 := groups[string(kbuf)]
			if !ok2 {
				n := len(h.Aggs)
				st = &aggState{
					key: scratch.Clone(), count: make([]int64, n), sum: make([]float64, n),
					sumInt: make([]int64, n), isInt: make([]bool, n),
					min: make([]Value, n), max: make([]Value, n), seen: make([]bool, n),
				}
				for i := range st.isInt {
					st.isInt[i] = true
				}
				groups[string(kbuf)] = st
			}
			for i, a := range h.Aggs {
				var v Value
				if aidx[i] >= 0 {
					v = cb.Cols[aidx[i]].Value(r)
				} else {
					v = Int(1)
				}
				if v.IsNull() && a.Fn != AggCount {
					continue
				}
				st.count[i]++
				switch a.Fn {
				case AggSum, AggAvg:
					if v.K == KindFloat {
						st.isInt[i] = false
					}
					st.sum[i] += v.AsFloat()
					st.sumInt[i] += v.AsInt()
				case AggMin:
					if !st.seen[i] || Compare(v, st.min[i]) < 0 {
						st.min[i] = v
					}
				case AggMax:
					if !st.seen[i] || Compare(v, st.max[i]) > 0 {
						st.max[i] = v
					}
				}
				st.seen[i] = true
			}
		}
	}
	// Build output schema and rows.
	cols := make([]Column, 0, len(h.GroupBy)+len(h.Aggs))
	for i, g := range h.GroupBy {
		cols = append(cols, Column{Name: g, Kind: insch.Cols[gidx[i]].Kind})
	}
	for i, a := range h.Aggs {
		k := KindInt
		if a.Fn == AggAvg {
			k = KindFloat
		} else if aidx[i] >= 0 {
			srcKind := insch.Cols[aidx[i]].Kind
			if a.Fn == AggMin || a.Fn == AggMax {
				k = srcKind
			} else if srcKind == KindFloat {
				k = KindFloat
			}
		}
		name := a.As
		if name == "" {
			name = fmt.Sprintf("%s(%s)", a.Fn, a.Col)
		}
		cols = append(cols, Column{Name: name, Kind: k})
	}
	h.out = NewRelation(Schema{Cols: cols})
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := groups[k]
		row := make(Tuple, 0, len(cols))
		row = append(row, st.key...)
		for i, a := range h.Aggs {
			switch a.Fn {
			case AggCount:
				row = append(row, Int(st.count[i]))
			case AggSum:
				if st.count[i] == 0 {
					row = append(row, Null())
				} else if st.isInt[i] {
					row = append(row, Int(st.sumInt[i]))
				} else {
					row = append(row, Float(st.sum[i]))
				}
			case AggAvg:
				if st.count[i] == 0 {
					row = append(row, Null())
				} else {
					row = append(row, Float(st.sum[i]/float64(st.count[i])))
				}
			case AggMin:
				if !st.seen[i] {
					row = append(row, Null())
				} else {
					row = append(row, st.min[i])
				}
			case AggMax:
				if !st.seen[i] {
					row = append(row, Null())
				} else {
					row = append(row, st.max[i])
				}
			}
		}
		h.out.Rows = append(h.out.Rows, row)
	}
	// Global aggregate over empty input still yields one row.
	if len(h.GroupBy) == 0 && len(groups) == 0 {
		row := make(Tuple, len(h.Aggs))
		for i, a := range h.Aggs {
			if a.Fn == AggCount {
				row[i] = Int(0)
			} else {
				row[i] = Null()
			}
		}
		h.out.Rows = append(h.out.Rows, row)
	}
	h.held = HeldRows{Rows: h.out.Rows, Sch: h.out.Sch}
	return nil
}

func (h *HashAggIter) Next() (*ColBatch, bool, error) { return h.held.Next() }

func (h *HashAggIter) Close() error { h.out, h.held = nil, HeldRows{}; return h.In.Close() }

func (h *HashAggIter) Schema() Schema {
	if h.out != nil {
		return h.out.Sch
	}
	// Pre-Open best effort.
	insch := h.In.Schema()
	cols := make([]Column, 0, len(h.GroupBy)+len(h.Aggs))
	for _, g := range h.GroupBy {
		j := insch.IndexOf(g)
		k := KindNull
		if j >= 0 {
			k = insch.Cols[j].Kind
		}
		cols = append(cols, Column{Name: g, Kind: k})
	}
	for _, a := range h.Aggs {
		name := a.As
		if name == "" {
			name = fmt.Sprintf("%s(%s)", a.Fn, a.Col)
		}
		cols = append(cols, Column{Name: name, Kind: KindInt})
	}
	return Schema{Cols: cols}
}
