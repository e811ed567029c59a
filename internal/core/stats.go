package core

import (
	"strconv"

	"urel/internal/engine"
)

// partStats is what the optimizer's cost model wants to know about one
// in-memory partition, in the positional U[D; T; B] layout so that any
// leaf over the partition — whatever its alias and attribute subset —
// can pick its columns out.
type partStats struct {
	rows  int               // len(Rows) when the statistics were taken
	width int               // descriptor width they were taken at
	cols  []engine.ColStats // 2*width descriptor columns, tid, one per Attrs
}

// partStats returns the partition's statistics at the given descriptor
// width. They are taken on the first planning pass that asks — set-up
// paths that never optimize (Save, DisableOptimizer, world enumeration)
// do not pay for them — and again when the row count or the width has
// changed since; Clone and Materialize start without them. Statistics
// only steer plan choice, so a stale set after an in-place rewrite of
// equal size costs at worst a slower plan. The lock makes concurrent
// queries share one scan.
func (u *URelation) partStats(width int) *partStats {
	u.statsMu.Lock()
	defer u.statsMu.Unlock()
	if u.stats == nil || u.stats.rows != len(u.Rows) || u.stats.width != width {
		u.stats = u.takeStats(width)
	}
	return u.stats
}

// takeStats scans the whole partition, every attribute, under
// positional column names.
func (u *URelation) takeStats(width int) *partStats {
	attrIdx := make([]int, len(u.Attrs))
	for i := range attrIdx {
		attrIdx[i] = i
	}
	cols := make([]engine.Column, 2*width+1+len(u.Attrs))
	for i := range cols {
		cols[i].Name = strconv.Itoa(i)
	}
	ts := engine.ComputeStats(u.encode(engine.Schema{Cols: cols}, width, attrIdx))
	ps := &partStats{rows: len(u.Rows), width: width, cols: make([]engine.ColStats, len(cols))}
	for i, c := range cols {
		ps.cols[i] = ts.Cols[c.Name]
	}
	return ps
}

// leafStats is the statistics handle of a leaf that encodes the
// partition under sch (width descriptor pairs, tuple id, the attributes
// attrIdx selects): the partition's statistics under the leaf's column
// names, looked up only when a planning pass asks.
func (u *URelation) leafStats(sch engine.Schema, width int, attrIdx []int) func() *engine.TableStats {
	return func() *engine.TableStats {
		ps := u.partStats(width)
		ts := &engine.TableStats{Rows: float64(ps.rows), Cols: make(map[string]engine.ColStats, sch.Len())}
		for i, c := range sch.Cols {
			src := i // descriptor pairs and the tuple id sit where the leaf has them
			if i > 2*width {
				src = 2*width + 1 + attrIdx[i-2*width-1]
			}
			ts.Cols[c.Name] = ps.cols[src]
		}
		return ts
	}
}
