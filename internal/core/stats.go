package core

import (
	"strconv"

	"urel/internal/engine"
)

// colStats returns what the optimizer's cost model wants to know about
// each column of the image, in the image's positional layout so that
// any leaf over the partition — whatever its alias — can name them its
// own way. They are taken on the first planning pass that asks — set-up
// paths that never optimize (Save, DisableOptimizer, world enumeration)
// do not pay for them — and live and die with the image, so they never
// describe other rows than the ones the plan will scan. The Once makes
// concurrent queries share one scan.
func (img *image) colStats() []engine.ColStats {
	img.statsOnce.Do(func() {
		ncols := 2*img.width + 1 + len(img.kinds)
		cols := make([]engine.Column, ncols)
		for i := range cols {
			cols[i].Name = strconv.Itoa(i)
		}
		ts := engine.ComputeBatchStats(&engine.ColBatch{Sch: engine.Schema{Cols: cols}, Cols: img.cols, N: img.n})
		img.stats = make([]engine.ColStats, ncols)
		for i, c := range cols {
			img.stats[i] = ts.Cols[c.Name]
		}
	})
	return img.stats
}

// leafStats is the statistics handle of a leaf that scans the image
// under sch: the image's statistics under the leaf's column names,
// looked up only when a planning pass asks.
func (img *image) leafStats(sch engine.Schema) func() *engine.TableStats {
	return func() *engine.TableStats {
		stats := img.colStats()
		ts := &engine.TableStats{Rows: float64(img.n), Cols: make(map[string]engine.ColStats, sch.Len())}
		for i, c := range sch.Cols {
			ts.Cols[c.Name] = stats[i]
		}
		return ts
	}
}
