package core

import (
	"urel/internal/engine"
)

// tableStats returns what the optimizer's cost model wants to know about
// each column of the image, in the image's positional layout — which is
// the layout of every leaf over the partition, whatever its alias and
// however it names the columns, so a leaf hands them over as they are.
// They are taken on the first planning pass that asks — set-up paths
// that never optimize (Save, DisableOptimizer, world enumeration) do not
// pay for them — and live and die with the image, so they never describe
// other rows than the ones the plan will scan. The Once makes concurrent
// queries share one scan.
func (img *image) tableStats() *engine.TableStats {
	img.statsOnce.Do(func() {
		cols := make([]engine.Column, 2*img.width+1+len(img.kinds))
		img.stats = engine.ComputeBatchStats(&engine.ColBatch{Sch: engine.Schema{Cols: cols}, Cols: img.cols, N: img.n})
	})
	return img.stats
}
