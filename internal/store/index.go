package store

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"urel/internal/core"
	"urel/internal/engine"
)

// Index-run file naming. A layer file F with an index on stored value
// column i owns the sibling artifact "F.a<i>.idx". The manifest records
// only the declared index columns (ManifestRel.Indexes); run files are
// located by this convention, and an unreferenced, missing, or corrupt
// run degrades the layer to a scan instead of failing the open. (The
// "F.t.idx" tuple-id runs older versions wrote are never read; a scan
// skips by the footer's tid bounds instead.)

// IdxKeyAttr names the run of stored value column ai.
func IdxKeyAttr(ai int) string { return fmt.Sprintf("a%d", ai) }

// IdxFileName returns the run file owned by a layer file for a key.
func IdxFileName(layerFile, key string) string { return layerFile + "." + key + ".idx" }

// indexRun returns the handle's run for key ("a<i>"), loading
// it lazily from the sibling file and caching the outcome — including
// failures, so a missing or corrupt run is not retried per probe. A
// run whose segment count disagrees with the file is treated as stale
// (debris from an interrupted rewrite) and rejected here; row-level
// verification at fetch time catches anything subtler.
func (h *PartHandle) indexRun(key string) *idxRun { return h.runEntry(key).run }

func (h *PartHandle) runEntry(key string) runEntry {
	if h.path == "" {
		return runEntry{}
	}
	h.idxMu.Lock()
	defer h.idxMu.Unlock()
	if e, ok := h.idxRuns[key]; ok {
		return e
	}
	var e runEntry
	if r, err := readFile(IdxFileName(h.path, key), decodeRun); err == nil && len(r.blooms) == h.NumSegments() {
		e.run = r
	} else if err == nil || !os.IsNotExist(err) {
		idxStaleTotal.Inc()
		e.stale = true
	}
	if h.idxRuns == nil {
		h.idxRuns = map[string]runEntry{}
	}
	h.idxRuns[key] = e
	return e
}

// markRunStale records that a probe found the run for key pointing at
// rows that do not carry its keys.
func (h *PartHandle) markRunStale(key string) {
	h.idxMu.Lock()
	defer h.idxMu.Unlock()
	e := h.idxRuns[key]
	e.stale = true
	h.idxRuns[key] = e
}

// RunsSound reports whether the layer's index runs are as a rewrite
// would leave them: the run of each declared stored column is present,
// and none is stale or corrupt.
func (h *PartHandle) RunsSound(declared []int) bool {
	for _, ai := range declared {
		if e := h.runEntry(IdxKeyAttr(ai)); e.run == nil || e.stale {
			return false
		}
	}
	return true
}

// WritePartIndexes builds and writes the sorted-run index files beside
// a freshly written partition layer file, one run per declared stored
// column ordinal in ords (none when it is empty). rows and
// segRows must match the WritePartition call that produced the file:
// the runs locate rows by the same tid order and uniform chunking.
// Files are synced before returning, so a manifest committed afterwards
// never references a torn run.
func WritePartIndexes(dir, file string, rows []core.URow, ords []int, segRows int) error {
	if len(ords) == 0 {
		return nil
	}
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	seq := inTIDOrder(rows)
	keys := make([]engine.Value, len(rows))
	for _, ai := range ords {
		for i := range keys {
			keys[i] = seq.at(i).Vals[ai]
		}
		if err := writeRun(filepath.Join(dir, IdxFileName(file, IdxKeyAttr(ai))), buildRun(keys, segRows), time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// writeRun writes a run built since start to path and syncs it, so a
// manifest committed afterwards never references a torn run.
func writeRun(path string, r *idxRun, start time.Time) error {
	if err := writeFile(path, r.encode()); err != nil {
		return err
	}
	idxRunsBuiltTotal.Inc()
	idxBuildSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// BuildLayerIndex builds and writes the run for stored column ai of an
// already-open layer file — the CREATE INDEX path over existing layers.
// The run reflects the file's actual per-segment row counts.
func BuildLayerIndex(h *PartHandle, ai int) error {
	if h.path == "" {
		return fmt.Errorf("store: cannot index a pathless partition handle")
	}
	start := time.Now()
	var b runBuilder
	var keys []engine.Value
	for i := 0; i < h.NumSegments(); i++ {
		seg, err := h.ReadSegment(i)
		if err != nil {
			return err
		}
		keys = keys[:0]
		for r := 0; r < seg.n; r++ {
			keys = append(keys, seg.cols[ai].Value(r))
		}
		b.segment(keys)
	}
	key := IdxKeyAttr(ai)
	if err := writeRun(IdxFileName(h.path, key), b.run(), start); err != nil {
		return err
	}
	// Invalidate the cached (likely nil) run so the new file is seen.
	h.idxMu.Lock()
	delete(h.idxRuns, key)
	h.idxMu.Unlock()
	return nil
}

// RemoveIndexFiles deletes every run file owned by a layer file (used
// when the layer itself is retired or a failed write is rolled back).
// Best-effort: missing files are fine.
func RemoveIndexFiles(dir, file string) {
	matches, _ := filepath.Glob(filepath.Join(dir, file) + ".*.idx")
	for _, m := range matches {
		os.Remove(m)
	}
}

// DeclaredIdxOrds resolves a relation's declared index columns to the
// stored value-column ordinals of one partition (columns the partition
// does not carry are skipped).
func DeclaredIdxOrds(indexes []string, partAttrs []string) []int {
	var ords []int
	for _, name := range indexes {
		for ai, a := range partAttrs {
			if a == name {
				ords = append(ords, ai)
				break
			}
		}
	}
	return ords
}
