package txn

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"urel/internal/store"
)

// Flush spills every non-empty memtable into fresh delta segment
// files layered on top of the partitions' existing files, then
// rotates the WAL: a new log restates the still-memory-only state
// (the tombstone batches, which only compaction folds away), the new
// manifest referencing both is renamed into place — the crash-atomic
// commit point — and the old log is deleted. A crash at any earlier
// point leaves the previous manifest + WAL fully authoritative and
// the new files as removable orphans.
//
// Readers are unaffected: the flushed rows change representation (file
// layer instead of memtable) but not content, and concurrent snapshots
// keep their epoch's view. Writers are blocked for the duration (the
// spill is proportional to the memtable, not the database).
func (d *DB) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushLocked()
}

func (d *DB) flushLocked() error {
	if d.closed {
		return errClosed
	}
	if d.degraded {
		return errDegraded
	}
	dirty := false
	for _, m := range d.mem {
		if len(m.Rows) > 0 {
			dirty = true
			break
		}
	}
	// A clean memtable normally makes flush a no-op — unless the WAL
	// was poisoned by a failed append, in which case the rotation below
	// (zero spills, restated tombstones, fresh log) is the heal path.
	if !dirty && !d.wal.Poisoned() {
		return nil
	}
	defer func(start time.Time) { flushSeconds.ObserveDuration(time.Since(start)) }(time.Now())
	gen := d.man.Epoch + 1

	// 1. Spill each non-empty memtable into a delta file and open a
	// validated handle over it.
	type spilled struct {
		pk    partKey
		delta store.ManifestDelta
		h     *store.PartHandle
	}
	var spills []spilled
	fail := func(err error) error {
		for _, s := range spills {
			s.h.Close()
			os.Remove(filepath.Join(d.dir, s.delta.File))
			store.RemoveIndexFiles(d.dir, s.delta.File)
		}
		return err
	}
	for ri, mr := range d.man.Relations {
		for pi, mp := range mr.Parts {
			pk := partKey{mr.Name, pi}
			m := d.mem[pk]
			if m == nil || len(m.Rows) == 0 {
				continue
			}
			file := store.DeltaFileName(ri, pi, gen)
			width, err := store.WritePartition(filepath.Join(d.dir, file), m.Rows, len(mp.Attrs), store.DefaultSegmentRows)
			if err != nil {
				return fail(fmt.Errorf("txn: flush %s: %w", file, err))
			}
			// Index runs ride beside the delta, best-effort: a failed
			// build degrades the layer's lookups to scans, it never
			// fails the flush (debris is removed so loads see either a
			// whole run or none).
			if err := store.WritePartIndexes(d.dir, file, m.Rows, store.DeclaredIdxOrds(mr.Indexes, mp.Attrs), store.DefaultSegmentRows); err != nil {
				store.RemoveIndexFiles(d.dir, file)
			}
			h, err := store.OpenPart(filepath.Join(d.dir, file))
			if err != nil {
				os.Remove(filepath.Join(d.dir, file))
				return fail(fmt.Errorf("txn: flush %s: %w", file, err))
			}
			h.SetCache(d.opts.Cache)
			spills = append(spills, spilled{pk: pk, delta: store.ManifestDelta{File: file, Rows: len(m.Rows), Width: width}, h: h})
		}
	}

	// 2. Write the successor WAL restating the residual in-memory
	// state: every live tombstone batch, with its original layer scope.
	nw, err := store.CreateWAL(filepath.Join(d.dir, store.WALFileName(gen)))
	if err != nil {
		return fail(fmt.Errorf("txn: flush: %w", err))
	}
	if ops := d.restateOpsLocked(); len(ops) > 0 {
		if err := nw.Append(store.EncodeWALRecord(ops)); err != nil {
			nw.Close()
			os.Remove(filepath.Join(d.dir, store.WALFileName(gen)))
			return fail(fmt.Errorf("txn: flush restate: %w", err))
		}
	}

	// 3. Commit: manifest references the delta files and the new WAL.
	man := d.man.Clone()
	for _, s := range spills {
		for ri := range man.Relations {
			if man.Relations[ri].Name != s.pk.rel {
				continue
			}
			mp := &man.Relations[ri].Parts[s.pk.idx]
			mp.Deltas = append(mp.Deltas, s.delta)
		}
	}
	man.Epoch = gen
	man.WAL = store.WALFileName(gen)
	for i := range man.Relations {
		man.Relations[i].MaxTID = d.maxTID[man.Relations[i].Name]
	}
	if err := store.WriteManifest(d.dir, man); err != nil {
		if errors.Is(err, store.ErrManifestUnsynced) {
			// The rename DID commit: the on-disk manifest references the
			// new files, so they must not be deleted — but its durability
			// is uncertain and the in-memory state still points at the
			// old WAL. Refuse further writes; a reopen recovers from
			// whichever manifest survived (both WALs stay on disk).
			nw.Close()
			for _, s := range spills {
				s.h.Close()
			}
			d.degraded = true
			return fmt.Errorf("txn: flush: %w", err)
		}
		nw.Close()
		os.Remove(filepath.Join(d.dir, store.WALFileName(gen)))
		return fail(fmt.Errorf("txn: flush manifest: %w", err))
	}

	// 4. Adopt the new state: swap logs, layer the delta handles, reset
	// the spilled memtables (tombstone batches stay).
	oldWAL := d.wal
	d.wal = nw
	oldWAL.Close()
	os.Remove(oldWAL.Path())
	d.man = man
	for _, s := range spills {
		d.layers[s.pk] = append(d.layers[s.pk], s.h)
		m := d.mem[s.pk]
		d.mem[s.pk] = &store.PartDelta{Batches: m.Batches, NTombs: m.NTombs}
	}
	d.flushes.Add(1)
	d.publishLocked()
	return nil
}

// restateOpsLocked encodes the state that lives only in memory (and
// must therefore ride the successor WAL): every partition's live
// tombstone batches in commit order. Memtable rows are omitted by the
// flush path (it just spilled them) — Compact folds tombstones too,
// restating nothing.
func (d *DB) restateOpsLocked() []store.WALOp {
	var ops []store.WALOp
	for _, mr := range d.man.Relations {
		for pi := range mr.Parts {
			m := d.mem[partKey{mr.Name, pi}]
			if m == nil {
				continue
			}
			for _, b := range m.Batches {
				if len(b.Entries) == 0 {
					continue
				}
				ops = append(ops, store.WALOp{Rel: mr.Name, Part: pi, Tombs: b.Entries, Gen: b.Gen})
			}
		}
	}
	return ops
}
