package txn

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"urel/internal/store"
)

// Compact rewrites every dirty partition into a single fresh base file
// holding exactly its live rows: all file layers merged, each filtered
// by the tombstones scoped to it, plus the memtable rows — so deletes
// stop costing a per-row filter on scans and the layer count returns
// to one. A clean partition (see dirtyLocked) keeps its file, handle,
// index runs and cached segments: its rewrite would produce the same
// rows, so the cost of a compaction follows what was written since the
// last one, not the size of the database. The successor WAL is empty
// (nothing remains memory-only) and the rewritten manifest is renamed
// into place as the crash-atomic commit point; the replaced segment
// files and WAL are then unlinked. Handles retired here are dropped
// from the segment cache and from the DB's own references, not closed:
// concurrent readers still scanning an older epoch keep working off
// the open (unlinked) files, and once the last such snapshot becomes
// unreachable the os.File finalizer closes the descriptor — resource
// use is bounded by live snapshots, not by compaction count.
func (d *DB) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

// dirtyLocked reports whether a compaction must rewrite the partition:
// it has more than one file layer, memtable rows or live tombstones, or
// its base's index runs are not what a rewrite would build (a stale or
// corrupt run, or a missing run of a declared column). A base without a
// tuple-id run is clean — every store.Save directory starts that way.
func (d *DB) dirtyLocked(pk partKey, declared []int) bool {
	ls := d.layers[pk]
	if len(ls) != 1 {
		return true
	}
	if m := d.mem[pk]; m != nil && (len(m.Rows) > 0 || m.NTombs > 0) {
		return true
	}
	return !ls[0].RunsSound(declared)
}

func (d *DB) compactLocked() error {
	if d.closed {
		return errClosed
	}
	if d.degraded {
		return errDegraded
	}
	defer func(start time.Time) { compactionSeconds.ObserveDuration(time.Since(start)) }(time.Now())
	gen := d.man.Epoch + 1

	// 1. Rewrite each dirty partition's live rows into a fresh base file.
	type rewritten struct {
		pk   partKey
		file string
		rows int
		w    int
		h    *store.PartHandle
	}
	var rewrites []rewritten
	fail := func(err error) error {
		for _, rw := range rewrites {
			rw.h.Close()
			os.Remove(filepath.Join(d.dir, rw.file))
			store.RemoveIndexFiles(d.dir, rw.file)
		}
		return err
	}
	for ri, mr := range d.man.Relations {
		for pi, mp := range mr.Parts {
			pk := partKey{mr.Name, pi}
			declared := store.DeclaredIdxOrds(mr.Indexes, mp.Attrs)
			if !d.dirtyLocked(pk, declared) {
				continue
			}
			src := &store.PartSource{Layers: d.layers[pk]}
			if m := d.mem[pk]; m != nil {
				m.Freeze(src)
			}
			rows, err := src.Load()
			if err != nil {
				return fail(fmt.Errorf("txn: compact %s/%d: %w", mr.Name, pi, err))
			}
			file := store.BaseFileName(ri, pi, gen)
			width, err := store.WritePartition(filepath.Join(d.dir, file), rows, len(mp.Attrs), store.DefaultSegmentRows)
			if err != nil {
				return fail(fmt.Errorf("txn: compact %s: %w", file, err))
			}
			// Best-effort, as in flush: a missing run degrades lookups
			// to scans, never the compaction.
			if err := store.WritePartIndexes(d.dir, file, rows, declared, store.DefaultSegmentRows); err != nil {
				store.RemoveIndexFiles(d.dir, file)
			}
			h, err := store.OpenPart(filepath.Join(d.dir, file))
			if err != nil {
				os.Remove(filepath.Join(d.dir, file))
				return fail(fmt.Errorf("txn: compact %s: %w", file, err))
			}
			h.SetCache(d.opts.Cache)
			rewrites = append(rewrites, rewritten{pk: pk, file: file, rows: len(rows), w: width, h: h})
		}
	}

	// 2. The successor WAL: empty, since the rewrite folded every
	// memtable row and tombstone into the new bases.
	nw, err := store.CreateWAL(filepath.Join(d.dir, store.WALFileName(gen)))
	if err != nil {
		return fail(fmt.Errorf("txn: compact: %w", err))
	}

	// 3. Commit by manifest rename.
	man := d.man.Clone()
	for _, rw := range rewrites {
		for ri := range man.Relations {
			if man.Relations[ri].Name != rw.pk.rel {
				continue
			}
			mp := &man.Relations[ri].Parts[rw.pk.idx]
			mp.File = rw.file
			mp.Rows = rw.rows
			mp.Width = rw.w
			mp.Deltas = nil
		}
	}
	man.Epoch = gen
	man.WAL = store.WALFileName(gen)
	for i := range man.Relations {
		man.Relations[i].MaxTID = d.maxTID[man.Relations[i].Name]
	}
	if err := store.WriteManifest(d.dir, man); err != nil {
		if errors.Is(err, store.ErrManifestUnsynced) {
			// As in flush: the rename committed, the new files are
			// referenced on disk and must survive; refuse further writes
			// and let a reopen recover.
			nw.Close()
			for _, rw := range rewrites {
				rw.h.Close()
			}
			d.degraded = true
			return fmt.Errorf("txn: compact: %w", err)
		}
		nw.Close()
		os.Remove(filepath.Join(d.dir, store.WALFileName(gen)))
		return fail(fmt.Errorf("txn: compact manifest: %w", err))
	}

	// 4. Adopt: swap the WAL, retire the rewritten partitions' old layers
	// (cache-dropped, unlinked, closed at DB.Close), install the new
	// bases, clear their memtables.
	oldWAL := d.wal
	d.wal = nw
	oldWAL.Close()
	os.Remove(oldWAL.Path())
	d.man = man
	// Snapshots of older epochs keep the retired handles (and with them
	// the unlinked files' contents) alive exactly as long as they are
	// reachable; once the last snapshot is collected, the os.File
	// finalizer closes the descriptor — so neither descriptors nor disk
	// space accumulate across compactions.
	for _, rw := range rewrites {
		for _, h := range d.layers[rw.pk] {
			h.DropCached()
			os.Remove(h.Path())
			store.RemoveIndexFiles(d.dir, filepath.Base(h.Path()))
		}
		d.layers[rw.pk] = []*store.PartHandle{rw.h}
		d.mem[rw.pk] = &store.PartDelta{}
	}
	d.compactions.Add(1)
	d.partsRewritten.Add(uint64(len(rewrites)))
	d.publishLocked()
	return nil
}
