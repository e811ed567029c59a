package txn

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"urel/internal/core"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/ws"
)

// Options configures a mutable store.
type Options struct {
	// Cache is the shared decoded-segment cache attached to every file
	// layer (nil = uncached).
	Cache *store.SegCache
	// FlushBytes is the total memtable size that triggers a background
	// flush (<= 0 selects DefaultFlushBytes).
	FlushBytes int64
	// CompactTombs is the live-tombstone count that triggers a
	// background compaction folding deletes into rewritten bases
	// (<= 0 selects DefaultCompactTombs). Tombstones cost a per-row
	// filter on every scan of the segments their tuple ids fall in and
	// are restated into each successor WAL, so they must not accumulate
	// unboundedly under delete/update traffic.
	CompactTombs int
	// DisableAutoFlush turns the background maintenance goroutine off
	// entirely (no auto-flush, no auto-compaction); Flush and Compact
	// remain available explicitly.
	DisableAutoFlush bool
}

// DefaultFlushBytes is the auto-flush threshold: big enough that delta
// files amortize their per-file overhead, small enough to bound replay
// work and memtable footprint.
const DefaultFlushBytes = 4 << 20

// DefaultCompactTombs is the auto-compaction threshold on live
// tombstones.
const DefaultCompactTombs = 8192

// DB is a mutable U-relational database rooted at a saved-store
// directory: the immutable columnar snapshot (internal/store) extended
// with a write path. Commits append to a CRC-framed write-ahead log
// (fsynced before acknowledging) and apply to per-partition in-memory
// delta memtables; every commit publishes a fresh immutable snapshot
// (MVCC): readers obtained via Snapshot never see a partial commit and
// keep their consistent view while writers proceed. A background
// flusher spills memtables into delta segment files and a compactor
// folds tombstones into rewritten bases; both commit their state
// transition by atomically renaming the manifest, and WAL replay on
// Open restores any commits the segment files do not yet reflect.
//
// One DB owns its directory: at most one process (and one DB value)
// may have it open for writing — enforced on unix by an advisory
// flock on a lock file, so a second writable open fails immediately
// instead of interleaving WAL frames (read-only store.Open needs no
// lock). All methods are safe for concurrent use; statements execute
// one at a time under the commit lock while reads proceed lock-free
// on published snapshots.
type DB struct {
	dir  string
	opts Options
	w    *ws.WorldTable

	mu     sync.Mutex // commit lock: statements, flush, compaction, close
	lock   *dirLock   // inter-process writer exclusion (flock)
	man    *store.Manifest
	wal    *store.WAL
	layers map[partKey][]*store.PartHandle
	mem    map[partKey]*store.PartDelta
	maxTID map[string]int64
	closed bool
	// degraded marks a store whose manifest rename committed but whose
	// directory fsync failed (store.ErrManifestUnsynced): the on-disk
	// and in-memory WAL references may disagree, so further writes are
	// refused; a reopen recovers from whichever manifest survived.
	degraded bool

	commits        atomic.Uint64
	flushes        atomic.Uint64
	compactions    atomic.Uint64
	partsRewritten atomic.Uint64
	state          atomic.Pointer[dbState]

	flushCh   chan struct{}
	compactCh chan struct{}
	quit      chan struct{}
	bgDone    chan struct{}
}

// dbState is one published MVCC snapshot.
type dbState struct {
	epoch     uint64
	fileEpoch uint64 // manifest generation at publication
	udb       *core.UDB
	walBytes  int64
	memRows   int
	memBytes  int64
	tombs     int
}

// Result reports what one DML statement did.
type Result struct {
	// Kind is "insert", "delete", or "update".
	Kind string `json:"kind"`
	// Tuples is the number of logical tuples affected (inserted rows,
	// or distinct matched tuple ids for delete/update).
	Tuples int `json:"tuples"`
	// ReprRows is the number of representation rows written.
	ReprRows int `json:"repr_rows"`
	// Tombstones is the number of tombstones recorded.
	Tombstones int `json:"tombstones"`
	// Epoch is the commit epoch after the statement.
	Epoch uint64 `json:"epoch"`
}

// Stats is a point-in-time snapshot of the write path.
type Stats struct {
	Epoch       uint64 `json:"epoch"`
	FileEpoch   uint64 `json:"file_epoch"` // flush/compaction generation
	WALBytes    int64  `json:"wal_bytes"`
	MemRows     int    `json:"mem_rows"`
	MemBytes    int64  `json:"mem_bytes"`
	Tombstones  int    `json:"tombstones"`
	Commits     uint64 `json:"commits"`
	Flushes     uint64 `json:"flushes"`
	Compactions uint64 `json:"compactions"`
	// PartitionsRewritten counts the partitions compactions rewrote; a
	// compaction leaves the partitions nothing was written to alone.
	PartitionsRewritten uint64 `json:"partitions_rewritten"`
}

// Open opens dir — a directory written by store.Save (or a previous
// mutable session) — for reading and writing. Commits found in the
// write-ahead log but not yet flushed to segment files are replayed
// into the memtables, so the first snapshot already reflects every
// acknowledged commit. Orphan files from a crashed flush or compaction
// (written but never referenced by the atomically-renamed manifest)
// are removed.
func Open(dir string, opts Options) (*DB, error) {
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	man, err := store.ReadManifest(dir)
	if err != nil {
		lock.release()
		return nil, err
	}
	wait := store.OpenLayers(dir, man, opts.Cache)
	w, err := store.ReadWorldTable(dir)
	if err == nil {
		err = removeOrphans(dir, man)
	}
	srcs, lerr := wait()
	if err == nil {
		err = lerr
	}
	if err != nil {
		store.CloseLayers(srcs)
		lock.release()
		return nil, fmt.Errorf("txn: open %s: %w", dir, err)
	}
	d := &DB{
		dir:       dir,
		opts:      opts,
		w:         w,
		lock:      lock,
		man:       man,
		layers:    map[partKey][]*store.PartHandle{},
		mem:       map[partKey]*store.PartDelta{},
		maxTID:    map[string]int64{},
		flushCh:   make(chan struct{}, 1),
		compactCh: make(chan struct{}, 1),
		quit:      make(chan struct{}),
		bgDone:    make(chan struct{}),
	}
	if d.opts.FlushBytes <= 0 {
		d.opts.FlushBytes = DefaultFlushBytes
	}
	if d.opts.CompactTombs <= 0 {
		d.opts.CompactTombs = DefaultCompactTombs
	}
	ok := false
	defer func() {
		if !ok {
			d.closeHandlesLocked()
			d.lock.release()
		}
	}()
	for ri, mr := range man.Relations {
		for pi, src := range srcs[ri] {
			d.layers[partKey{mr.Name, pi}] = src.Layers
		}
		d.maxTID[mr.Name] = mr.MaxTID
	}
	if man.WAL == "" {
		// First writable open of a read-only snapshot: adopt it by
		// creating the log and recording it in the manifest.
		gen := man.Epoch + 1
		nw, err := store.CreateWAL(filepath.Join(dir, store.WALFileName(gen)))
		if err != nil {
			return nil, fmt.Errorf("txn: open %s: %w", dir, err)
		}
		man.WAL = store.WALFileName(gen)
		man.Epoch = gen
		d.syncManifestTIDs()
		if err := store.WriteManifest(dir, man); err != nil {
			nw.Close()
			return nil, fmt.Errorf("txn: open %s: %w", dir, err)
		}
		d.wal = nw
	} else {
		nw, records, err := store.OpenWAL(filepath.Join(dir, man.WAL))
		if err != nil {
			return nil, fmt.Errorf("txn: open %s: %w", dir, err)
		}
		d.wal = nw
		for _, rec := range records {
			ops, err := store.DecodeWALRecord(rec)
			if err != nil {
				nw.Close()
				return nil, fmt.Errorf("txn: open %s: %s: %w", dir, man.WAL, err)
			}
			if err := d.applyOpsLocked(ops); err != nil {
				nw.Close()
				return nil, fmt.Errorf("txn: open %s: replay: %w", dir, err)
			}
		}
	}
	d.publishLocked()
	if !d.opts.DisableAutoFlush {
		go d.background()
	} else {
		close(d.bgDone)
	}
	ok = true
	return d, nil
}

// removeOrphans deletes files this layer owns (segment files, WALs,
// the manifest temp file) that the manifest does not reference — the
// debris of a flush or compaction that crashed before its manifest
// rename.
func removeOrphans(dir string, man *store.Manifest) error {
	referenced := map[string]bool{}
	for _, f := range man.Files() {
		referenced[f] = true
	}
	if man.WAL != "" {
		referenced[man.WAL] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		// Index runs are named <layer>.<key>.idx and live or die with
		// their layer file: keep the run iff the manifest references the
		// layer. (Runs themselves are never listed in the manifest.)
		if strings.HasSuffix(name, ".idx") {
			if i := strings.Index(name, ".useg"); i >= 0 && !referenced[name[:i+len(".useg")]] {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return err
				}
			}
			continue
		}
		owned := strings.HasSuffix(name, ".useg") ||
			(strings.HasPrefix(name, "wal_") && strings.HasSuffix(name, ".log")) ||
			name == store.CatalogName+".tmp"
		if owned && !referenced[name] {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncManifestTIDs copies the live max-tid map into the manifest.
func (d *DB) syncManifestTIDs() {
	for i := range d.man.Relations {
		d.man.Relations[i].MaxTID = d.maxTID[d.man.Relations[i].Name]
	}
}

// background runs the maintenance goroutine: it drains trigger
// signals sent by commits whose memtables crossed the flush threshold
// or whose tombstones crossed the compaction threshold.
func (d *DB) background() {
	defer close(d.bgDone)
	for {
		select {
		case <-d.quit:
			return
		case <-d.flushCh:
			// Best effort: a failed background flush leaves the commits
			// safe in the WAL; the next trigger (or Close+reopen) retries.
			_ = d.Flush()
		case <-d.compactCh:
			_ = d.Compact()
		}
	}
}

// Snapshot returns the current committed state as a read-only
// database view. The view is immutable and safe for concurrent use;
// it shares the store's open files, so do not call its Close — close
// the DB instead. Successive commits publish new snapshots; a held
// snapshot keeps observing its own epoch (MVCC).
func (d *DB) Snapshot() *core.UDB { return d.state.Load().udb }

// Epoch returns the current commit epoch.
func (d *DB) Epoch() uint64 { return d.state.Load().epoch }

// Stats snapshots the write path's counters. It is lock-free (the
// published snapshot plus atomic counters), so introspection — a
// server's /stats — stays responsive while a long DML statement,
// flush, or compaction holds the commit lock.
func (d *DB) Stats() Stats {
	s := d.state.Load()
	return Stats{
		Epoch:               s.epoch,
		FileEpoch:           s.fileEpoch,
		WALBytes:            s.walBytes,
		MemRows:             s.memRows,
		MemBytes:            s.memBytes,
		Tombstones:          s.tombs,
		Commits:             d.commits.Load(),
		Flushes:             d.flushes.Load(),
		Compactions:         d.compactions.Load(),
		PartitionsRewritten: d.partsRewritten.Load(),
	}
}

// Dir returns the store directory.
func (d *DB) Dir() string { return d.dir }

// Manifest returns a deep copy of the current on-disk manifest, with
// the existence-complete bits the WAL has cleared since already clear
// (the WAL would clear them again). The
// replication endpoints serve it to bootstrapping followers, which
// fetch the referenced files afterwards; because flush/compaction
// commit by writing NEW file names and only delete superseded files
// after the manifest rename, every file a copied manifest references
// either still exists or the follower's fetch fails cleanly and it
// re-requests the manifest.
func (d *DB) Manifest() *store.Manifest {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.man.Clone()
}

// WALView reports the live WAL for streaming replication: the manifest
// generation that names it, its path, and the durable byte length.
// durable is the published snapshot's walBytes — it advances only
// after fsync succeeds (Append acknowledges before the commit
// publishes), so a reader serving bytes [off, durable) can never ship
// a torn or unacknowledged frame to a follower.
func (d *DB) WALView() (gen uint64, path string, durable int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.state.Load()
	return d.man.Epoch, d.wal.Path(), s.walBytes
}

// ErrStatement marks errors caused by the statement itself (parse
// failures, unknown relations or attributes, arity mismatches) as
// opposed to storage failures; servers map it to a client error.
var ErrStatement = fmt.Errorf("invalid statement")

// Exec parses and executes one DML statement (INSERT, DELETE, or
// UPDATE). Queries are rejected: run those against Snapshot().
func (d *DB) Exec(sql string) (*Result, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStatement, err)
	}
	if _, ok := st.(*sqlparse.Parsed); ok {
		return nil, fmt.Errorf("%w: txn: Exec wants a DML statement; run queries against Snapshot()", ErrStatement)
	}
	return d.ExecStmt(st)
}

// ExecStmt executes one parsed DML statement: the statement is
// translated into ordinary relational plans over the current snapshot
// (per the paper, updates are just queries that emit delta rows), the
// resulting ops are appended to the WAL (fsynced), applied to the
// memtables, and published as a new epoch — atomically with respect to
// every reader.
func (d *DB) ExecStmt(st sqlparse.Statement) (*Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ci, ok := st.(*sqlparse.CreateIndexStmt); ok {
		// DDL, not DML: runs are built and the declaration committed by
		// manifest rename, bypassing the WAL entirely.
		return d.createIndexLocked(ci)
	}
	if d.closed {
		return nil, errClosed
	}
	if d.degraded {
		return nil, errDegraded
	}
	if d.fencedLocked() {
		return nil, &FenceError{Own: d.man.Fence, Incoming: d.man.FencedBy, Superseded: true}
	}
	s := d.state.Load()
	ops, res, err := buildOps(s.udb, d.maxTID, d.layerGenLocked, st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStatement, err)
	}
	if len(ops) > 0 {
		if err := d.wal.Append(store.EncodeWALRecord(ops)); err != nil {
			// A failed append may have poisoned the log; a rotation
			// (flush) heals it, so nudge the background flusher.
			if !d.opts.DisableAutoFlush {
				select {
				case d.flushCh <- struct{}{}:
				default:
				}
			}
			return nil, fmt.Errorf("txn: wal append: %w", err)
		}
		if err := d.applyOpsLocked(ops); err != nil {
			return nil, err
		}
		d.commits.Add(1)
		d.publishLocked()
		d.maybeTriggerMaintenanceLocked()
	}
	res.Epoch = d.state.Load().epoch
	return res, nil
}

var errClosed = fmt.Errorf("txn: database is closed")

var errDegraded = fmt.Errorf("txn: store degraded after a manifest sync failure; close and reopen to recover")

// layerGenLocked returns the partition's current file-layer count —
// the scope recorded on new tombstone batches.
func (d *DB) layerGenLocked(pk partKey) int { return len(d.layers[pk]) }

// applyOpsLocked applies decoded ops to the memtables and the tid
// allocator, in order. A clear op clears the bit in the in-memory
// manifest, which the next flush or compaction writes.
func (d *DB) applyOpsLocked(ops []store.WALOp) error {
	for _, o := range ops {
		if o.ClearsExistence {
			if err := d.man.ClearExistence(o.Rel); err != nil {
				return err
			}
			continue
		}
		pk := partKey{o.Rel, o.Part}
		if _, ok := d.layers[pk]; !ok {
			return fmt.Errorf("txn: op targets unknown partition %s/%d", o.Rel, o.Part)
		}
		mp := d.mem[pk]
		if mp == nil {
			mp = &store.PartDelta{}
			d.mem[pk] = mp
		}
		mp.ApplyOp(o)
		for _, r := range o.Rows {
			if r.TID > d.maxTID[o.Rel] {
				d.maxTID[o.Rel] = r.TID
			}
		}
	}
	return nil
}

// publishLocked builds and publishes the next epoch's snapshot.
func (d *DB) publishLocked() {
	var epoch uint64
	if s := d.state.Load(); s != nil {
		epoch = s.epoch
	}
	st := &dbState{epoch: epoch + 1, fileEpoch: d.man.Epoch, walBytes: d.wal.Size()}
	udb := core.NewUDB()
	udb.W = d.w
	for _, mr := range d.man.Relations {
		udb.MustAddRelation(mr.Name, mr.Attrs...)
		udb.Rels[mr.Name].ExistenceComplete = mr.ExistenceComplete
		for pi, mp := range mr.Parts {
			u := udb.MustAddPartition(mr.Name, mp.Name, mp.Attrs...)
			pk := partKey{mr.Name, pi}
			ls := d.layers[pk]
			src := &store.PartSource{
				Layers:  ls[:len(ls):len(ls)],
				IdxCols: store.DeclaredIdxOrds(mr.Indexes, mp.Attrs),
			}
			if m := d.mem[pk]; m != nil {
				m.Freeze(src)
				st.memRows += len(m.Rows)
				st.memBytes += m.Bytes
				st.tombs += m.NTombs
			}
			u.Back = src
		}
	}
	st.udb = udb
	d.state.Store(st)
}

// maybeTriggerMaintenanceLocked signals the background goroutine when
// the memtables cross the flush threshold or the live tombstones
// cross the compaction threshold.
func (d *DB) maybeTriggerMaintenanceLocked() {
	if d.opts.DisableAutoFlush {
		return
	}
	var bytes int64
	tombs := 0
	for _, m := range d.mem {
		bytes += m.Bytes
		tombs += m.NTombs
	}
	if tombs >= d.opts.CompactTombs {
		select {
		case d.compactCh <- struct{}{}:
		default:
		}
		return // compaction folds the memtables too
	}
	if bytes < d.opts.FlushBytes {
		return
	}
	select {
	case d.flushCh <- struct{}{}:
	default:
	}
}

// Close stops the background flusher, syncs and closes the WAL, and
// releases every file handle (including handles retired by past
// compactions). Committed state needs no flushing: the WAL already
// holds it durably and replays on the next Open.
func (d *DB) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.quit)
	d.mu.Unlock()
	<-d.bgDone

	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	if d.wal != nil {
		err = d.wal.Close()
	}
	d.closeHandlesLocked()
	d.lock.release()
	return err
}

func (d *DB) closeHandlesLocked() {
	for _, ls := range d.layers {
		for _, h := range ls {
			h.Close()
		}
	}
}
