package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"urel/internal/core"
	"urel/internal/ws"
)

// Directory layout of a saved database:
//
//	catalog.json   the manifest, in the catalog layout below (written
//	               last: its presence marks a complete snapshot;
//	               rewritten via tmp+rename so every mutation of the
//	               directory is crash-atomic)
//	worlds.bin     the world table W
//	r<i>_p<j>.useg one base segment file per vertical partition
//	r<i>_p<j>_d<g>.useg
//	               delta segment files flushed by the write path
//	               (internal/txn), layered on top of the base
//	wal_<n>.log    the write-ahead log of commits not yet folded into
//	               segment files (mutable stores only)
//
// Catalog layout (varints unless noted; strings and lists
// length-prefixed):
//
//	catalogMagic
//	version, WAL name, epoch, fence, fenced-by
//	shard: 0, or 1 then index, count, sharded relation names
//	relations, each: name, attribute names, max tid,
//	  existence-complete (one byte, 0 or 1), declared indexes,
//	  partitions, each: name, attributes, file, rows, width,
//	    deltas, each: file, rows, width
//	crc32 (fixed32) of everything before it
//
// A partition's attributes and a relation's indexes are positions in
// the relation's attribute names.
const (
	// CatalogName keeps the name of the JSON manifest that format
	// version 3 wrote: a new name would need both names looked up on
	// open and the stale file removed, which go with the version 3
	// reader.
	CatalogName = "catalog.json"
	WorldsName  = "worlds.bin"
	// FormatVersion is bumped on incompatible layout changes, and is the
	// only version a store writes. Version 4 writes the manifest in the
	// binary catalog layout; every segment file is URSEGv2 (rows in tid
	// order, per-segment tid bounds and a footer checksum). A version 3
	// manifest, JSON, still opens and is rewritten as version 4 at the
	// store's next manifest write; versions 1 and 2, and URSEGv1 files,
	// are refused.
	FormatVersion = 4
)

// resaveHint is how an older build's directory is brought up to date.
const resaveHint = "open the directory with an earlier build that still reads it and store.Save it to a new one"

const (
	worldsMagic  = "URWSv1\n\x00"
	catalogMagic = "URCATLG\n"
)

// Manifest is the manifest of a saved database. It is exported so the
// write path (internal/txn) can extend a snapshot with delta segment
// files and a WAL reference; read-only callers never mutate it. The
// catalog layout has no room for a field it does not name, so adding or
// changing a field bumps FormatVersion. The JSON tags read version 3
// manifests.
type Manifest struct {
	Version int `json:"version"`
	// WAL names the write-ahead log whose records are not yet reflected
	// in the segment files; empty for read-only snapshots. Replaying it
	// on open reconstructs the unflushed commits.
	WAL string `json:"wal,omitempty"`
	// Epoch counts flush/compaction generations of a mutable store; it
	// names fresh delta/WAL files uniquely.
	Epoch     uint64        `json:"epoch,omitempty"`
	Relations []ManifestRel `json:"relations"`
	// Shard marks the directory as one hash-shard of a larger catalog
	// (written by ShardedSave); nil for whole-catalog directories.
	Shard *ShardSpec `json:"shard,omitempty"`
	// Fence is the write-authority epoch of this directory. Promoting a
	// replica bumps it past its upstream's, and coordinated writes carry
	// the coordinator's view of it — a primary asked to write under a
	// HIGHER epoch has been superseded and must refuse (split-brain
	// fencing). Zero on never-promoted catalogs.
	Fence uint64 `json:"fence,omitempty"`
	// FencedBy records the highest foreign epoch this directory has
	// witnessed; persisted before refusing the triggering write, so a
	// fenced old primary stays fenced across restarts.
	FencedBy uint64 `json:"fenced_by,omitempty"`
}

// ManifestRel describes one logical relation.
type ManifestRel struct {
	Name  string         `json:"name"`
	Attrs []string       `json:"attrs"`
	Parts []ManifestPart `json:"partitions"`
	// MaxTID is the largest tuple id stored in any partition of the
	// relation (0 when the relation is empty); the write path allocates
	// fresh tuple ids above it.
	MaxTID int64 `json:"max_tid,omitempty"`
	// Indexes lists the declared secondary-index value columns (from
	// CREATE INDEX). Run files live beside each layer file by naming
	// convention; tuple-id runs are always built and never listed here.
	Indexes []string `json:"indexes,omitempty"`
	// ExistenceComplete carries core.URelSet.ExistenceComplete. A
	// version 3 manifest without the field, written before it or
	// rewritten by a binary that predates it, reads it clear: its store
	// merges every partition of the relation in every query, which is
	// always exact. A WAL clear op (WALOp) clears it at commit; flush and
	// compaction write the cleared bit.
	ExistenceComplete bool `json:"existence_complete,omitempty"`
}

// ClearExistence applies a WAL clear op to the manifest: relation rel
// is no longer known to be existence-complete.
func (m *Manifest) ClearExistence(rel string) error {
	for i := range m.Relations {
		if m.Relations[i].Name == rel {
			m.Relations[i].ExistenceComplete = false
			return nil
		}
	}
	return fmt.Errorf("store: WAL op clears unknown relation %q", rel)
}

// ManifestPart describes one vertical partition: a base segment file
// plus any delta files layered on top by flushes.
type ManifestPart struct {
	Name   string          `json:"name"`
	Attrs  []string        `json:"attrs"`
	File   string          `json:"file"`
	Rows   int             `json:"rows"`
	Width  int             `json:"width"`
	Deltas []ManifestDelta `json:"deltas,omitempty"`
}

// ManifestDelta locates one flushed delta segment file.
type ManifestDelta struct {
	File  string `json:"file"`
	Rows  int    `json:"rows"`
	Width int    `json:"width"`
}

// Clone deep-copies the manifest (the write path mutates a copy and
// only adopts it after the atomic rename succeeds).
func (m *Manifest) Clone() *Manifest {
	out := *m
	out.Relations = make([]ManifestRel, len(m.Relations))
	for i, mr := range m.Relations {
		nr := mr
		nr.Attrs = append([]string(nil), mr.Attrs...)
		nr.Indexes = append([]string(nil), mr.Indexes...)
		nr.Parts = make([]ManifestPart, len(mr.Parts))
		for j, mp := range mr.Parts {
			np := mp
			np.Attrs = append([]string(nil), mp.Attrs...)
			np.Deltas = append([]ManifestDelta(nil), mp.Deltas...)
			nr.Parts[j] = np
		}
		out.Relations[i] = nr
	}
	return &out
}

// Files lists every segment file the manifest references: each
// partition's base, then its deltas in flush order.
func (m *Manifest) Files() []string {
	var files []string
	for _, mr := range m.Relations {
		for _, mp := range mr.Parts {
			files = append(files, mp.File)
			for _, d := range mp.Deltas {
				files = append(files, d.File)
			}
		}
	}
	return files
}

// partFileName names partition files by position, keeping arbitrary
// relation/partition names out of the filesystem.
func partFileName(ri, pi int) string { return fmt.Sprintf("r%d_p%d.useg", ri, pi) }

// DeltaFileName names the flushed delta file of partition (ri, pi) at
// generation gen.
func DeltaFileName(ri, pi int, gen uint64) string {
	return fmt.Sprintf("r%d_p%d_d%d.useg", ri, pi, gen)
}

// BaseFileName names the rewritten base file of partition (ri, pi) at
// generation gen (compaction rewrites bases under fresh names so the
// old file stays valid for concurrent readers).
func BaseFileName(ri, pi int, gen uint64) string {
	if gen == 0 {
		return partFileName(ri, pi)
	}
	return fmt.Sprintf("r%d_p%d_g%d.useg", ri, pi, gen)
}

// WALFileName names the write-ahead log of generation gen.
func WALFileName(gen uint64) string { return fmt.Sprintf("wal_%d.log", gen) }

// ReadManifest loads and validates the manifest of a saved database.
func ReadManifest(dir string) (*Manifest, error) {
	m, err := readFile(filepath.Join(dir, CatalogName), ParseManifest)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return m, nil
}

// ParseManifest decodes and validates manifest bytes — the catalog file
// on disk, or the /store/manifest response a replica bootstraps from.
// It accepts the catalog layout at FormatVersion, and a version 3
// manifest, JSON, which it returns as a version 4 one: the store's next
// manifest write rewrites it in the catalog layout.
func ParseManifest(buf []byte) (*Manifest, error) {
	var m *Manifest
	var err error
	if len(buf) > 0 && buf[0] == '{' {
		m, err = parseManifestV3(buf)
	} else {
		m, err = decodeManifest(buf)
	}
	if err != nil {
		return nil, err
	}
	if m.Version != FormatVersion {
		return nil, corruptf("format version %d, want %d: %s", m.Version, FormatVersion, resaveHint)
	}
	for _, mr := range m.Relations {
		for _, mp := range mr.Parts {
			if err := CheckFileName(mp.File); err != nil {
				return nil, err
			}
			for _, d := range mp.Deltas {
				if err := CheckFileName(d.File); err != nil {
					return nil, err
				}
			}
		}
	}
	if m.WAL != "" {
		if err := CheckFileName(m.WAL); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// parseManifestV3 reads a JSON manifest, which only format version 3
// and earlier wrote, as a version 4 one if it is at version 3: each
// partition's attributes and each declared index must then be among
// its relation's attributes, as the catalog layout writes them.
func parseManifestV3(buf []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(buf, m); err != nil {
		return nil, corruptf("catalog: %v", err)
	}
	if m.Version != 3 {
		return nil, corruptf("JSON catalog at format version %d, want 3: %s", m.Version, resaveHint)
	}
	for _, mr := range m.Relations {
		lists := [][]string{mr.Indexes}
		for _, mp := range mr.Parts {
			lists = append(lists, mp.Attrs)
		}
		for _, names := range lists {
			for _, a := range names {
				if !slices.Contains(mr.Attrs, a) {
					return nil, corruptf("catalog: relation %q has no attribute %q", mr.Name, a)
				}
			}
		}
	}
	m.Version = FormatVersion
	return m, nil
}

// EncodeManifest renders m in the catalog layout; the /store/manifest
// response a replica bootstraps from is these bytes too. Every
// partition attribute and declared index of a relation must be among
// its attributes: core refuses a partition over an attribute its
// relation lacks, CREATE INDEX a column it lacks, and ParseManifest a
// catalog that names one.
func EncodeManifest(m *Manifest) []byte {
	b := appendUint([]byte(catalogMagic), uint64(m.Version))
	b = appendString(b, m.WAL)
	b = appendUint(appendUint(appendUint(b, m.Epoch), m.Fence), m.FencedBy)
	if s := m.Shard; s == nil {
		b = append(b, 0)
	} else {
		b = appendInt(appendInt(append(b, 1), int64(s.Index)), int64(s.Count))
		b = appendStrings(b, s.Sharded)
	}
	b = appendUint(b, uint64(len(m.Relations)))
	for _, mr := range m.Relations {
		b = appendStrings(appendString(b, mr.Name), mr.Attrs)
		b = appendInt(b, mr.MaxTID)
		if mr.ExistenceComplete {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendPositions(b, mr.Indexes, mr.Attrs)
		b = appendUint(b, uint64(len(mr.Parts)))
		for _, mp := range mr.Parts {
			b = appendPositions(appendString(b, mp.Name), mp.Attrs, mr.Attrs)
			b = appendInt(appendInt(appendString(b, mp.File), int64(mp.Rows)), int64(mp.Width))
			b = appendUint(b, uint64(len(mp.Deltas)))
			for _, d := range mp.Deltas {
				b = appendInt(appendInt(appendString(b, d.File), int64(d.Rows)), int64(d.Width))
			}
		}
	}
	return seal(b)
}

// appendStrings appends a list of strings.
func appendStrings(b []byte, xs []string) []byte {
	b = appendUint(b, uint64(len(xs)))
	for _, x := range xs {
		b = appendString(b, x)
	}
	return b
}

// appendPositions appends the list of names as their positions in attrs.
func appendPositions(b []byte, names, attrs []string) []byte {
	b = appendUint(b, uint64(len(names)))
	for _, a := range names {
		i := slices.Index(attrs, a)
		if i < 0 {
			panic(fmt.Sprintf("store: manifest names attribute %q outside its relation's %q", a, attrs))
		}
		b = appendUint(b, uint64(i))
	}
	return b
}

// decodeManifest parses the catalog layout EncodeManifest writes in a
// few allocations: every name is a window of one copy of the body, and
// a list of consecutive positions a capacity-limited window of the
// relation's attributes, its strings shared. Every count is bounded by
// the bytes left before anything is allocated for it; an empty list
// decodes as nil. What it accepts re-encodes to the bytes it was given:
// a varint longer than it need be, or a flag byte other than 0 or 1, is
// corrupt.
func decodeManifest(b []byte) (*Manifest, error) {
	c, err := openSealed(b, catalogMagic, "catalog")
	if err != nil {
		return nil, err
	}
	r := &catalogReader{c: c, text: string(c.b)}
	m := &Manifest{Version: int(r.uint()), WAL: r.name(), Epoch: r.uint(), Fence: r.uint(), FencedBy: r.uint()}
	if r.flag() {
		m.Shard = &ShardSpec{Index: int(r.int()), Count: int(r.int()), Sharded: r.names()}
	}
	// A relation takes at least six bytes: its name, attributes, max tid,
	// flag, indexes and partitions; a partition six: its name,
	// attributes, file, rows, width and deltas; a delta three.
	m.Relations = listOf[ManifestRel](r.count(6))
	for i := range m.Relations {
		mr := &m.Relations[i]
		mr.Name, mr.Attrs, mr.MaxTID, mr.ExistenceComplete = r.name(), r.names(), r.int(), r.flag()
		mr.Indexes = r.positions(mr.Attrs)
		mr.Parts = listOf[ManifestPart](r.count(6))
		for j := range mr.Parts {
			mp := &mr.Parts[j]
			mp.Name, mp.Attrs, mp.File, mp.Rows, mp.Width = r.name(), r.positions(mr.Attrs), r.name(), int(r.int()), int(r.int())
			mp.Deltas = listOf[ManifestDelta](r.count(3))
			for k := range mp.Deltas {
				mp.Deltas[k] = ManifestDelta{File: r.name(), Rows: int(r.int()), Width: int(r.int())}
			}
		}
	}
	if r.err == nil && r.c.left() != 0 {
		r.err = corruptf("%d trailing bytes in catalog", r.c.left())
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// catalogReader decodes a catalog through the cursor, keeping the first
// error: once there is one, every read returns a zero value and every
// count 0, so a decode runs to its end and returns that error.
type catalogReader struct {
	c    cursor
	text string // the body, of which every name is a window
	err  error
}

func (r *catalogReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// check fails on err, or on a varint read from at that is longer than
// it need be: its last byte is then 0.
func (r *catalogReader) check(at int, err error) {
	if err == nil && (r.c.pos-at < 2 || r.c.b[r.c.pos-1] != 0) {
		return
	}
	if err == nil {
		err = corruptf("overlong varint at offset %d", at)
	}
	r.fail(err)
}

func (r *catalogReader) uint() uint64 {
	at := r.c.pos
	v, err := r.c.uint()
	r.check(at, err)
	return v
}

func (r *catalogReader) int() int64 {
	at := r.c.pos
	v, err := r.c.int()
	r.check(at, err)
	return v
}

// count decodes the count of a list of items that take at least unit
// bytes each, 0 past an error or beyond what the bytes left could hold.
func (r *catalogReader) count(unit int) int {
	n := r.uint()
	if left := uint64(r.c.left()); n > left || n*uint64(unit) > left {
		r.fail(corruptf("count %d of %d-byte items exceeds the %d bytes left", n, unit, r.c.left()))
		return 0
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *catalogReader) flag() bool {
	v, err := r.c.byte()
	if err == nil && v > 1 {
		err = corruptf("flag byte %d at offset %d", v, r.c.pos-1)
	}
	if err != nil {
		r.fail(err)
	}
	return v == 1
}

func (r *catalogReader) name() string {
	n := r.count(1)
	r.c.pos += n
	return r.text[r.c.pos-n : r.c.pos]
}

func (r *catalogReader) names() []string {
	xs := listOf[string](r.count(1))
	for i := range xs {
		xs[i] = r.name()
	}
	return xs
}

// positions decodes a list of positions in attrs as the names there.
func (r *catalogReader) positions(attrs []string) []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	at := r.c.pos
	first, run := r.uint(), true
	for k := 1; k < n; k++ {
		run = run && r.uint() == first+uint64(k)
	}
	if end := first + uint64(n); run && first < end && end <= uint64(len(attrs)) {
		return attrs[first:end:end]
	}
	r.c.pos = at
	xs := make([]string, n)
	for k := range xs {
		if p := r.uint(); p < uint64(len(attrs)) {
			xs[k] = attrs[p]
		} else {
			r.fail(corruptf("attribute position %d of a relation of %d", p, len(attrs)))
		}
	}
	return xs
}

// listOf returns a list of n zero items, nil when n is 0.
func listOf[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// CheckFileName refuses a manifest's or a replication request's file
// name unless it is non-empty, its own base name, and starts with no dot.
func CheckFileName(name string) error {
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return corruptf("file name %q is not a plain name in the directory", name)
	}
	return nil
}

// ErrManifestUnsynced reports that the manifest rename itself
// succeeded — the new manifest IS in place and its files must not be
// deleted — but the directory fsync after it failed, so the rename's
// durability across a power failure is uncertain. Callers must treat
// the commit as applied and the store as degraded (stop further
// writes; a reopen re-reads whichever manifest survived).
var ErrManifestUnsynced = errors.New("store: manifest renamed but directory sync failed")

// WriteManifest atomically replaces the manifest: the new one is
// written to a temporary file, synced, and renamed over catalog.json —
// so a crash leaves either the old or the new manifest, never a torn
// one — and the parent directory is fsynced afterwards, making the
// rename (and the directory entries of any files created before it,
// e.g. fresh delta segments and the successor WAL) durable before the
// caller proceeds to delete superseded files. Every state transition
// of a mutable store (flush, compaction) commits by this rename.
//
// An error wrapping ErrManifestUnsynced means the rename succeeded
// (the new manifest is in place); any other error means the old
// manifest is still authoritative.
func WriteManifest(dir string, m *Manifest) error {
	if err := InstallFile(filepath.Join(dir, CatalogName), EncodeManifest(m)); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("%w: %v", ErrManifestUnsynced, err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and new entries inside it
// survive a power failure. Windows neither needs nor supports fsync
// on directory handles (FlushFileBuffers fails on them), so it is a
// no-op there.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err = ioFault("sync", dir); err == nil {
		err = df.Sync()
	}
	if cerr := df.Close(); err == nil {
		err = cerr
	}
	return err
}

// Save snapshots the entire database — world table, schemas, and every
// vertical partition — into dir (created if absent). The manifest is
// written last, so a crashed save leaves no openable snapshot. Backed
// partitions are copied through their backing (tombstone-filtered);
// the source database is not modified.
func Save(db *core.UDB, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, WorldsName), EncodeWorldTable(db.W)); err != nil {
		return fmt.Errorf("store: save world table: %w", err)
	}
	man := &Manifest{Version: FormatVersion}
	for ri, relName := range db.RelNames() {
		rs := db.Rels[relName]
		mr := ManifestRel{Name: relName, Attrs: rs.Attrs, ExistenceComplete: rs.ExistenceComplete}
		for pi, p := range rs.Parts {
			rows := p.Rows
			if p.Back != nil {
				var err error
				if rows, err = p.Back.Load(); err != nil {
					return fmt.Errorf("store: save %s: %w", p.Name, err)
				}
			}
			file := partFileName(ri, pi)
			width, err := WritePartition(filepath.Join(dir, file), rows, len(p.Attrs), DefaultSegmentRows)
			if err != nil {
				return fmt.Errorf("store: save %s: %w", p.Name, err)
			}
			// No index runs here: a fresh save declares no indexes.
			// The rows are written in tid order with per-segment tid
			// bounds in the footer, so a hash join's tid range skips the
			// segments it misses without a tid run. Runs appear when
			// CREATE INDEX declares columns or flush/compact rewrites
			// layers.
			for _, r := range rows {
				if r.TID > mr.MaxTID {
					mr.MaxTID = r.TID
				}
			}
			mr.Parts = append(mr.Parts, ManifestPart{
				Name: p.Name, Attrs: p.Attrs, File: file, Rows: len(rows), Width: width,
			})
		}
		man.Relations = append(man.Relations, mr)
	}
	return WriteManifest(dir, man)
}

// Open reopens a saved database. The world table and schemas load
// eagerly (they are small); every partition stays on disk, backed by
// its segment files, and is scanned lazily at query time. Call
// (*core.UDB).Materialize to pull everything into memory, and
// (*core.UDB).Close to release the segment files.
//
// If the directory has a write-ahead log (it was written to by the
// transactional layer, internal/txn), the log's intact records are
// replayed read-only into the in-memory deltas of the returned
// snapshot — so every acknowledged commit is visible, including ones
// no flush has reached, and a torn tail from a crashed writer is
// ignored. The file itself is not modified.
func Open(dir string) (*core.UDB, error) { return OpenCached(dir, nil) }

// OpenCached is Open with a shared decoded-segment cache attached to
// every partition handle: scans serve repeat segments from memory
// (concurrent cold misses are coalesced) instead of re-reading and
// re-decoding the file per query. One cache may back any number of
// databases; a nil cache behaves exactly like Open.
//
// Read-only opens take no lock, so a writer's flush or compaction in
// another process can rename the manifest and delete the files the
// just-read manifest referenced mid-open; that window surfaces as a
// file-not-found, and OpenCached retries with a freshly read manifest
// a few times before giving up.
func OpenCached(dir string, cache *SegCache) (*core.UDB, error) {
	var db *core.UDB
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		db, err = openCachedOnce(dir, cache)
		if err == nil || !errors.Is(err, os.ErrNotExist) {
			return db, err
		}
	}
	return db, err
}

func openCachedOnce(dir string, cache *SegCache) (*core.UDB, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	// The partitions' files open while this goroutine reads the world
	// table and declares the schema.
	wait := OpenLayers(dir, man, cache)
	w, err := ReadWorldTable(dir)
	db := core.NewUDB()
	db.W = w
	var us []*core.URelation
	for _, mr := range man.Relations {
		if err == nil {
			err = db.AddRelation(mr.Name, mr.Attrs...)
		}
		for _, mp := range mr.Parts {
			if err == nil {
				var u *core.URelation
				u, err = db.AddPartition(mr.Name, mp.Name, mp.Attrs...)
				us = append(us, u)
			}
		}
	}
	srcs, lerr := wait()
	if err == nil {
		err = lerr
	}
	ok := false
	defer func() {
		if !ok {
			db.Close()
			CloseLayers(srcs)
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	rels := make(map[string]int, len(man.Relations))
	for ri, mr := range man.Relations {
		rels[mr.Name] = ri
		for pi, src := range srcs[ri] {
			src.IdxCols = DeclaredIdxOrds(mr.Indexes, mr.Parts[pi].Attrs)
			us[0].Back, us = src, us[1:]
		}
	}
	if man.WAL != "" {
		records, err := ReadWALRecords(filepath.Join(dir, man.WAL))
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		deltas := map[*PartSource]*PartDelta{}
		for _, rec := range records {
			ops, err := DecodeWALRecord(rec)
			if err != nil {
				return nil, fmt.Errorf("store: open %s: %s: %w", dir, man.WAL, err)
			}
			for _, o := range ops {
				if o.ClearsExistence {
					if err := man.ClearExistence(o.Rel); err != nil {
						return nil, fmt.Errorf("store: open %s: %w", dir, err)
					}
					continue
				}
				ri, known := rels[o.Rel]
				if !known || o.Part < 0 || o.Part >= len(srcs[ri]) {
					return nil, fmt.Errorf("store: open %s: WAL op targets unknown partition %s/%d", dir, o.Rel, o.Part)
				}
				src := srcs[ri][o.Part]
				pd := deltas[src]
				if pd == nil {
					pd = &PartDelta{}
					deltas[src] = pd
				}
				pd.ApplyOp(o)
			}
		}
		for src, pd := range deltas {
			pd.Freeze(src)
		}
	}
	for _, mr := range man.Relations {
		db.Rels[mr.Name].ExistenceComplete = mr.ExistenceComplete
	}
	ok = true
	return db, nil
}

// OpenLayers starts opening every segment file of man, each
// partition's base, then its deltas in flush order, with cache
// attached, and returns at once: the caller reads the world table in
// the meantime, then calls wait, once, for the layered sources,
// [relation][partition] in manifest order. min(GOMAXPROCS, files)
// goroutines open the files, each taking the next in manifest order.
// After a failure none takes another, and wait closes what was opened
// and returns the error of the first file in manifest order that
// failed: every file before it was taken, so which error that is does
// not depend on scheduling.
func OpenLayers(dir string, man *Manifest, cache *SegCache) (wait func() ([][]*PartSource, error)) {
	nparts, nfiles := 0, 0
	for _, mr := range man.Relations {
		nparts += len(mr.Parts)
		for _, mp := range mr.Parts {
			nfiles += 1 + len(mp.Deltas)
		}
	}
	layers := make([]layer, 0, nfiles)
	for _, mr := range man.Relations {
		for _, mp := range mr.Parts {
			layers = append(layers, layer{mp.File, mp.Rows, mp.Width, len(mp.Attrs)})
			for _, d := range mp.Deltas {
				layers = append(layers, layer{d.File, d.Rows, d.Width, len(mp.Attrs)})
			}
		}
	}
	handles := make([]*PartHandle, len(layers))
	errs := make([]error, len(layers))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(layers))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(layers) {
					return
				}
				if handles[i], errs[i] = openLayer(dir, layers[i], cache); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	return func() ([][]*PartSource, error) {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				for _, h := range handles {
					if h != nil {
						h.Close()
					}
				}
				return nil, errs[i]
			}
		}
		srcs, flat, slab := make([][]*PartSource, len(man.Relations)), make([]*PartSource, nparts), make([]PartSource, nparts)
		for ri, mr := range man.Relations {
			srcs[ri], flat = flat[:len(mr.Parts):len(mr.Parts)], flat[len(mr.Parts):]
			for pi, mp := range mr.Parts {
				n := 1 + len(mp.Deltas)
				slab[0].Layers, handles = handles[:n:n], handles[n:]
				srcs[ri][pi], slab = &slab[0], slab[1:]
			}
		}
		return srcs, nil
	}
}

// layer is one segment file of a partition of cols attributes that the
// manifest says holds rows rows at descriptor width width.
type layer struct {
	file              string
	rows, width, cols int
}

// openLayer opens l in dir and checks it against the manifest.
func openLayer(dir string, l layer, cache *SegCache) (*PartHandle, error) {
	h, err := OpenPart(filepath.Join(dir, l.file))
	if err != nil {
		return nil, err
	}
	h.SetCache(cache)
	if h.NumRows() != l.rows || h.Width() != l.width || len(h.meta.Kinds) != l.cols {
		h.Close()
		return nil, fmt.Errorf("%s: %w", l.file,
			corruptf("file has %d rows width %d and %d attributes, catalog says %d rows width %d and %d",
				h.NumRows(), h.Width(), len(h.meta.Kinds), l.rows, l.width, l.cols))
	}
	return h, nil
}

// CloseLayers closes every source OpenLayers returned.
func CloseLayers(srcs [][]*PartSource) {
	for _, ps := range srcs {
		for _, src := range ps {
			src.Close()
		}
	}
}

// OpenPartLayers opens every segment file of one manifest partition —
// base first, then the delta files in flush order — as a layered
// PartSource with the given cache attached.
func OpenPartLayers(dir string, mp ManifestPart, cache *SegCache) (*PartSource, error) {
	srcs, err := OpenLayers(dir, &Manifest{Relations: []ManifestRel{{Parts: []ManifestPart{mp}}}}, cache)()
	if err != nil {
		return nil, err
	}
	return srcs[0][0], nil
}

// EncodeWorldTable renders the world table in the worlds.bin format
// (the coordinator and WAL-shipping replicas fetch it over HTTP, so
// the byte form is part of the replication protocol): magic, next id,
// variable count, then per variable its id, name, domain and optional
// distribution, and a trailing CRC32 of everything before it.
func EncodeWorldTable(w *ws.WorldTable) []byte {
	b := []byte(worldsMagic)
	b = appendUint(b, uint64(w.NextID()))
	vars := w.NontrivialVars()
	b = appendUint(b, uint64(len(vars)))
	for _, x := range vars {
		name, dom, probs := w.Name(x), w.Domain(x), w.Probs(x)
		b = appendInt(b, int64(x))
		b = appendString(b, name)
		b = appendUint(b, uint64(len(dom)))
		for _, v := range dom {
			b = appendInt(b, int64(v))
		}
		if probs == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			for _, p := range probs {
				b = appendFixed64(b, math.Float64bits(p))
			}
		}
	}
	return seal(b)
}

// DecodeWorldTable parses the worlds.bin byte format produced by
// EncodeWorldTable, validating magic and checksum, in one pass and a
// few allocations however many variables it holds: a domain 1..k is a
// window of one slab, and only a name other than c<id> is kept, a slice
// of one copy of the body. Ids are dense by construction, so a table
// whose ids are not 1..n, in order, with next id n+1, is corrupt; every
// count is bounded by the bytes left before anything is allocated.
func DecodeWorldTable(b []byte) (*ws.WorldTable, error) {
	c, err := openSealed(b, worldsMagic, "world table")
	if err != nil {
		return nil, err
	}
	next, err := c.uint()
	if err != nil {
		return nil, err
	}
	// A variable takes at least four bytes: id, name length, domain
	// length and the distribution flag.
	n, err := c.countOf(4)
	if err != nil {
		return nil, err
	}
	if next != uint64(n)+1 {
		return nil, corruptf("world table of %d variables says next id %d", n, next)
	}
	var text string // the body, copied once a name is kept
	slab, deflt := make([]ws.Val, 0, 64), [24]byte{}
	w := ws.NewWorldTableSized(n)
	for i := 1; i <= n; i++ {
		x, err := c.int()
		if err != nil {
			return nil, err
		}
		if x != int64(i) {
			return nil, corruptf("world table variable %d has id %d", i, x)
		}
		nl, err := c.countOf(1)
		if err != nil {
			return nil, err
		}
		var name string
		if raw := c.b[c.pos : c.pos+nl]; nl > 0 && !bytes.Equal(raw, strconv.AppendInt(append(deflt[:0], 'c'), x, 10)) {
			if text == "" {
				text = string(c.b)
			}
			name = text[c.pos : c.pos+nl]
		}
		c.pos += nl
		nd, err := c.countOf(1)
		if err != nil {
			return nil, err
		}
		dom, err := decodeDomain(&c, nd, &slab)
		if err != nil {
			return nil, err
		}
		hasProbs, err := c.byte()
		if err != nil {
			return nil, err
		}
		var probs []float64
		if hasProbs != 0 {
			probs = make([]float64, nd)
			if err := c.floats(probs); err != nil {
				return nil, err
			}
		}
		if _, err := w.AppendVar(name, dom, probs); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if c.left() != 0 {
		return nil, corruptf("%d trailing bytes in world table", c.left())
	}
	return w, nil
}

// decodeDomain decodes a domain of n values. One that is exactly 1..n
// is a capacity-limited window of *slab, 1, 2, …, grown as it must be:
// a domain is never changed once added, and an append to it copies it.
func decodeDomain(c *cursor, n int, slab *[]ws.Val) ([]ws.Val, error) {
	at, k := c.pos, 0
	for ; k < n; k++ {
		if v, err := c.int(); err != nil || v != int64(k+1) {
			break
		}
	}
	if k < n {
		c.pos = at
		dom := make([]ws.Val, n)
		return dom, varints(c, dom)
	}
	for len(*slab) < n {
		*slab = append(*slab, ws.Val(len(*slab)+1))
	}
	return (*slab)[:n:n], nil
}

// ReadWorldTable loads the world table of a saved database (the write
// path opens it directly so snapshots can share one table).
func ReadWorldTable(dir string) (*ws.WorldTable, error) {
	return readFile(filepath.Join(dir, WorldsName), DecodeWorldTable)
}
