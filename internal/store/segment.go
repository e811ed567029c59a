package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"urel/internal/core"
	"urel/internal/engine"
)

// DefaultSegmentRows is the row-group size of written partition files:
// big enough to amortize per-segment decode setup, small enough that
// min/max pruning has real resolution and one decoded segment stays
// cache-friendly.
const DefaultSegmentRows = 4096

// WritePartition writes the partition rows (each with nattrs value
// attributes) as a segment file at path, in stable tuple-id order,
// segRows rows per segment (<= 0 selects DefaultSegmentRows). It
// returns the padded descriptor width used.
func WritePartition(path string, rows []core.URow, nattrs, segRows int) (int, error) {
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	width := 0
	for _, r := range rows {
		if len(r.D) > width {
			width = len(r.D)
		}
		if len(r.Vals) != nattrs {
			return 0, fmt.Errorf("store: row has %d values, want %d", len(r.Vals), nattrs)
		}
	}
	kinds := deriveKinds(rows, nattrs)

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.WriteString(fileMagic); err != nil {
		return 0, err
	}
	meta := &fileMeta{Width: width, Kinds: kinds}
	off := int64(len(fileMagic))
	seq := inTIDOrder(rows)
	var payload []byte
	for start := 0; start < len(rows); start += segRows {
		end := min(start+segRows, len(rows))
		var sm segMeta
		payload, sm = encodeSegment(payload[:0], seq.slice(start, end), width, kinds)
		if _, err := f.Write(payload); err != nil {
			return 0, err
		}
		sm.Off, sm.Len, sm.CRC = off, len(payload), crc32.ChecksumIEEE(payload)
		meta.Segs = append(meta.Segs, sm)
		meta.Rows += sm.Rows
		off += int64(len(payload))
	}
	footer := appendFooter(payload[:0], meta)
	if _, err := f.Write(appendTail(footer, footer, off)); err != nil {
		return 0, err
	}
	if err := ioFault("sync", path); err != nil {
		return 0, err
	}
	return width, f.Sync()
}

// PartHandle is an open partition file: the decoded footer plus a
// ReaderAt for fetching segment payloads on demand. Handles are safe
// for concurrent readers (os.File.ReadAt is concurrency-safe, the
// footer is immutable after open, and the cache is internally
// synchronized) and are shared by every scan over the partition.
type PartHandle struct {
	src    io.ReaderAt
	closer io.Closer
	size   int64
	meta   *fileMeta

	// id keys this handle's segments in a shared SegCache.
	id uint64
	// cache, when non-nil, serves decoded segments across scans (and
	// across concurrent queries) instead of re-reading the file.
	cache *SegCache

	// path is the file this handle was opened from ("" for handles over
	// arbitrary readers); replication reuses handles across manifest
	// generations by matching file names.
	path string

	// idxRuns lazily caches the layer's sorted-run indexes by key name
	// ("a<i>" for stored column i). Missing, corrupt, or mismatched run
	// files cache as a nil run — a probe scans the layer instead, never
	// returning a wrong answer — and the
	// corrupt or mismatched ones as stale, so compaction rewrites them.
	idxMu   sync.Mutex
	idxRuns map[string]runEntry
}

// runEntry is one cached index-run outcome.
type runEntry struct {
	run   *idxRun // nil when the layer has no usable run for the key
	stale bool    // a run file exists but disagrees with the layer
}

// handleIDs allocates process-unique handle ids for cache keying.
var handleIDs atomic.Uint64

// OpenPart opens a partition file and decodes its footer. The file
// stays open until Close.
func OpenPart(path string) (*PartHandle, error) {
	f, size, err := openRead(path)
	if err != nil {
		return nil, err
	}
	h, err := NewPartHandle(interceptPartOpen(path, f), size)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	h.closer = f
	h.path = path
	return h, nil
}

// Path returns the file the handle was opened from, or "" when it was
// built over an arbitrary reader.
func (h *PartHandle) Path() string { return h.path }

// footWindow is how many bytes from a file's end NewPartHandle reads
// at once: the tail and, unless the file has very many segments or
// columns, the whole footer.
const footWindow = 4096

// NewPartHandle opens a partition over an arbitrary ReaderAt (used by
// tests to observe exactly which byte ranges a scan touches). It reads
// the file's last footWindow bytes, all of a smaller file, into a
// buffer of segBufs with one ReadAt, the magic with another unless that
// read held it, and the footer again only where it starts before the
// window; decodeFooter copies out what it keeps.
func NewPartHandle(src io.ReaderAt, size int64) (*PartHandle, error) {
	if size < int64(len(fileMagic)+tailLen) {
		return nil, corruptf("file too small (%d bytes)", size)
	}
	bp := segBufs.Get().(*[]byte)
	defer putSegBuf(bp)
	win := int64(min(size, footWindow))
	if cap(*bp) < int(win)+len(fileMagic) {
		*bp = make([]byte, win+int64(len(fileMagic)))
	}
	buf := (*bp)[:win]
	if _, err := src.ReadAt(buf, size-win); err != nil {
		return nil, corruptf("reading tail: %v", err)
	}
	head := buf[:len(fileMagic)]
	if win < size {
		head = (*bp)[win : win+int64(len(fileMagic))]
		if _, err := src.ReadAt(head, 0); err != nil {
			return nil, corruptf("reading header: %v", err)
		}
	}
	if string(head) == "URSEGv1\n" {
		return nil, corruptf("a URSEGv1 file, written before format version 3: %s", resaveHint)
	}
	if string(head) != fileMagic {
		return nil, corruptf("bad magic %q", head)
	}
	tl := int64(tailLen)
	tail := buf[win-tl:]
	if magic := tail[tailLen-len(tailMagic):]; string(magic) != tailMagic {
		return nil, corruptf("bad tail magic %q (truncated file?)", magic)
	}
	c := &cursor{b: tail}
	sum, _ := c.fixed32()
	footerOff64, _ := c.fixed64()
	footerOff := int64(footerOff64)
	if footerOff < int64(len(fileMagic)) || footerOff > size-tl {
		return nil, corruptf("footer offset %d out of range", footerOff)
	}
	var footer []byte
	if start := size - win; footerOff >= start {
		footer = buf[footerOff-start : win-tl]
	} else {
		if n := size - tl - footerOff; int64(cap(*bp)) < n {
			*bp = make([]byte, n)
		}
		footer = (*bp)[:size-tl-footerOff]
		if _, err := src.ReadAt(footer, footerOff); err != nil {
			return nil, corruptf("reading footer: %v", err)
		}
	}
	// The footer decides which segments a narrowed scan reads, so a
	// flipped byte in it must fail the open, not skip a segment.
	if crc32.ChecksumIEEE(footer) != sum {
		return nil, corruptf("footer checksum mismatch")
	}
	meta, err := decodeFooter(footer, int64(len(fileMagic)), footerOff)
	if err != nil {
		return nil, err
	}
	return &PartHandle{src: src, size: size, meta: meta, id: handleIDs.Add(1)}, nil
}

// SetCache attaches a shared segment cache. Call before the handle is
// used concurrently (the server attaches caches at open time).
func (h *PartHandle) SetCache(c *SegCache) { h.cache = c }

// Close releases the underlying file (no-op for handles over plain
// ReaderAts). Close is idempotent: cloned databases share handles, so
// closing both the clone and the original must not double-close.
func (h *PartHandle) Close() error {
	h.cache.invalidateHandle(h.id)
	if h.closer != nil {
		c := h.closer
		h.closer = nil
		return c.Close()
	}
	return nil
}

// DropCached invalidates the handle's entries in the attached segment
// cache without closing the file. The write path calls it when a
// flush/compaction retires a handle from the live state: concurrent
// readers still scanning the old epoch keep working off the open file
// descriptor, while the cache stops pinning decoded segments nobody
// new will request (handle ids are never reused).
func (h *PartHandle) DropCached() { h.cache.invalidateHandle(h.id) }

// NumRows returns the total stored row count.
func (h *PartHandle) NumRows() int { return h.meta.Rows }

// Width returns the padded descriptor width.
func (h *PartHandle) Width() int { return h.meta.Width }

// NumSegments returns the segment count.
func (h *PartHandle) NumSegments() int { return len(h.meta.Segs) }

// SegmentRows returns segment i's row count.
func (h *PartHandle) SegmentRows(i int) int { return h.meta.Segs[i].Rows }

// SizeBytes returns the file size.
func (h *PartHandle) SizeBytes() int64 { return h.size }

// AttrKinds maps the stored column kinds to engine kinds (mixed and
// all-null columns report engine.KindNull, the engine's "unknown").
func (h *PartHandle) AttrKinds() []engine.Kind {
	out := make([]engine.Kind, len(h.meta.Kinds))
	for i, k := range h.meta.Kinds {
		if k == kindMixed {
			out[i] = engine.KindNull
		} else {
			out[i] = engine.Kind(k)
		}
	}
	return out
}

// ReadSegment returns segment i, served from the attached cache when
// possible; otherwise it fetches, checksums, and decodes the payload
// (and populates the cache). Decoded segments are immutable, so one
// copy is safely shared by every concurrent scan.
func (h *PartHandle) ReadSegment(i int) (*segment, error) {
	seg, _, err := h.ReadSegmentStats(i, nil)
	return seg, err
}

// ReadSegmentStats is ReadSegment plus attribution: cacheHit reports
// whether the fetch+decode was avoided (shared-cache hit or a ride on
// a concurrent load). Scans use it to charge cache hits and decoded
// bytes to their trace span. Where no cache keeps the segment, it is
// decoded as decodeSegment does for owned.
func (h *PartHandle) ReadSegmentStats(i int, owned *recycler) (seg *segment, cacheHit bool, err error) {
	if h.cache.disabled() {
		seg, err = h.readSegment(i, owned)
		return seg, false, err
	}
	return h.cache.getOrLoad(segKey{handle: h.id, seg: i}, func() (*segment, error) {
		return h.readSegment(i, nil)
	})
}

// SegmentBytes returns the on-disk encoded size of segment i (what a
// cache miss reads and decodes).
func (h *PartHandle) SegmentBytes(i int) int64 { return int64(h.meta.Segs[i].Len) }

// segBufs pools the buffers of uncached segment reads and of readFile:
// a decoder keeps nothing of the bytes it is handed. putSegBuf hands one
// back, poisoned under PoisonRecycled.
var segBufs = sync.Pool{New: func() any { return new([]byte) }}

func putSegBuf(bp *[]byte) {
	if poisoning.Load() {
		poison(*bp)
	}
	segBufs.Put(bp)
}

// readFile reads the whole file at path into a buffer of segBufs and
// returns what decode, which must copy out whatever it keeps, makes of
// it, a decode error naming the file: the manifest, the world table and
// index runs are read so. The WAL is not, since ParseWALChunk's records
// alias the buffer they are in.
func readFile[T any](path string, decode func([]byte) (T, error)) (v T, err error) {
	f, size, err := openRead(path)
	if err != nil {
		return v, err
	}
	defer f.Close()
	bp := segBufs.Get().(*[]byte)
	defer putSegBuf(bp)
	if n := int(size); cap(*bp) < n {
		*bp = make([]byte, n)
	}
	if _, err := io.ReadFull(f, (*bp)[:size]); err != nil {
		return v, fmt.Errorf("read %s: %w", path, err)
	}
	if v, err = decode((*bp)[:size]); err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return v, err
}

// writeFile writes b to a new file at path and syncs it, so a manifest
// committed afterwards never names a torn file, and removes it on
// failure: index runs, world tables, a WAL's header and the temporary
// files InstallFile renames are written so.
func writeFile(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err = f.Write(b); err == nil {
		if err = ioFault("sync", path); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// InstallFile lands b at path through a synced temporary file renamed
// over it, so a crash leaves no torn file there; the directory sync of
// the manifest committed next makes the rename durable.
func InstallFile(path string, b []byte) error {
	if err := writeFile(path+".tmp", b); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// readSegment is the uncached fetch+checksum+decode path; owned is
// decodeSegment's.
func (h *PartHandle) readSegment(i int, owned *recycler) (*segment, error) {
	bp := segBufs.Get().(*[]byte)
	defer putSegBuf(bp)
	if n := h.meta.Segs[i].Len; cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return h.readSegmentInto(i, (*bp)[:h.meta.Segs[i].Len], owned)
}

// readSegmentInto fetches segment i's payload into buf, which is exactly
// its length, and checksums and decodes it.
func (h *PartHandle) readSegmentInto(i int, buf []byte, owned *recycler) (*segment, error) {
	m := &h.meta.Segs[i]
	if _, err := h.src.ReadAt(buf, m.Off); err != nil {
		return nil, corruptf("reading segment %d: %v", i, err)
	}
	if crc := crc32.ChecksumIEEE(buf); crc != m.CRC {
		return nil, corruptf("segment %d checksum mismatch (stored %08x, computed %08x)", i, m.CRC, crc)
	}
	return decodeSegment(buf, m, h.meta.Width, h.meta.Kinds, owned)
}
