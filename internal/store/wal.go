package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// walMagic heads every write-ahead log file.
const walMagic = "URWALv1\n"

// frameHeaderLen is the fixed per-record framing overhead: a 4-byte
// little-endian payload length followed by a 4-byte CRC32 (IEEE) of
// the payload.
const frameHeaderLen = 8

// maxWALRecord bounds a single record (guards allocations against a
// corrupt length field).
const maxWALRecord = 1 << 30

// WAL is an append-only write-ahead log of commit records. Appends are
// framed (length prefix + CRC32) and fsynced before they return, so a
// record either survives a crash whole or is discarded as a torn tail
// on replay. A WAL is single-writer; the transactional layer guards it
// with its commit lock.
type WAL struct {
	f    *os.File
	path string
	size int64
	// poisoned marks a log whose offset could not be restored after a
	// failed append: further appends would land after garbage and be
	// silently discarded at replay, so they are refused instead (the
	// next rotation or reopen heals the log).
	poisoned bool
}

// CreateWAL creates (or truncates) a log at path, syncs the header and
// opens the log for appending.
func CreateWAL(path string) (*WAL, error) {
	if err := writeFile(path, []byte(walMagic)); err != nil {
		return nil, err
	}
	w, _, err := OpenWAL(path)
	return w, err
}

// WALHeaderLen is the length of the fixed file header that precedes
// the first frame of every WAL file (replication streams ship byte
// ranges of the file, so followers need to know where frames start).
const WALHeaderLen = len(walMagic)

// ParseWALChunk walks a headerless run of WAL frames: the frames of a
// log file after its header, or the durable suffix of a leader's log
// that the /wal/stream replication endpoint ships, starting at a frame
// boundary. It returns every intact record in order, the count of bytes
// they span, and why the walk stopped there: nil when the bytes ran
// out, at the end or inside a frame cut short, and ErrCorrupt for a
// frame whose length is over the limit or whose payload fails its
// checksum. A replica resumes at consumed and refuses a corrupt chunk;
// a log file ends at its first frame that is not intact (readWAL).
func ParseWALChunk(buf []byte) (records [][]byte, consumed int, err error) {
	c := &cursor{b: buf}
	for c.left() >= frameHeaderLen {
		n, _ := c.fixed32()
		sum, _ := c.fixed32()
		if n > maxWALRecord {
			return records, consumed, corruptf("WAL frame at offset %d: length %d over the limit", consumed, n)
		}
		payload, err := c.bytes(int(n))
		if err != nil {
			return records, consumed, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, consumed, corruptf("WAL frame at offset %d: checksum mismatch", consumed)
		}
		records = append(records, payload)
		consumed = c.pos
	}
	return records, consumed, nil
}

// readWAL reads the log file at path: every intact record, where the
// intact prefix ends and the file's size. The first torn or corrupt
// frame ends the log: everything from it onward is discarded (a crash
// can only tear the tail, since Append syncs before acknowledging).
func readWAL(path string) (records [][]byte, end, size int, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(buf) < len(walMagic) || string(buf[:len(walMagic)]) != walMagic {
		return nil, 0, 0, fmt.Errorf("%s: %w", path, corruptf("bad WAL header"))
	}
	records, end, _ = ParseWALChunk(buf[len(walMagic):])
	return records, len(walMagic) + end, len(buf), nil
}

// ReadWALRecords replays a log read-only: every intact record in
// order, the torn tail (if any) silently discarded, the file left
// untouched. Read-only opens use it to make unflushed commits visible
// without requiring write access to the directory.
func ReadWALRecords(path string) ([][]byte, error) {
	records, _, _, err := readWAL(path)
	return records, err
}

// OpenWAL opens an existing log for appending, returning every intact
// record in order. The file is truncated back to the intact prefix so
// subsequent appends extend a clean log.
func OpenWAL(path string) (*WAL, [][]byte, error) {
	records, pos, size, err := readWAL(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	if pos < size {
		if err := f.Truncate(int64(pos)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(pos), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &WAL{f: f, path: path, size: int64(pos)}, records, nil
}

// Append frames, writes, and fsyncs one record. The record is durable
// when Append returns. A failed append (partial write, failed sync)
// rolls the file back to the last good offset so the failed frame can
// never precede a later acknowledged one; if even the rollback fails,
// the log is poisoned and refuses further appends until rotation.
func (w *WAL) Append(payload []byte) error {
	if w.poisoned {
		return fmt.Errorf("store: %s: WAL poisoned by an earlier failed append; rotate the log", w.path)
	}
	if err := ioFault("append", w.path); err != nil {
		return err
	}
	start := time.Now()
	frame := appendFixed32(make([]byte, 0, frameHeaderLen+len(payload)), uint32(len(payload)))
	frame = append(appendFixed32(frame, crc32.ChecksumIEEE(payload)), payload...)
	if _, err := w.f.Write(frame); err != nil {
		w.rollback()
		return err
	}
	syncStart := time.Now()
	walAppendSeconds.ObserveDuration(syncStart.Sub(start))
	if err := ioFault("sync", w.path); err != nil {
		w.rollback()
		return err
	}
	if err := w.f.Sync(); err != nil {
		// The frame may be partially durable; remove it so it cannot
		// become durable later (the commit was not acknowledged).
		w.rollback()
		return err
	}
	walFsyncSeconds.ObserveDuration(time.Since(syncStart))
	walAppendedBytesTotal.Add(int64(len(frame)))
	w.size += int64(len(frame))
	return nil
}

// rollback restores the last good offset after a failed append.
func (w *WAL) rollback() {
	if err := w.f.Truncate(w.size); err != nil {
		w.poisoned = true
		return
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.poisoned = true
	}
}

// Size returns the current log size in bytes.
func (w *WAL) Size() int64 { return w.size }

// Poisoned reports whether a failed append could not be rolled back,
// leaving the log unable to accept further appends until rotation.
func (w *WAL) Poisoned() bool { return w.poisoned }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close syncs and closes the file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// CloseAbrupt closes the file descriptor without syncing — the crash
// simulation used by recovery tests (the closest a test can get to
// SIGKILL while still releasing the descriptor).
func (w *WAL) CloseAbrupt() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}
