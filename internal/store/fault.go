package store

// Deterministic fault injection at the store I/O boundary.
//
// Two hooks cover the paths the self-healing tests care about: a
// part-open interceptor that can wrap the ReaderAt of every partition
// file opened via OpenPart (short reads, ReadAt errors, bit flips —
// seen by store, txn, and replica opens alike, since they all funnel
// through OpenPart), and an I/O fault hook consulted by WAL.Append
// before the frame write, and before every fsync the store makes
// (write/fsync errors, or a log of the syncs in order; post-write
// crashes are simulated with CloseAbrupt or by killing the process).
// Both hooks are process-global, nil by default, and cost one atomic
// load when unset.

import (
	"fmt"
	"io"
	"sync/atomic"
)

// PartOpenInterceptor may wrap the ReaderAt backing a partition file as
// it is opened. Returning src unchanged leaves the open unaffected.
type PartOpenInterceptor func(path string, src io.ReaderAt) io.ReaderAt

// IOFaultHook is consulted by WAL.Append with op "append" (before the
// frame write), and with "sync" before every fsync of a WAL, a file the
// store writes (writeFile, WritePartition) or a directory (syncDir),
// path naming what is synced; a non-nil return is that I/O's failure.
type IOFaultHook func(op, path string) error

var (
	partInterceptor atomic.Pointer[PartOpenInterceptor]
	ioFaultHook     atomic.Pointer[IOFaultHook]
)

// SetPartOpenInterceptor installs f (nil clears) and returns a restore
// function. Intended for tests; installing is not synchronized with
// opens already in flight.
func SetPartOpenInterceptor(f PartOpenInterceptor) (restore func()) {
	var prev *PartOpenInterceptor
	if f != nil {
		prev = partInterceptor.Swap(&f)
	} else {
		prev = partInterceptor.Swap(nil)
	}
	return func() { partInterceptor.Store(prev) }
}

// SetIOFaultHook installs f (nil clears) and returns a restore
// function. Intended for tests.
func SetIOFaultHook(f IOFaultHook) (restore func()) {
	var prev *IOFaultHook
	if f != nil {
		prev = ioFaultHook.Swap(&f)
	} else {
		prev = ioFaultHook.Swap(nil)
	}
	return func() { ioFaultHook.Store(prev) }
}

func interceptPartOpen(path string, src io.ReaderAt) io.ReaderAt {
	if f := partInterceptor.Load(); f != nil {
		return (*f)(path, src)
	}
	return src
}

func ioFault(op, path string) error {
	if f := ioFaultHook.Load(); f != nil {
		return (*f)(op, path)
	}
	return nil
}

// FaultyReaderAt wraps a ReaderAt with deterministic read faults, for
// use from a PartOpenInterceptor. Zero-valued fields are inert.
type FaultyReaderAt struct {
	Src io.ReaderAt

	// ErrAfter, when > 0, fails every ReadAt after the first ErrAfter
	// successful calls.
	ErrAfter int64
	// Short, when true, truncates every multi-byte read to half its
	// length and returns io.ErrUnexpectedEOF with the partial data.
	Short bool
	// FlipAt, when >= 0 (use -1 to disable), XORs the byte at that file
	// offset with FlipMask (0 means 0xFF) on its way to the caller.
	FlipAt   int64
	FlipMask byte

	calls atomic.Int64
}

// NewFaultyReaderAt returns a wrapper with flipping disabled.
func NewFaultyReaderAt(src io.ReaderAt) *FaultyReaderAt {
	return &FaultyReaderAt{Src: src, FlipAt: -1}
}

func (f *FaultyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n := f.calls.Add(1)
	if f.ErrAfter > 0 && n > f.ErrAfter {
		return 0, fmt.Errorf("fault: injected read error at offset %d", off)
	}
	if f.Short && len(p) > 1 {
		half := len(p) / 2
		m, err := f.Src.ReadAt(p[:half], off)
		f.flip(p[:m], off)
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return m, err
	}
	m, err := f.Src.ReadAt(p, off)
	f.flip(p[:m], off)
	return m, err
}

func (f *FaultyReaderAt) flip(p []byte, off int64) {
	if f.FlipAt < 0 {
		return
	}
	if f.FlipAt >= off && f.FlipAt < off+int64(len(p)) {
		mask := f.FlipMask
		if mask == 0 {
			mask = 0xFF
		}
		p[f.FlipAt-off] ^= mask
	}
}
