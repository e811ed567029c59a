package store

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// recycler is a pooled buffer a segment's owner holds, in a list linked
// through the buffers: recycle hands it back and returns the next.
type recycler interface{ recycle() recycler }

// pooled is a buffer of a bufPool, of a power-of-two length; its cells
// hold whatever its last user left.
type pooled[T any] struct {
	xs   []T
	pool *bufPool[T]
	next recycler
}

// bufPool pools the buffers of one element type process-wide, bucket k
// holding those of 1<<k cells; a sync.Pool drops what it holds across two
// garbage collections. A pool that clears empties each buffer handed
// back, so a pooled []string keeps no text alive.
type bufPool[T any] struct {
	buckets [64]sync.Pool
	clears  bool
}

var (
	intBufs   bufPool[int64]
	floatBufs bufPool[float64]
	strBufs   = bufPool[string]{clears: true}
	nullBufs  bufPool[bool]
)

// take returns n cells for decodeSegment: from p, holding garbage, its
// buffer put at the head of the list *owned; or fresh and zeroed when
// owned is nil.
func take[T any](p *bufPool[T], n int, owned *recycler) []T {
	if owned == nil {
		return make([]T, n)
	}
	k := bits.Len(uint(max(n, 1) - 1))
	b, _ := p.buckets[k].Get().(*pooled[T])
	if b == nil {
		b = &pooled[T]{xs: make([]T, 1<<k), pool: p}
	}
	b.next, *owned = *owned, b
	return b.xs[:n]
}

func (b *pooled[T]) recycle() recycler {
	next := b.next
	if poisoning.Load() {
		poison(any(b.xs))
	}
	if b.pool.clears {
		clear(b.xs)
	}
	b.pool.buckets[bits.Len(uint(len(b.xs)))-1].Put(b)
	return next
}

var poisoning atomic.Bool

// PoisonRecycled has every buffer handed back until restore is called
// overwritten — int and bool cells with a sentinel, floats with NaN, null
// marks set, bytes 0xa5 — so a read of a recycled cell shows. For tests.
func PoisonRecycled() (restore func()) {
	prev := poisoning.Swap(true)
	return func() { poisoning.Store(prev) }
}

func poison(xs any) {
	switch xs := xs.(type) {
	case []int64:
		for i := range xs {
			xs[i] = math.MinInt64 + 0x5eed
		}
	case []float64:
		for i := range xs {
			xs[i] = math.NaN()
		}
	case []bool:
		for i := range xs {
			xs[i] = true
		}
	case []byte:
		for i := range xs {
			xs[i] = 0xa5
		}
	}
}
