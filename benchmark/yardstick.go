package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick is a fixed piece of work of the benchmark's own, timed
// around the set-ups and before and after every timed round. It calls
// nothing of the program and allocates nothing on the Go heap, so no
// change to the program moves it; the machine does. This sandbox runs
// identical code a quarter to a third faster or slower from one ten
// minutes to the next, every time metric follows, and ten runs that
// straddle such a change spread wider than any bound the driver allows.
// A round's times are therefore scaled by yardRefMS over what the
// yardsticks around it took, which puts rounds and runs taken at
// different machine speeds on the scale of one reference machine.
//
// One yardstick has three parts, for the three ways the machine was
// seen to slow down (README, Noise): a chain of dependent arithmetic
// (the core's clock), four independent chains side by side (the core's
// width, which a busy sibling thread takes away), and independent reads
// and writes scattered over a buffer larger than a core's own caches
// (the memory system, which neighbours share). The memory part is kept
// short: it swings twice as far as the program does.

const (
	// yardRefMS is what one yardstick took on this sandbox in its fast
	// state; times are reported as if every yardstick took that long.
	yardRefMS = 13.0

	yardBufLen   = 4 << 20 // 32 MiB of uint64
	yardChainOps = 3_000_000
	yardWideOps  = 1_500_000
	yardMemOps   = 225_000
)

// defaultYardCalls is the number of yardsticks in one slot; the slot's
// value is their median, so a pre-empted call does not count. Tests do
// fewer.
var defaultYardCalls = 16

var (
	yardOnce sync.Once
	yardBuf  []uint64
	yardSink uint64 // keeps the compiler from dropping the work
)

// yardInit maps the buffer outside the Go heap, where it neither
// counts towards the collector's pacing nor is ever scanned, and
// touches every page once.
func yardInit() {
	mem, err := syscall.Mmap(-1, 0, yardBufLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		yardBuf = make([]uint64, yardBufLen)
	} else {
		yardBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), yardBufLen)
	}
	for i := range yardBuf {
		yardBuf[i] = uint64(i)
	}
}

// yardstick does the fixed work once and returns how long it took, in
// ms.
func yardstick() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < yardChainOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x * 0x9E3779B97F4A7C15 >> 32
	}
	a, b, c, d := x, uint64(2463534242), uint64(362436069), uint64(521288629)
	for i := 0; i < yardWideOps; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	const mask = yardBufLen - 1
	for i := 0; i < yardMemOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		acc += yardBuf[j]
		yardBuf[j] = acc
	}
	yardSink += acc + a + b + c + d
	return float64(time.Since(t0)) / 1e6
}

// yardSlot is one measurement of the machine's speed: the median
// duration in ms of calls yardsticks.
func yardSlot(calls int) float64 {
	yardOnce.Do(yardInit)
	ts := make([]float64, calls)
	for i := range ts {
		ts[i] = yardstick()
	}
	return median(ts)
}
