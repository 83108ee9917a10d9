// Package pool provides the reference-counted buffer arena behind the
// zero-copy marshal→seal→fragment pipeline (RECIPE's observation that
// replication cost lives in the commodity fast path, not the agreement
// core). Buffers come from size-classed sync.Pools; slices of a buffer
// flow from CDR encoding through GIOP framing, sealing, and SMIOP
// fragmentation without intermediate copies, and the buffer returns to
// its pool when the last reference is released.
//
// Ownership rules (held by smiop's TestSealReturnsEveryPoolBuffer, which
// requires every Get of the seal chain to come back as a Put):
//
//   - Get returns a buffer with one reference owned by the caller.
//   - Every reference is released exactly once (Release) or transferred
//     exactly once (passing the buffer to a function documented to take
//     ownership, or returning it to the caller).
//   - Retain takes an additional reference for a second owner; each owner
//     releases independently.
//   - After the final Release the buffer's bytes must not be touched:
//     the arena may hand them to another caller immediately. Debug
//     poisoning (SetPoison) makes violations loud in fuzz/race runs.
package pool

import (
	"sync"
	"sync/atomic"
)

// classSizes are the arena's size classes. Get rounds the capacity hint up
// to the smallest class; buffers that outgrow their class re-home to the
// class that fits their final capacity on release, so a workload's steady
// state allocates nothing on the hot path.
var classSizes = [...]int{512, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

var classes [len(classSizes)]sync.Pool

// Stats counts arena traffic; all counters are cumulative for the process.
type Stats struct {
	// Gets is the number of Get calls; News the subset that allocated a
	// fresh backing array (pool miss or oversized request).
	Gets, News uint64
	// Puts is the number of buffers returned to a pool by final Release.
	Puts uint64
}

var stats struct {
	gets, news, puts atomic.Uint64
}

// ReadStats returns a snapshot of the arena counters.
func ReadStats() Stats {
	return Stats{
		Gets: stats.gets.Load(),
		News: stats.news.Load(),
		Puts: stats.puts.Load(),
	}
}

// poison, when non-zero, overwrites a buffer's bytes on final Release so
// use-after-release reads surface as corrupt data in fuzz and race runs
// instead of silently observing recycled content.
var poison atomic.Bool

// SetPoison toggles release-time poisoning (test/fuzz aid; off by default).
func SetPoison(on bool) { poison.Store(on) }

// Buffer is one reference-counted arena buffer. B is the working slice:
// encoders append to it and store the result back, exactly as with a plain
// []byte, so the zero-copy pipeline needs no adapter layer. The backing
// array belongs to the arena; see the package ownership rules.
type Buffer struct {
	B []byte

	refs atomic.Int32
}

// classFor returns the smallest class index whose size fits n, or -1.
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// Get returns a buffer with len(B) == 0, cap(B) >= hint, and one
// reference owned by the caller. A non-positive hint selects the smallest
// class.
func Get(hint int) *Buffer {
	stats.gets.Add(1)
	ci := classFor(hint)
	if ci >= 0 {
		if v := classes[ci].Get(); v != nil {
			b := v.(*Buffer)
			b.B = b.B[:0]
			b.refs.Store(1)
			return b
		}
	}
	stats.news.Add(1)
	size := hint
	if ci >= 0 {
		size = classSizes[ci]
	}
	b := &Buffer{B: make([]byte, 0, size)}
	b.refs.Store(1)
	return b
}

// Retain adds a reference for an additional owner. The new owner must
// Release (or transfer) it exactly once.
func (b *Buffer) Retain() *Buffer {
	if b.refs.Add(1) <= 1 {
		panic("pool: Retain on released buffer")
	}
	return b
}

// Release drops one reference. On the final release the buffer returns to
// its size-class pool and its bytes become invalid for every holder of a
// slice into it.
func (b *Buffer) Release() {
	n := b.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("pool: Release without matching Get/Retain")
	}
	if poison.Load() {
		full := b.B[:cap(b.B)]
		for i := range full {
			full[i] = 0xDB
		}
	}
	// Re-home by final capacity — the largest class the backing array
	// still covers — so a buffer that grew past its class pays the growth
	// once per size, not per message, and Get's cap guarantee holds.
	ci := -1
	for i := len(classSizes) - 1; i >= 0; i-- {
		if cap(b.B) >= classSizes[i] {
			ci = i
			break
		}
	}
	if ci < 0 {
		return // sub-class capacity (hand-built Buffer): let the GC have it
	}
	stats.puts.Add(1)
	classes[ci].Put(b)
}

// Detach returns the buffer's contents as an independent heap slice and
// releases the caller's reference — the escape hatch for handing data to a
// long-lived holder (e.g. the PBFT log) without pinning arena memory.
func (b *Buffer) Detach() []byte {
	out := append([]byte(nil), b.B...)
	b.Release()
	return out
}
