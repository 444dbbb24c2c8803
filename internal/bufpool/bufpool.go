// Package bufpool provides size-classed byte-slice pools for the netv3
// hot path. It is the TCP-path analogue of the paper's batched
// deregistration (Section 3.1): just as DSA amortizes the cost of
// pinning/unpinning NIC translation-table entries by recycling
// registered regions instead of releasing them per I/O, bufpool recycles
// payload slabs instead of returning them to the garbage collector per
// request, so the steady-state data path performs no per-I/O allocation.
//
// Slabs are grouped into power-of-two size classes between MinClass and
// MaxClass bytes; each class is backed by one sync.Pool. Get returns a
// slice of exactly the requested length whose capacity is the class
// size; Put files the slab back under its capacity class. Requests
// outside the class range fall through to the allocator (and Put drops
// them), so correctness never depends on pooling.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Size-class bounds. 512 B covers small control-adjacent payloads; 1 MB
// matches the netv3 server's default MaxXfer.
const (
	MinClass = 512
	MaxClass = 1 << 20
)

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	Gets   int64 // successful Get calls (pooled classes only)
	Puts   int64 // slabs returned to a class
	Allocs int64 // Gets that had to allocate a fresh slab
	Oversz int64 // Gets outside the class range (plain make)
}

// Pool is a set of size-classed slab pools. The zero value is not ready
// to use; call New. A nil *Pool is valid and degrades to plain
// allocation, which keeps ablation call sites branch-free.
type Pool struct {
	// classes[i] holds slabs of classSize(i) bytes as pointers to their
	// first byte: a pointer fits an interface word, so filing a slab
	// allocates nothing (a *[]byte would cost a slice header per Put), and
	// the class implies the length.
	classes [classCount]sync.Pool
	gets    atomic.Int64
	puts    atomic.Int64
	allocs  atomic.Int64
	oversz  atomic.Int64
}

// classCount = log2(MaxClass) - log2(MinClass) + 1; asserted in tests.
const classCount = 12

// New returns an empty pool.
func New() *Pool {
	return &Pool{}
}

// classFor maps a byte count to its class index, or -1 when n is outside
// the pooled range.
func classFor(n int) int {
	if n <= 0 || n > MaxClass {
		return -1
	}
	if n <= MinClass {
		return 0
	}
	// Index of the smallest power of two >= n, relative to MinClass.
	return bits.Len(uint(n-1)) - bits.Len(uint(MinClass)) + 1
}

// classSize returns the slab capacity of class idx.
func classSize(idx int) int { return MinClass << idx }

// Get returns a slice of length n. When p is nil, pooling is disabled
// (ablation mode) and a fresh slice is allocated.
func (p *Pool) Get(n int) []byte {
	if p == nil {
		return make([]byte, n)
	}
	idx := classFor(n)
	if idx < 0 {
		p.oversz.Add(1)
		return make([]byte, n)
	}
	p.gets.Add(1)
	if v := p.classes[idx].Get(); v != nil {
		return unsafe.Slice(v.(*byte), classSize(idx))[:n]
	}
	p.allocs.Add(1)
	return make([]byte, classSize(idx))[:n]
}

// Put returns b's backing slab to the pool. Slices whose capacity is not
// an exact class size (e.g. oversize allocations, or sub-slices that
// lost their capacity) are dropped. Put(nil) and Put on a nil pool are
// no-ops.
func (p *Pool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	c := cap(b)
	idx := classFor(c)
	if idx < 0 || classSize(idx) != c {
		return
	}
	p.puts.Add(1)
	p.classes[idx].Put(unsafe.SliceData(b))
}

// Stats returns cumulative counters since the pool was created.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Gets:   p.gets.Load(),
		Puts:   p.puts.Load(),
		Allocs: p.allocs.Load(),
		Oversz: p.oversz.Load(),
	}
}
