package main

import (
	"math"
	"slices"
	"sync/atomic"
	"time"
)

// sampler keeps every latency of one op class exactly, in a preallocated
// array: obs.Hist's power-of-two buckets cannot resolve a 10 % change, so
// percentiles here come from the samples themselves. add is lock-free
// and safe from many goroutines; samples past the capacity are counted
// as dropped, never silently folded.
type sampler struct {
	buf []uint32 // nanoseconds, saturating at ~4.29 s
	n   atomic.Int64
	sum atomic.Int64 // nanoseconds, including dropped samples
}

// samplerCap holds 60 s at 70k ops/s of one class; 16 MB per sampler.
const samplerCap = 4 << 20

func newSampler(capacity int) *sampler {
	return &sampler{buf: make([]uint32, capacity)}
}

func (s *sampler) add(d time.Duration) {
	i := s.n.Add(1) - 1
	s.sum.Add(int64(d))
	if i < int64(len(s.buf)) {
		s.buf[i] = uint32(min(max(int64(d), 0), math.MaxUint32))
	}
}

// count is the number of samples offered; dropped how many did not fit.
func (s *sampler) count() int64 { return s.n.Load() }

func (s *sampler) dropped() int64 { return max(s.n.Load()-int64(len(s.buf)), 0) }

// meanUS is the exact mean over every sample offered, in microseconds.
func (s *sampler) meanUS() float64 { return meanOfSamplersUS(s) }

// sorted returns the kept samples in ascending order. Call once the
// writers have stopped.
func (s *sampler) sorted() []uint32 {
	kept := s.buf[:min(s.n.Load(), int64(len(s.buf)))]
	out := slices.Clone(kept)
	slices.Sort(out)
	return out
}

// percentileUS is the nearest-rank percentile (p in (0,100]) of sorted
// nanosecond samples, in microseconds; 0 when there are none.
func percentileUS(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return float64(sorted[rank-1]) / 1e3
}

// tailLadder are the percentiles a report may quote, ascending.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// maxPercentile is the choosing-metrics rule: the highest percentile of
// the ladder that still has at least ten samples beyond it. With fewer
// than twenty samples only the median is supported.
func maxPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}
