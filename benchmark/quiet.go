package main

import (
	"slices"
	"syscall"
	"time"
)

// The sandbox is a small VM on a shared host. What its neighbours do only
// ever slows the stack down, for seconds to minutes at a time, and by more
// than any change this benchmark is meant to resolve: whole-window numbers
// of the same code differ by 10–30 % from run to run. So the end-to-end
// metrics are taken over the quiet part of the window. The window is cut
// into slices of sliceLen, the slices are ranked by throughput, and the
// fastest quietShare of them are pooled: ops and CPU are summed over them
// and the read latencies completed inside them form one sample set. Every
// commit is measured the same way, so the numbers compare; they describe
// the stack on an undisturbed machine, not the average the host allowed.
const (
	sliceLen   = 250 * time.Millisecond
	quietShare = 0.25
)

// tick is the load's progress at one slice boundary.
type tick struct {
	at    time.Time
	ops   int64 // ops completed inside the window so far
	reads int64 // read samples offered so far
	cpuUS int64 // user+system CPU of the process so far
}

func takeTick(w *window, progress func() int64) tick {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tick{at: time.Now(), ops: progress(), reads: w.read.count(), cpuUS: tvUS(ru.Utime) + tvUS(ru.Stime)}
}

// slice is what happened between two ticks.
type slice struct {
	dur   time.Duration
	ops   int64
	cpuUS int64
	reads []uint32 // latencies of the reads completed in the slice; aliases the sampler
}

func (s slice) opsPerS() float64 { return ratio(float64(s.ops), s.dur.Seconds()) }

// slicesOf pairs consecutive ticks. The sampler appends in completion
// order, so a slice's reads are the samples between its two counts.
func slicesOf(ticks []tick, reads *sampler) []slice {
	var out []slice
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		lo, hi := min(a.reads, int64(len(reads.buf))), min(b.reads, int64(len(reads.buf)))
		out = append(out, slice{dur: b.at.Sub(a.at), ops: b.ops - a.ops, cpuUS: b.cpuUS - a.cpuUS, reads: reads.buf[lo:hi]})
	}
	return out
}

// quietSlices returns the fastest quietShare of all (at least one), the
// fastest first.
func quietSlices(all []slice) []slice {
	ranked := slices.Clone(all)
	slices.SortStableFunc(ranked, func(a, b slice) int {
		switch x, y := a.opsPerS(), b.opsPerS(); {
		case x > y:
			return -1
		case x < y:
			return 1
		}
		return 0
	})
	n := max(int(quietShare*float64(len(ranked))+0.5), 1)
	return ranked[:min(n, len(ranked))]
}

// pooled sums a set of slices into one: total time, ops and CPU, and the
// read latencies of all of them, sorted.
func pooled(sel []slice) (sum slice) {
	for _, s := range sel {
		sum.dur += s.dur
		sum.ops += s.ops
		sum.cpuUS += s.cpuUS
		sum.reads = append(sum.reads, s.reads...)
	}
	slices.Sort(sum.reads)
	return sum
}
