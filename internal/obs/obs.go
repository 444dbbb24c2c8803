// Package obs is the repo's dependency-free observability core: callback
// gauges over the counters the instrumented code already keeps and
// mergeable log2 latency histograms, collected in a Registry that can
// render itself as a Prometheus text exposition or a JSON snapshot.
//
// The paper's whole evaluation method is the per-stage latency breakdown
// (Tables 2-4 decompose each DSA variant's I/O into submission, data
// transfer, server processing and completion costs); this package is the
// machinery that lets the real TCP path produce the same tables live
// instead of from ad-hoc counters. Instrumented code captures per-request
// stage timestamps and folds them into per-stage histograms here —
// aggregation, never per-event logging.
//
// Everything is nil-receiver safe: a nil *Registry hands out a nil *Hist
// whose methods are single-branch no-ops, and ignores gauge registrations.
// That is the disabled fast path — instrumentation stays compiled into the
// hot paths, and costs one predictable branch when no registry is
// configured.
package obs

import (
	"sort"
	"sync"
	"time"
	"unsafe"
)

// base anchors Now(): all obs timestamps are monotonic nanoseconds since
// process start, so stage arithmetic is immune to wall-clock steps.
var base = time.Now()

// Now returns a monotonic nanosecond timestamp for stage tracing.
func Now() int64 { return int64(time.Since(base)) }

// shardIdxRange is the range of shardIdx: as many shards as the flight
// recorder's default ring has. Power of two.
const shardIdxRange = 8

// shardIdx picks a shard from the caller's stack address — goroutines
// have distinct stacks, so distinct hot goroutines land on distinct
// shards without any per-goroutine registration or runtime hooks, and
// concurrent recorders (sessions, scheduler workers) do not serialize on
// one contended word.
func shardIdx() int {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	return int((p>>10)^(p>>17)) & (shardIdxRange - 1)
}

// Registry names and owns a set of metrics. The zero value is not
// usable; call New. A nil *Registry is the disabled registry: every
// lookup returns a nil metric whose methods no-op.
type Registry struct {
	mu        sync.Mutex
	hists     map[string]*Hist
	gaugeFns  map[string]func() int64
	gaugeSets map[string]func() map[string]int64
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		hists:     make(map[string]*Hist),
		gaugeFns:  make(map[string]func() int64),
		gaugeSets: make(map[string]func() map[string]int64),
	}
}

// Hist returns (creating on first use) the named histogram, or nil on a
// nil registry.
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a callback gauge: the value is computed at
// snapshot time, so existing atomic counters (server stats, cache
// counters, vault health) export without double bookkeeping. Metric
// names may carry a Prometheus label set (`name{k="v"}`). No-op on a nil
// registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// GaugeSet registers a callback producing a whole labeled gauge family
// at once: fn returns label-set → value (label sets in the `{k="v"}`
// form), and each entry is exported as name{k="v"}. Unlike GaugeFunc,
// the member set is recomputed at every snapshot, so families whose
// population changes at runtime — scheduler tenants appearing as logical
// streams open — export without pre-registering every member. No-op on
// a nil registry.
func (r *Registry) GaugeSet(name string, fn func() map[string]int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeSets[name] = fn
	r.mu.Unlock()
}

// sortedKeys returns map keys in stable order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
