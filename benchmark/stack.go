package main

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
)

// window is one measured interval and what the load records into it.
// Workers sample an op only while measuring is set, so the samplers hold
// exactly the window's completions.
type window struct {
	measuring          atomic.Bool
	read, write, flush *sampler
	tr                 *tracer       // nil on the untraced run
	reg                *obs.Registry // client, server and vault metrics; nil on the untraced run

	// tiledNS/tiledN sum the caller-measured latency of exactly the ops
	// the client stage-traced, the population its stage table describes.
	tiledNS, tiledN atomic.Int64

	mu       sync.Mutex
	failed   int64  // failed, refused or mis-verified ops inside the window
	firstErr string // the first failure, for the report
}

func newWindow(traced bool) *window {
	w := &window{read: newSampler(samplerCap), write: newSampler(samplerCap), flush: newSampler(1 << 16)}
	if traced {
		w.tr = newTracer(&w.measuring)
		w.reg = obs.New()
	}
	return w
}

// fail counts one failed op. Failures outside the window (warm-up,
// drain) count too: an op that fails is a defect whenever it happens.
func (w *window) fail(format string, args ...any) { w.failN(1, format, args...) }

func (w *window) failN(n int64, format string, args ...any) {
	w.mu.Lock()
	w.failed += n
	if w.firstErr == "" {
		w.firstErr = fmt.Sprintf(format, args...)
	}
	w.mu.Unlock()
}

func (w *window) failures() (int64, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed, w.firstErr
}

// backend is one in-process server with the store it exports and, on the
// traced run, the shims around its listener and store.
type backend struct {
	srv    *netv3.Server
	addr   string
	store  netv3.BlockStore // the bare store, for fill and verification
	shim   *storeShim       // nil on the untraced run
	ln     *countListener   // nil on the untraced run
	served chan struct{}    // closed when Serve returns
}

// startBackend boots one server of the pinned shape over store on a
// loopback port.
func startBackend(store netv3.BlockStore, cacheBlocks int, w *window, sh *shape) (*backend, error) {
	b := &backend{store: store, served: make(chan struct{})}
	srv := netv3.NewServer(pinnedServerConfig(cacheBlocks, w.reg, sh))
	exported := store
	if w.tr != nil {
		b.shim = &storeShim{BlockStore: store, tr: w.tr}
		exported = b.shim
	}
	srv.AddVolume(1, exported)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	b.addr = ln.Addr().String()
	if w.tr != nil {
		b.ln = &countListener{Listener: ln, on: &w.measuring}
		ln = b.ln
	}
	srv.ListenOn(ln)
	b.srv = srv
	go func() {
		defer close(b.served)
		_ = srv.Serve() // returns nil once Close has been called
	}()
	return b, nil
}

// close stops the server and waits for its accept loop to end. The store
// stays open: its owner closes it after verification.
func (b *backend) close() {
	_ = b.srv.Close() // only the listener's close error, which nothing acts on
	<-b.served
}

// serverCounters flattens every backend's public counters, summed by
// name. Counters a later commit deleted are simply absent.
func serverCounters(backends []*backend) stats {
	total := stats{}
	for _, b := range backends {
		for _, m := range []string{"DiskStats", "SchedStats", "PoolStats"} {
			for k, v := range callStats(b.srv, m) {
				total[m+"."+k] += v
			}
		}
		if hm := callInts(b.srv, "CacheStats"); len(hm) == 2 {
			total["Cache.Hits"] += float64(hm[0])
			total["Cache.Misses"] += float64(hm[1])
		}
		if s := callInts(b.srv, "Served"); len(s) == 1 {
			total["Served"] += float64(s[0])
		}
	}
	return total
}

// callInts calls a niladic method by name and returns its integer
// results; nil when the method is gone.
func callInts(obj any, method string) []int64 {
	m := reflect.ValueOf(obj).MethodByName(method)
	if !m.IsValid() || m.Type().NumIn() != 0 {
		return nil
	}
	var out []int64
	for _, r := range m.Call(nil) {
		if !r.CanInt() {
			return nil
		}
		out = append(out, r.Int())
	}
	return out
}

// histSnap is the exact sum and count of registry histograms at one
// instant; two of them give a window's exact means.
type histSnap map[string]obs.HistSnapshot

func snapHists(reg *obs.Registry, names []string) histSnap {
	out := histSnap{}
	if reg == nil {
		return out
	}
	for _, n := range names {
		out[n] = reg.Hist(n).Snapshot()
	}
	return out
}

// meanSince is the mean of the observations name received after before
// was taken; 0 when there were none.
func (after histSnap) meanSince(before histSnap, name string) float64 {
	n := after[name].Count() - before[name].Count()
	if n <= 0 {
		return 0
	}
	return float64(after[name].Sum-before[name].Sum) / float64(n)
}

// runWindow is the coordinator every workload shares: warm up, open the
// window, hold it for the measured time, close it. The load runs in its
// own goroutines throughout; snap is called at both edges, and progress
// at every slice boundary in between.
func runWindow(w *window, warmup, measure time.Duration, snap func() edge, progress func() int64) (open, shut edge, ticks []tick) {
	time.Sleep(warmup)
	open = snap()
	w.measuring.Store(true)
	t0 := time.Now()
	ticks = append(ticks, takeTick(w, progress))
	for left := measure; left > 0; left = measure - time.Since(t0) {
		if left < sliceLen*3/2 { // no sliver at the end: the last slice is 0.5 to 1.5 slices long
			time.Sleep(left)
		} else {
			time.Sleep(sliceLen)
		}
		ticks = append(ticks, takeTick(w, progress))
	}
	w.measuring.Store(false)
	shut = snap()
	return open, shut, ticks
}

// edge is everything sampled at one edge of the window.
type edge struct {
	proc     procSnap
	counters stats
	hists    histSnap
}
