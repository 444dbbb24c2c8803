package netv3

import (
	"sync"
	"sync/atomic"

	"github.com/v3storage/v3/internal/diskq"
)

// diskQueue is a cached volume's batched submission/completion disk
// backend: the netv3 face of internal/diskq. The background store I/O of
// the cached disk path — the destager's coalesced runs, the prefetcher's
// read-ahead windows, and the Flush fsync barrier — moves through one
// SQ/CQ pair as vectored submissions, and one dispatcher goroutine drains
// completions for the whole volume. (Demand misses do not ride it: a
// scheduler worker reads the store synchronously through the cache.)
//
// Completion routing: every submission registers a callback keyed by
// its token. Callbacks run on the dispatcher in reap order, which the
// queue guarantees puts an fsync's completion after the completions
// of every write it barriers — the property the flush path's
// error-collection relies on. Callbacks must never block: the only ones
// registered are dqWaiter countdowns.
//
// Because Submit can be interleaved with the completion it triggers,
// registration uses a claim protocol instead of insert-before-submit:
// the dispatcher parks completions whose token has no callback yet, and
// the submitter claims parked completions when it registers. Both sides
// run under mu, so a completion is executed exactly once, on whichever
// side arrives second.
type diskQueue struct {
	v *volume
	q *diskq.Queue

	mu        sync.Mutex
	pending   map[uint64]func(diskq.Completion)
	unclaimed map[uint64]diskq.Completion

	dispatcherDone chan struct{}

	batches   atomic.Int64 // destage/prefetch vectored batches
	fallbacks atomic.Int64 // ops a closing queue refused; the submitter ran them itself
}

// storeFile adapts a BlockStore to diskq.File. Every store rides the
// queue through it, FileStore included, so the store's own range check,
// its short-I/O error context and any wrapper around it (fault injectors,
// latency models) stay in the queue's I/O path.
type storeFile struct {
	bs BlockStore
}

func (f storeFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.bs.ReadAt(p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f storeFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.bs.WriteAt(p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f storeFile) Sync() error { return f.bs.Sync() }

func newDiskQueue(s *Server, v *volume) (*diskQueue, error) {
	q, err := diskq.Open(storeFile{bs: v.store}, diskq.Config{
		Depth:   s.tune.sqDepth,
		Metrics: s.cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	dq := &diskQueue{
		v:              v,
		q:              q,
		pending:        make(map[uint64]func(diskq.Completion), s.tune.sqDepth),
		unclaimed:      make(map[uint64]diskq.Completion),
		dispatcherDone: make(chan struct{}),
	}
	go dq.dispatch()
	return dq, nil
}

// dispatch is the volume's completion drain: it reaps in batches and
// routes each completion to its registered callback, parking early
// arrivals until the submitter claims them. It exits when the queue is
// closed and drained.
func (dq *diskQueue) dispatch() {
	defer close(dq.dispatcherDone)
	out := make([]diskq.Completion, dq.q.Depth())
	for {
		n, err := dq.q.Reap(out, 1)
		for _, c := range out[:n] {
			dq.mu.Lock()
			fn, ok := dq.pending[c.Token]
			if ok {
				delete(dq.pending, c.Token)
			} else {
				dq.unclaimed[c.Token] = c
			}
			dq.mu.Unlock()
			if ok {
				fn(c)
			}
		}
		if err != nil {
			return
		}
	}
}

// claim registers fns for the contiguous tokens first..first+len-1,
// running any callback whose completion already arrived. It is the
// submitter half of the parking protocol.
func (dq *diskQueue) claim(first uint64, fns []func(diskq.Completion)) {
	type ready struct {
		fn func(diskq.Completion)
		c  diskq.Completion
	}
	var run []ready
	dq.mu.Lock()
	for i, fn := range fns {
		tok := first + uint64(i)
		if c, ok := dq.unclaimed[tok]; ok {
			delete(dq.unclaimed, tok)
			run = append(run, ready{fn: fn, c: c})
		} else {
			dq.pending[tok] = fn
		}
	}
	dq.mu.Unlock()
	for _, r := range run {
		r.fn(r.c)
	}
}

// submitBatch submits ops as one vectored batch (blocking for queue
// space) and registers callbacks for the ops actually accepted. It
// returns that count: on a closing queue it can be short, and the
// caller runs its synchronous fallback on ops[n:] — exactly the ops
// that will never complete — so nothing is issued twice.
func (dq *diskQueue) submitBatch(ops []diskq.Op, fns []func(diskq.Completion)) int {
	first, n, err := dq.q.Submit(ops)
	if n > 0 {
		dq.claim(first, fns[:n])
		if len(ops) > 1 {
			dq.batches.Add(1)
		}
	}
	if err != nil {
		dq.fallbacks.Add(int64(len(ops) - n))
	}
	return n
}

// dqWaiter collects a blocking submitter's batch results: callbacks
// count down and record per-op completions; wait blocks the submitter
// (never the dispatcher) until the batch drains.
type dqWaiter struct {
	mu    sync.Mutex
	cond  *sync.Cond
	left  int
	comps []diskq.Completion
}

func newDQWaiter(n int) *dqWaiter {
	w := &dqWaiter{left: n, comps: make([]diskq.Completion, n)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// callback returns the completion callback for batch index i.
func (w *dqWaiter) callback(i int) func(diskq.Completion) {
	return func(c diskq.Completion) {
		w.mu.Lock()
		w.comps[i] = c
		w.left--
		if w.left == 0 {
			w.cond.Broadcast()
		}
		w.mu.Unlock()
	}
}

// wait blocks until n callbacks have fired (use the submitBatch return;
// never-submitted ops must not be waited for) and returns the per-index
// completions.
func (w *dqWaiter) wait(n int) []diskq.Completion {
	w.mu.Lock()
	for w.left > len(w.comps)-n {
		w.cond.Wait()
	}
	w.mu.Unlock()
	return w.comps
}

// runBatch is the blocking convenience: submit ops, wait for the
// accepted ones, and report (completions, accepted). Used by the
// destager and prefetcher, whose passes own their goroutines.
func (dq *diskQueue) runBatch(ops []diskq.Op) ([]diskq.Completion, int) {
	w := newDQWaiter(len(ops))
	fns := make([]func(diskq.Completion), len(ops))
	for i := range fns {
		fns[i] = w.callback(i)
	}
	n := dq.submitBatch(ops, fns)
	if n == 0 {
		return w.comps, 0
	}
	return w.wait(n), n
}

// fsyncBarrier makes every previously submitted write durable through
// the queue: the fsync SQE is a drain barrier, so it starts only after
// outstanding writes complete, and its completion is dispatched after
// theirs — by which point their error callbacks have run. Falls back to
// a direct store sync when the queue is closed or full of barriers.
func (dq *diskQueue) fsyncBarrier() error {
	w := newDQWaiter(1)
	tok, err := dq.q.SubmitFsync()
	if err != nil {
		return dq.v.store.Sync()
	}
	dq.claim(tok, []func(diskq.Completion){w.callback(0)})
	return w.wait(1)[0].Err
}

// close stops intake and waits for the dispatcher to drain every
// in-flight completion (running their callbacks) before returning.
func (dq *diskQueue) close() {
	dq.q.Close()
	<-dq.dispatcherDone
}
