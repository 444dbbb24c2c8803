// Package diskq is a batched submission/completion-queue disk backend —
// the disk-side twin of the paper's batched deregistration discipline
// (Section 3.1). Just as DSA amortizes NIC translation-table updates by
// batching deregistrations instead of paying the VIA doorbell per
// buffer, diskq amortizes per-I/O submission cost by moving operations
// through a submission queue (many SQEs, one kernel transition) and
// harvesting completions in batches from a completion queue.
//
// One engine services the queue: a router goroutine feeding a bounded
// worker pool (portable.go), on any platform and over any File
// implementation, fault injectors and latency models included.
// (DESIGN.md "What rides the disk queue" records the measurement that
// retired the raw-syscall kernel-ring alternative.)
//
// Ordering: operations may complete in any order, except OpFsync, which
// is a full drain barrier — it begins only after every earlier
// submission has completed, and later submissions begin only after it
// completes (an explicit drain point in the router). Its completion is
// also reaped after the completions of everything it waited for, so a
// consumer that sees the fsync CQE has already seen every write the
// barrier covers.
//
// Concurrency contract: any number of goroutines may submit; exactly
// one goroutine drives Reap (the completion dispatcher). Submission
// blocks while the queue is at depth — backpressure, not an error.
package diskq

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"github.com/v3storage/v3/internal/bufpool"
	"github.com/v3storage/v3/internal/obs"
)

// File is the storage a Queue operates on: an *os.File, or any wrapped
// store, fault injector or in-memory volume.
type File interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
}

// OpKind is a submission's operation type.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	OpFsync
)

// Op is one submission-queue entry: a read into Buf at Off, a write of
// Buf at Off, or an fsync barrier (Buf/Off ignored).
type Op struct {
	Kind OpKind
	Buf  []byte
	Off  int64
}

// Completion is one harvested CQE. QueueNS/DeviceNS split the op's life
// at worker pickup, the decomposition the request tracer attributes to
// individual requests: QueueNS is submit → service start (SQ wait),
// DeviceNS is service start → done. An fsync runs on the router, not a
// worker, and reports neither.
type Completion struct {
	Token    uint64 // the token Submit returned for this op
	N        int    // bytes transferred (0 for fsync)
	Err      error  // nil on success
	QueueNS  int64  // SQ wait
	DeviceNS int64  // service/device time
}

// Config sizes a Queue.
type Config struct {
	// Depth bounds in-flight operations and the worker pool (default 64):
	// a full queue is backpressure at Submit, never a dropped completion.
	Depth int
	// Metrics, when non-nil, receives the queue's instrumentation:
	// submit/reap batch-size histograms, queue-wait vs device-time
	// split, and in-flight depth. Multiple queues on one registry share
	// (merge into) the same metrics.
	Metrics *obs.Registry
}

// ErrClosed is returned by Submit and Reap once the queue is closed (and,
// for Reap, drained).
var ErrClosed = errors.New("diskq: queue closed")

const defaultDepth = 64

// Stats is a point-in-time snapshot of queue activity.
type Stats struct {
	Submitted int64 // operations submitted
	Completed int64 // operations reaped
	Batches   int64 // submit calls that carried more than one op
}

// Queue is one SQ/CQ pair over a File.
type Queue struct {
	r     *portableRing
	depth int

	mu       sync.Mutex
	space    *sync.Cond // waits for in-flight < depth
	inFlight int
	nextTok  uint64
	closed   bool

	bufs *bufpool.Pool // GetBuf/PutBuf staging slabs

	submitted atomic.Int64
	completed atomic.Int64
	batches   atomic.Int64

	// Metrics (nil when Config.Metrics is unset).
	submitBatch *obs.Hist // diskq_submit_batch (ops per submit call)
	reapBatch   *obs.Hist // diskq_reap_batch (ops per reap return)
	queueWait   *obs.Hist // diskq_queue_wait_ns (submit → service start)
	deviceTime  *obs.Hist // diskq_device_ns (service start → done)
	opTotal     *obs.Hist // diskq_op_total_ns (submit → reap)

	tsMu sync.Mutex
	ts   map[uint64]int64 // token → submit timestamp, only when metrics on
}

// Open builds a Queue over f and starts its router and workers. The
// error is always nil today; the signature is what callers compile
// against.
func Open(f File, cfg Config) (*Queue, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = defaultDepth
	}
	q := &Queue{depth: cfg.Depth, bufs: bufpool.New()}
	q.space = sync.NewCond(&q.mu)
	if r := cfg.Metrics; r != nil {
		q.submitBatch = r.Hist("diskq_submit_batch")
		q.reapBatch = r.Hist("diskq_reap_batch")
		q.queueWait = r.Hist("diskq_queue_wait_ns")
		q.deviceTime = r.Hist("diskq_device_ns")
		q.opTotal = r.Hist("diskq_op_total_ns")
		q.ts = make(map[uint64]int64, cfg.Depth)
	}
	q.r = newPortableRing(f, cfg.Depth, q.queueWait, q.deviceTime)
	return q, nil
}

// Depth returns the configured in-flight bound.
func (q *Queue) Depth() int { return q.depth }

// InFlight returns the number of submitted, not-yet-reaped operations.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inFlight
}

// Stats returns cumulative counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Submitted: q.submitted.Load(),
		Completed: q.completed.Load(),
		Batches:   q.batches.Load(),
	}
}

// SubmitRead enqueues a read of len(buf) bytes at off into buf and
// returns its completion token.
func (q *Queue) SubmitRead(buf []byte, off int64) (uint64, error) {
	return q.submitOne(Op{Kind: OpRead, Buf: buf, Off: off})
}

// SubmitWrite enqueues a write of buf at off.
func (q *Queue) SubmitWrite(buf []byte, off int64) (uint64, error) {
	return q.submitOne(Op{Kind: OpWrite, Buf: buf, Off: off})
}

// SubmitFsync enqueues the durability barrier: it starts only after
// every earlier submission completed, completes before anything
// submitted after it starts, and its completion is reaped after theirs.
func (q *Queue) SubmitFsync() (uint64, error) {
	return q.submitOne(Op{Kind: OpFsync})
}

func (q *Queue) submitOne(op Op) (uint64, error) {
	tok, _, err := q.Submit([]Op{op})
	if err != nil {
		return 0, err
	}
	return tok, nil
}

// Submit enqueues a batch of operations in one pass (batches larger than
// Depth are chunked, blocking between chunks). It returns the first
// token and the number of ops actually handed to the engine; op i
// carries token first+i. Submit blocks while the queue is at depth — the
// backpressure that bounds in-flight I/O. On error, completions will
// arrive for exactly the first n ops and never for the rest — a caller
// with a synchronous fallback runs it on ops[n:] only, so nothing is
// issued twice.
func (q *Queue) Submit(ops []Op) (first uint64, n int, err error) {
	if len(ops) == 0 {
		return 0, 0, errors.New("diskq: empty batch")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, 0, ErrClosed
	}
	// Reserve the whole batch's token range up front. Waiting for queue
	// space below releases mu (space.Wait), letting other submitters in;
	// if they drew from nextTok while this batch still had chunks to
	// place, the batch would reuse their tokens and two in-flight ops
	// would collide on one completion token. Reserving first..first+len-1
	// here keeps every batch's tokens contiguous and unique no matter how
	// submissions interleave; tokens reserved for ops that are never
	// handed to the engine (close mid-batch) simply go unused.
	first = q.nextTok
	q.nextTok += uint64(len(ops))
	rest := ops
	tok := first
	for len(rest) > 0 {
		for q.inFlight >= q.depth && !q.closed {
			q.space.Wait()
		}
		if q.closed {
			return first, n, ErrClosed
		}
		k := q.depth - q.inFlight
		if k > len(rest) {
			k = len(rest)
		}
		chunk := rest[:k]
		if q.ts != nil {
			now := obs.Now()
			q.tsMu.Lock()
			for i := range chunk {
				q.ts[tok+uint64(i)] = now
			}
			q.tsMu.Unlock()
		}
		q.r.submit(chunk, tok)
		q.inFlight += k
		tok += uint64(k)
		n += k
		q.submitted.Add(int64(k))
		if q.submitBatch != nil {
			q.submitBatch.Observe(int64(k))
		}
		rest = rest[k:]
	}
	if len(ops) > 1 {
		q.batches.Add(1)
	}
	return first, n, nil
}

// Reap harvests completions into out, blocking until at least min are
// available (min <= 0 polls). It returns the number harvested; once the
// queue is closed and drained it returns ErrClosed. Exactly one
// goroutine may drive Reap.
func (q *Queue) Reap(out []Completion, min int) (int, error) {
	n, err := q.r.reap(out, min)
	if n > 0 {
		q.mu.Lock()
		q.inFlight -= n
		q.space.Broadcast()
		q.mu.Unlock()
		q.completed.Add(int64(n))
		if q.reapBatch != nil {
			q.reapBatch.Observe(int64(n))
		}
		if q.ts != nil {
			now := obs.Now()
			q.tsMu.Lock()
			for i := 0; i < n; i++ {
				if t0, ok := q.ts[out[i].Token]; ok {
					delete(q.ts, out[i].Token)
					q.opTotal.Observe(now - t0)
				}
			}
			q.tsMu.Unlock()
		}
	}
	return n, err
}

// GetBuf returns a pooled I/O staging buffer of length n. Pair with
// PutBuf.
func (q *Queue) GetBuf(n int) []byte { return q.bufs.Get(n) }

// PutBuf returns a GetBuf buffer for reuse.
func (q *Queue) PutBuf(b []byte) { q.bufs.Put(b) }

// Close stops intake and waits for in-flight operations to drain
// through the engine; their completions remain reapable until the
// dispatcher has harvested everything, after which Reap returns
// ErrClosed.
func (q *Queue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.space.Broadcast()
	q.mu.Unlock()
	q.r.close()
	return nil
}
