package diskq

import (
	"io"
	"sync"

	"github.com/v3storage/v3/internal/obs"
)

// portableRing services the SQ/CQ contract on any platform and over any
// File with a router goroutine feeding a bounded worker pool. The
// router is the ordering authority: regular operations fan out to the
// workers and complete in any order, while an fsync is a drain
// barrier — the router stops dispatching, waits for every in-service
// operation's completion to be posted, runs Sync inline, posts the
// fsync completion, and only then resumes. CQ ordering follows: the
// fsync CQE is visible only after every CQE it waited for.
type portableRing struct {
	f File

	sq chan pOp // capacity == depth, so a Queue-bounded submit never blocks
	wq chan pOp

	cqMu     sync.Mutex
	cqCond   *sync.Cond
	cq       []Completion
	cqClosed bool

	// svcMu guards the in-service count for the fsync drain barrier.
	// Workers post the CQE before decrementing, so outstanding==0 implies
	// every prior completion is already in the CQ.
	svcMu       sync.Mutex
	svcCond     *sync.Cond
	outstanding int

	workerWG sync.WaitGroup
	routerWG sync.WaitGroup

	// queueWait/deviceTime split an op's latency at worker pickup.
	queueWait  *obs.Hist
	deviceTime *obs.Hist
}

// pOp is one submission in flight through the router.
type pOp struct {
	op  Op
	tok uint64
	enq int64
}

// newPortableRing starts the router and one worker per queue slot, so an
// accepted op never waits for a worker behind another op's device time.
func newPortableRing(f File, depth int, queueWait, deviceTime *obs.Hist) *portableRing {
	r := &portableRing{
		f:          f,
		sq:         make(chan pOp, depth),
		wq:         make(chan pOp, depth),
		queueWait:  queueWait,
		deviceTime: deviceTime,
	}
	r.cqCond = sync.NewCond(&r.cqMu)
	r.svcCond = sync.NewCond(&r.svcMu)
	for i := 0; i < depth; i++ {
		r.workerWG.Add(1)
		go r.worker()
	}
	r.routerWG.Add(1)
	go r.router()
	return r
}

// submit enqueues ops as tokens token, token+1, ... in one router pass.
func (r *portableRing) submit(ops []Op, token uint64) {
	// Always stamped: the queue-wait/device-time split rides every
	// Completion for per-request tracing, not just the metric histograms.
	now := obs.Now()
	for i, op := range ops {
		r.sq <- pOp{op: op, tok: token + uint64(i), enq: now}
	}
}

// router pulls the submission stream in order, fanning regular ops to
// the workers and executing fsync barriers inline.
func (r *portableRing) router() {
	defer r.routerWG.Done()
	for p := range r.sq {
		if p.op.Kind == OpFsync {
			r.drain()
			err := r.f.Sync()
			r.post(Completion{Token: p.tok, Err: err})
			continue
		}
		r.svcMu.Lock()
		r.outstanding++
		r.svcMu.Unlock()
		r.wq <- p
	}
	// Submission stream closed: drain the workers, then mark the CQ so a
	// blocked reaper sees every completion before ErrClosed.
	r.drain()
	close(r.wq)
	r.workerWG.Wait()
	r.cqMu.Lock()
	r.cqClosed = true
	r.cqCond.Broadcast()
	r.cqMu.Unlock()
}

// drain blocks until every dispatched operation has posted its CQE.
func (r *portableRing) drain() {
	r.svcMu.Lock()
	for r.outstanding > 0 {
		r.svcCond.Wait()
	}
	r.svcMu.Unlock()
}

func (r *portableRing) worker() {
	defer r.workerWG.Done()
	for p := range r.wq {
		svc0 := obs.Now()
		if r.queueWait != nil && p.enq != 0 {
			r.queueWait.Observe(svc0 - p.enq)
		}
		var c Completion
		c.Token = p.tok
		switch p.op.Kind {
		case OpRead:
			n, err := r.f.ReadAt(p.op.Buf, p.op.Off)
			c.N, c.Err = normalizeRead(p.op.Buf, n, err)
		case OpWrite:
			c.N, c.Err = r.f.WriteAt(p.op.Buf, p.op.Off)
		default:
			c.Err = ErrClosed // unreachable: fsync never enters the worker queue
		}
		done := obs.Now()
		if r.deviceTime != nil {
			r.deviceTime.Observe(done - svc0)
		}
		if p.enq != 0 {
			c.QueueNS = svc0 - p.enq
		}
		c.DeviceNS = done - svc0
		r.post(c)
		r.svcMu.Lock()
		r.outstanding--
		if r.outstanding == 0 {
			r.svcCond.Broadcast()
		}
		r.svcMu.Unlock()
	}
}

func (r *portableRing) post(c Completion) {
	r.cqMu.Lock()
	r.cq = append(r.cq, c)
	r.cqCond.Signal()
	r.cqMu.Unlock()
}

// reap harvests at least min completions (blocking) unless closing.
func (r *portableRing) reap(out []Completion, min int) (int, error) {
	if min > len(out) {
		min = len(out)
	}
	r.cqMu.Lock()
	defer r.cqMu.Unlock()
	for len(r.cq) < min && !(min <= 0) && !r.cqClosed {
		r.cqCond.Wait()
	}
	if len(r.cq) == 0 && r.cqClosed {
		return 0, ErrClosed
	}
	n := copy(out, r.cq)
	rem := copy(r.cq, r.cq[n:])
	r.cq = r.cq[:rem]
	return n, nil
}

// close stops intake; the router drains in-flight work, the workers
// exit, and the CQ transitions to closed once every completion is
// posted.
func (r *portableRing) close() {
	close(r.sq)
	r.routerWG.Wait()
}

// normalizeRead maps a ReaderAt result onto the queue's sparse-store read
// contract: a read that ran past end-of-file zero-fills the remainder and
// reports success, exactly like reading a sparse hole.
func normalizeRead(buf []byte, n int, err error) (int, error) {
	if n < 0 {
		n = 0
	}
	if n < len(buf) && (err == nil || err == io.EOF || err == io.ErrUnexpectedEOF) {
		clear(buf[n:])
		return len(buf), nil
	}
	return n, err
}
