package netv3

import (
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// wireCounters totals what a socket's frame writers put on the wire. The
// owner (a Client across its connection generations, a Server across its
// sessions) holds one; each writer adds to it once per batch, never per
// frame.
type wireCounters struct {
	frames atomic.Int64 // frames handed to conn.Write
	writes atomic.Int64 // conn.Write calls that carried them

	// Per-batch histograms, set once before the first writer starts on a
	// metrics-enabled client and nil otherwise: frames per write, and the
	// conn.Write duration that the submitter's "wire write" stage no
	// longer contains. Nil costs the writer one branch and no clock read.
	batch   *obs.Hist
	writeNS *obs.Hist
}

// frameWriter is the one way either end of a connection puts frames on
// its socket: posters — client submitters, the server's session loop and
// scheduler workers — encode the frame and copy it plus its payload onto q
// under mu (a memcpy), and the dedicated writeLoop goroutine swaps the
// queue out and issues a single conn.Write with mu released. A window of
// sixteen requests, or the sixteen responses to it, costs one kernel
// crossing instead of sixteen: the TCP analogue of the paper's interrupt
// batching (Section 3.2) and of its server's completion-queue drain
// (Section 4) — many agents post, one agent rings the doorbell.
//
// It also keeps the socket out of every sender's critical section. A
// session multiplexing hundreds of logical streams can have megabytes of
// responses outstanding toward one socket; were responders to write the
// socket themselves, a full kernel send buffer would block one of them
// holding the lock and every scheduler worker completing a request would
// queue up behind the socket. Here backpressure stalls only the writer.
//
// There is no timer and no knob: a frame never waits for a second frame.
// The writer goes for the queue the moment it is non-empty, and what
// coalesces is exactly what was posted before it got there.
type frameWriter struct {
	conn  io.Writer
	ctr   *wireCounters
	onErr func() // called once, off mu, after a failed conn.Write

	mu      sync.Mutex
	q       []byte     // pending frames + payloads
	qFrames int        // frames in q
	qSpare  []byte     // writeLoop's drained buffer, recycled
	qCond   *sync.Cond // writeLoop waits here for work
	qSpace  *sync.Cond // posters wait here when q exceeds frameQMax
	qErr    error      // sticky: a failed write, or abort; refuses all later sends
	qClosed bool
	exited  chan struct{} // closed when writeLoop is off the socket for good
}

// frameQMax bounds the queue. Senders block once the unsent backlog
// passes it — the backpressure a blocking socket write would apply, minus
// the convoy. The cap is far above what a credit window admits in normal
// operation, so it only engages against a peer that stops reading.
const frameQMax = 16 << 20

// newFrameWriter starts the writer for conn. onErr runs on the writer
// goroutine after a failed write, with no lock held and stop already
// released: the server closes the session socket with it, the client
// enters reconnection (and may spend seconds there).
func newFrameWriter(conn io.Writer, ctr *wireCounters, onErr func()) *frameWriter {
	w := &frameWriter{conn: conn, ctr: ctr, onErr: onErr, exited: make(chan struct{})}
	w.qCond = sync.NewCond(&w.mu)
	w.qSpace = sync.NewCond(&w.mu)
	go w.writeLoop()
	return w
}

// send queues one frame plus optional payload for the wire. It returns
// once the bytes are copied, so the caller owns m and body again — which
// is what lets a client cancel a request, or a server recycle a pooled
// buffer, the moment this returns.
func (w *frameWriter) send(m wire.Message, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.q) >= frameQMax && w.qErr == nil && !w.qClosed {
		w.qSpace.Wait()
	}
	if w.qErr != nil {
		return w.qErr
	}
	if w.qClosed {
		return net.ErrClosed
	}
	n := len(w.q)
	w.q = slices.Grow(w.q, wire.ControlSize+len(body))[:n+wire.ControlSize]
	wire.MarshalInto(w.q[n:], m)
	w.q = append(w.q, body...)
	w.qFrames++
	w.qCond.Signal()
	return nil
}

// writeLoop is the socket's single writer: swap the pending buffer out
// under mu, write it with mu released. The two buffers ping-pong, so
// steady state allocates nothing.
func (w *frameWriter) writeLoop() {
	err := w.drain()
	close(w.exited)
	if err != nil {
		w.onErr()
	}
}

// drain runs until the writer is stopped and empty, or aborted (nil), or
// a write fails (the error, which also turns every later send away).
func (w *frameWriter) drain() error {
	for {
		w.mu.Lock()
		for len(w.q) == 0 && !w.qClosed && w.qErr == nil {
			w.qCond.Wait()
		}
		w.mu.Unlock()
		// One sender's signal woke us, and a blocking caller's signal makes
		// this goroutine the very next to run — ahead of every other caller
		// that is already runnable with a frame to post. Yield once so they
		// post first and ride this write; with nothing else runnable the
		// yield returns at once.
		runtime.Gosched()
		w.mu.Lock()
		if len(w.q) == 0 || w.qErr != nil { // stopped and drained, or aborted
			w.mu.Unlock()
			return nil
		}
		buf, frames := w.q, w.qFrames
		w.q, w.qFrames = w.qSpare[:0], 0
		w.mu.Unlock()
		w.qSpace.Broadcast()

		var t0 int64
		if w.ctr.writeNS != nil {
			t0 = obs.Now()
		}
		_, err := w.conn.Write(buf)
		if w.ctr.writeNS != nil {
			w.ctr.writeNS.Observe(obs.Now() - t0)
			w.ctr.batch.Observe(int64(frames))
		}
		w.ctr.frames.Add(int64(frames))
		w.ctr.writes.Add(1)

		w.mu.Lock()
		w.qSpare = buf[:0]
		if err != nil {
			if w.qErr == nil {
				w.qErr = err
			}
			w.q, w.qFrames = nil, 0
			w.mu.Unlock()
			w.qSpace.Broadcast()
			return err
		}
		w.mu.Unlock()
	}
}

// stop refuses further sends and waits for writeLoop to put what is
// already queued on the wire (or die on the socket error that ended the
// connection). The caller closes the socket afterwards; against a peer
// that has stopped reading, closing it first — or a write deadline — is
// what unblocks the writer.
func (w *frameWriter) stop() {
	w.mu.Lock()
	w.qClosed = true
	w.mu.Unlock()
	w.qCond.Broadcast()
	w.qSpace.Broadcast()
	<-w.exited
}

// abort retires the writer without draining: queued frames are dropped,
// later sends fail with err, and writeLoop exits as soon as it is off the
// socket (the caller has closed conn, so a write in progress fails). The
// client calls it when a connection generation dies — replay re-sends
// every unanswered request on the next one.
func (w *frameWriter) abort(err error) {
	w.mu.Lock()
	if w.qErr == nil {
		w.qErr = err
	}
	w.q, w.qFrames = nil, 0
	w.mu.Unlock()
	w.qCond.Broadcast()
	w.qSpace.Broadcast()
}
