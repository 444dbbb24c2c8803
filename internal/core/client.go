package core

import (
	"fmt"
	"time"

	"github.com/v3storage/v3/internal/hw"
	"github.com/v3storage/v3/internal/oskrnl"
	"github.com/v3storage/v3/internal/sim"
	"github.com/v3storage/v3/internal/v3srv"
	"github.com/v3storage/v3/internal/vi"
	"github.com/v3storage/v3/internal/vinic"
)

// Request is one block I/O in flight. Obtain one from ReadAsync or
// WriteAsync; complete it with Client.Wait (or Read/Write, which combine
// the two). The completion flag (done) is set by RDMA from the server in
// cDSA's polling mode, by the interrupt path otherwise.
type Request struct {
	Op     v3srv.OpKind
	Offset int64
	Length int

	done        *sim.Event
	cc          *clientConn
	mem         vi.MemHandle
	slot        uint32
	issued      sim.Time
	completedAt sim.Time
	serverTime  time.Duration
	pollMode    bool
	armed       bool // cDSA: interrupt armed after the polling interval
	finished    bool // client-side completion bookkeeping done
	creditBack  bool // flow-control credit already returned
	acked       bool // response received (drops retransmission duplicates)
	seq         uint64
	serverOff   int64
}

// Done reports whether the request's completion flag is set.
func (r *Request) Done() bool { return r.done.Fired() }

// ServerTime returns the V3 server residence time the response reported.
func (r *Request) ServerTime() time.Duration { return r.serverTime }

// Latency returns issue-to-completion time (zero until complete).
func (r *Request) Latency() time.Duration {
	if r.completedAt == 0 {
		return 0
	}
	return time.Duration(r.completedAt - r.issued)
}

// clientConn is the client side of one VI connection to one V3 server
// node (one NIC per connection in the paper's setups).
type clientConn struct {
	cl      *Client
	index   int
	prov    *vi.Provider
	vic     *vi.Conn
	isr     *oskrnl.ISRQueue
	credits *sim.Semaphore
	fc      *slotCredits
	locks   *hw.PairSet
	volSize int64

	intrEnabled bool
	outstanding int
	pending     []*Request // completions parked while interrupts are off
	lastSubmit  sim.Time

	tracker  *tracker
	inflight map[uint64]*Request
	seq      uint64
}

// Client is a DSA instance on a database host.
type Client struct {
	E    *sim.Engine
	cpus *hw.CPUPool
	kern *oskrnl.Kernel
	cfg  Config

	conns       []*clientConn
	globalLocks *hw.PairSet
	stopped     bool
	timers      bool

	lat          sim.Series
	retransmits  sim.Counter
	directCompl  sim.Counter // completions delivered by a per-response interrupt
	parkedCompl  sim.Counter // completions parked while interrupts were disabled
	reads        sim.Counter
	writes       sim.Counter
	bytesRead    sim.Counter
	bytesWritten sim.Counter
}

// NewClient creates a DSA client charging CPU to cpus and kernel costs to
// kern. Attach servers with AttachServer before issuing I/O.
func NewClient(e *sim.Engine, cpus *hw.CPUPool, kern *oskrnl.Kernel, cfg Config) *Client {
	if cfg.Credits <= 0 {
		cfg.Credits = 128
	}
	if cfg.ServerStripe <= 0 {
		cfg.ServerStripe = 1 << 20
	}
	n := cfg.GlobalLocks
	if n <= 0 {
		n = 1
	}
	return &Client{
		E: e, cpus: cpus, kern: kern, cfg: cfg,
		globalLocks: hw.NewPairSet(e, cpus, n),
	}
}

// Config returns the client's configuration.
func (c *Client) Config() Config { return c.cfg }

// dsaHold forwards the effective DSA critical-section length.
func (c *Client) dsaHold() time.Duration { return c.cfg.dsaHold() }

// AttachServer wires one V3 connection: prov is the client-side VI
// provider on the NIC to that server, conn the client endpoint from
// vi.Connect, and volBytes the server's volume size.
func (c *Client) AttachServer(prov *vi.Provider, conn *vi.Conn, volBytes int64) {
	// kDSA buffers arrive pinned from the I/O manager; cDSA uses AWE
	// memory. Only wDSA pays pin/unpin inside registration (Section 3.1).
	prov.SetPinnedBuffers(c.cfg.Impl != WDSA)
	cc := &clientConn{
		cl:          c,
		index:       len(c.conns),
		prov:        prov,
		vic:         conn,
		credits:     sim.NewSemaphore(c.cfg.Credits),
		fc:          newSlotCredits(),
		volSize:     volBytes,
		intrEnabled: true,
		tracker:     newTracker(c.cfg.RetxTimeout, c.cfg.RetxRetries),
		inflight:    make(map[uint64]*Request),
	}
	cc.fc.Grant(c.cfg.Credits)
	cc.isr = c.kern.NewISRQueue(fmt.Sprintf("dsa%d", cc.index))
	// Per-connection DSA locks are part of the Section 3.3 optimization:
	// the unoptimized cDSA shares coarse client-wide locks like the
	// kernel paths do.
	if c.cfg.Impl == CDSA && c.cfg.Opts.ReducedLocks {
		n := c.cfg.PerConnLocks
		if n <= 0 {
			n = 1
		}
		cc.locks = hw.NewPairSet(c.E, c.cpus, n)
	} else {
		cc.locks = c.globalLocks
	}
	conn.SetHandler(func(m *vinic.Message) { c.onMessage(cc, m) })
	c.conns = append(c.conns, cc)
	if !c.timers {
		c.timers = true
		c.startTimers()
	}
}

// startTimers launches DSA's housekeeping: the deregistration region
// flush and the interrupt-batching watchdog that drains parked
// completions when submissions pause.
func (c *Client) startTimers() {
	c.E.Go("dsa-flush", func(p *sim.Proc) {
		for !c.stopped {
			p.Sleep(c.cfg.FlushInterval)
			if !c.cfg.Opts.BatchedDereg {
				continue
			}
			for _, cc := range c.conns {
				// Flush only idle connections: under load, regions fill and
				// deregister on their own; sealing early would cap batching
				// at the flush period.
				if p.Now()-cc.lastSubmit >= c.cfg.FlushInterval {
					cc.prov.FlushDereg(p)
				}
			}
		}
	})
	c.E.Go("dsa-retransmit", func(p *sim.Proc) {
		for !c.stopped {
			p.Sleep(c.cfg.RetxInterval)
			now := time.Duration(p.Now())
			for _, cc := range c.conns {
				retry, failed := cc.tracker.Expire(now)
				for _, seq := range retry {
					if r, ok := cc.inflight[seq]; ok {
						c.retransmits.Inc()
						c.resend(p, cc, r)
					}
				}
				for _, seq := range failed {
					if r, ok := cc.inflight[seq]; ok {
						panic(fmt.Sprintf("core: request seq %d (off %d) exhausted retries", seq, r.Offset))
					}
				}
			}
		}
	})
	c.E.Go("dsa-watchdog", func(p *sim.Proc) {
		for !c.stopped {
			p.Sleep(c.cfg.WatchdogInterval)
			for _, cc := range c.conns {
				if len(cc.pending) > 0 && p.Now()-cc.lastSubmit >= c.cfg.WatchdogInterval {
					// Submissions paused: reap all parked completions under a
					// single interrupt (many replies, one interrupt — the
					// implicit batching of Section 6.2). Whether interrupts
					// re-enable is decided by the low-watermark rule as the
					// drain lowers the outstanding count.
					drain := cc.pending
					cc.pending = nil
					cc.isr.Raise(func(ip *sim.Proc) {
						for _, req := range drain {
							c.completeKDSA(ip, req)
						}
					})
				}
			}
		}
	})
}

// Stop terminates the housekeeping timers so a driven simulation can
// drain. In-flight I/O still completes.
func (c *Client) Stop() { c.stopped = true }

// route maps a client-volume offset to its connection and the offset
// within that server's volume (the client volume is striped across
// servers in ServerStripe units).
func (c *Client) route(off int64, length int) (*clientConn, int64) {
	if len(c.conns) == 0 {
		panic("core: no servers attached")
	}
	stripe := c.cfg.ServerStripe
	if off%stripe+int64(length) > stripe {
		panic(fmt.Sprintf("core: request [%d,+%d) straddles the server stripe %d", off, length, stripe))
	}
	sno := off / stripe
	cc := c.conns[int(sno)%len(c.conns)]
	serverOff := (sno/int64(len(c.conns)))*stripe + off%stripe
	if serverOff+int64(length) > cc.volSize {
		serverOff %= cc.volSize - int64(length)
	}
	return cc, serverOff
}

// VolumeSize returns the total client-visible volume size.
func (c *Client) VolumeSize() int64 {
	var tot int64
	for _, cc := range c.conns {
		tot += cc.volSize
	}
	return tot
}

// ReadAsync issues an asynchronous read of length bytes at off and
// returns the in-flight request.
func (c *Client) ReadAsync(p *sim.Proc, off int64, length int) *Request {
	return c.submit(p, v3srv.OpRead, off, length)
}

// WriteAsync issues an asynchronous write.
func (c *Client) WriteAsync(p *sim.Proc, off int64, length int) *Request {
	return c.submit(p, v3srv.OpWrite, off, length)
}

// Read performs a synchronous read.
func (c *Client) Read(p *sim.Proc, off int64, length int) *Request {
	r := c.ReadAsync(p, off, length)
	c.Wait(p, r)
	return r
}

// Write performs a synchronous write.
func (c *Client) Write(p *sim.Proc, off int64, length int) *Request {
	r := c.WriteAsync(p, off, length)
	c.Wait(p, r)
	return r
}

// submit runs the implementation-specific issue path.
func (c *Client) submit(p *sim.Proc, op v3srv.OpKind, off int64, length int) *Request {
	if length <= 0 {
		panic("core: non-positive I/O length")
	}
	cc, serverOff := c.route(off, length)
	r := &Request{
		Op: op, Offset: off, Length: length,
		done: sim.NewEvent(), cc: cc,
		pollMode: c.cfg.Impl == CDSA && c.cfg.Opts.BatchedInterrupts,
	}
	r.issued = p.Now()
	switch c.cfg.Impl {
	case KDSA:
		c.submitKDSA(p, cc, r, serverOff)
	case WDSA:
		c.submitWDSA(p, cc, r, serverOff)
	case CDSA:
		c.submitCDSA(p, cc, r, serverOff)
	}
	return r
}

// sendWire acquires a flow-control credit, registers the buffer, stages
// write data, and posts the 64-byte request — the DSA-common tail of
// every submit path.
func (c *Client) sendWire(p *sim.Proc, cc *clientConn, r *Request, serverOff int64) {
	cc.credits.Acquire(p)
	slot, err := cc.fc.TakeNow()
	if err != nil {
		panic("core: credit semaphore and bookkeeping out of sync: " + err.Error())
	}
	r.slot = slot
	r.mem = cc.prov.Register(p, r.Length)
	if r.Op == v3srv.OpWrite {
		// RDMA the payload into the server buffer slot; in-order delivery
		// guarantees it lands before the request message.
		cc.vic.RDMAWrite(p, r.Length, &v3srv.WireData{Tag: r}, false)
		c.writes.Inc()
		c.bytesWritten.Addn(int64(r.Length))
	} else {
		c.reads.Inc()
		c.bytesRead.Addn(int64(r.Length))
	}
	cc.outstanding++
	cc.lastSubmit = p.Now()
	cc.seq++
	r.seq = cc.seq
	r.serverOff = serverOff
	cc.inflight[r.seq] = r
	cc.tracker.Track(r.seq, time.Duration(p.Now()))
	cc.vic.Send(p, 64, &v3srv.WireReq{
		Op: r.Op, Offset: serverOff, Length: r.Length, PollMode: r.pollMode, Tag: r,
	})
}

// resend retransmits a request whose response timed out: write payloads
// are re-staged, then the 64-byte request goes out again. Reads and
// writes of whole blocks are idempotent, so a duplicate server execution
// is harmless; duplicate responses are dropped by the acked flag.
func (c *Client) resend(p *sim.Proc, cc *clientConn, r *Request) {
	c.cpus.Use(p, hw.CatDSA, c.cfg.CompleteCost)
	if r.Op == v3srv.OpWrite {
		cc.vic.RDMAWrite(p, r.Length, &v3srv.WireData{Tag: r}, false)
	}
	cc.vic.Send(p, 64, &v3srv.WireReq{
		Op: r.Op, Offset: r.serverOff, Length: r.Length, PollMode: r.pollMode, Tag: r,
	})
}

// returnCredit gives the flow-control credit (server buffer slot) back as
// soon as the response arrives — DSA-layer bookkeeping that must not wait
// for the application to observe the completion, or the credit window
// would deadlock against a blocked submitter.
func (c *Client) returnCredit(r *Request) {
	if r.creditBack {
		return
	}
	r.creditBack = true
	cc := r.cc
	if err := cc.fc.ReturnSlot(r.slot); err != nil {
		panic("core: " + err.Error())
	}
	cc.credits.Release(c.E)
	cc.outstanding--
	if c.cfg.Impl == KDSA && c.cfg.Opts.BatchedInterrupts &&
		!cc.intrEnabled && cc.outstanding <= c.cfg.IntrLow {
		cc.intrEnabled = true
	}
}

// finish performs client-side completion bookkeeping shared by all
// implementations: deregistration, credit return, and stats.
func (c *Client) finish(p *sim.Proc, r *Request) {
	if r.finished {
		return
	}
	r.finished = true
	r.cc.prov.Deregister(p, r.mem)
	c.returnCredit(r)
	if r.completedAt == 0 {
		r.completedAt = p.Now()
	}
	c.lat.AddDuration(time.Duration(r.completedAt - r.issued))
}

// onMessage handles arrivals from the server (event context).
func (c *Client) onMessage(cc *clientConn, m *vinic.Message) {
	switch payload := m.Payload.(type) {
	case *v3srv.WireData:
		// Read payload RDMA-placed into the application buffer; the
		// completion arrives separately.
	case *v3srv.WireResp:
		r := payload.Tag.(*Request)
		if r.acked {
			return // duplicate response after a retransmission
		}
		r.acked = true
		cc.tracker.Ack(r.seq)
		delete(cc.inflight, r.seq)
		r.serverTime = payload.ServerTime
		switch c.cfg.Impl {
		case KDSA:
			if cc.intrEnabled {
				c.directCompl.Inc()
				cc.isr.Raise(func(p *sim.Proc) { c.completeKDSA(p, r) })
			} else {
				c.parkedCompl.Inc()
				cc.pending = append(cc.pending, r)
			}
		case WDSA:
			cc.isr.Raise(func(p *sim.Proc) { c.completeWDSA(p, r) })
		case CDSA:
			if r.pollMode && !r.armed {
				// The RDMA write just set the completion flag in client
				// memory — zero host CPU. The credit returns now; the
				// application's poll path does the rest.
				r.completedAt = c.E.Now()
				c.returnCredit(r)
				r.done.Fire(c.E)
			} else {
				cc.isr.Raise(func(p *sim.Proc) { c.completeCDSAIntr(p, r) })
			}
		}
	default:
		panic("core: unexpected message payload")
	}
}

// Wait blocks until r completes, running the implementation's completion
// observation path.
func (c *Client) Wait(p *sim.Proc, r *Request) {
	switch c.cfg.Impl {
	case KDSA, WDSA:
		r.done.Wait(p)
	case CDSA:
		c.waitCDSA(p, r)
	}
}

// Stats.

// IOs returns completed (read, write) counts.
func (c *Client) IOs() (reads, writes int64) { return c.reads.Value(), c.writes.Value() }

// MeanLatency returns the mean completion latency.
func (c *Client) MeanLatency() time.Duration {
	return time.Duration(c.lat.Mean() * float64(time.Second))
}

// PercentileLatency returns the p-th percentile latency.
func (c *Client) PercentileLatency(pct float64) time.Duration {
	return time.Duration(c.lat.Percentile(pct) * float64(time.Second))
}

// CompletedIOs returns the number of latency samples recorded.
func (c *Client) CompletedIOs() int { return c.lat.N() }

// Bytes returns total (read, written) bytes.
func (c *Client) Bytes() (rd, wr int64) { return c.bytesRead.Value(), c.bytesWritten.Value() }

// Interrupts returns the host interrupt count (from the kernel model).
func (c *Client) Interrupts() int64 { return c.kern.Interrupts() }

// CompletionPaths returns how many completions were delivered by a
// per-response interrupt versus parked for synchronous or batched reaping
// (kDSA interrupt batching).
func (c *Client) CompletionPaths() (direct, parked int64) {
	return c.directCompl.Value(), c.parkedCompl.Value()
}

// Retransmits returns how many requests were retransmitted after a
// timeout.
func (c *Client) Retransmits() int64 { return c.retransmits.Value() }

// DeregOps sums NIC deregistration operations across connections.
func (c *Client) DeregOps() int64 {
	var n int64
	for _, cc := range c.conns {
		n += cc.prov.DeregOps()
	}
	return n
}
