package netv3

import (
	"cmp"
	"slices"

	"github.com/v3storage/v3/internal/wire"
)

// clientCore is every decision the client makes about a request's life,
// and the only place they are made: the request table, request ids and
// stream numbers, the connection generation and the recovery phase, replay
// order, claim and restore, bounded-wait deadlines, the server's boot
// nonce, and the client's id and incarnation at the server's fence. It
// holds no lock, goroutine, clock, timer or socket — this file may import
// none of them (TestCoreIsSocketFree). Client is its shell: it calls one
// transition under Client.mu and then does the I/O the transition asks for
// — complete these handles, send these frames, dial, arm the expiry timer
// at an instant — in the sans-I/O shape (https://sans-io.readthedocs.io/).
// Because a transition is plain code on plain data, a test-only explorer
// (explore_test.go) drives two cores, the server's fence and a model server
// through every interleaving up to a bound.
//
// The transitions: submit, claim, restore, cancel, expire and sweep,
// broken, redial and connected, shutdown, and closeStream.
type clientCore struct {
	// id names the client at the server's fence, drawn at Dial; inc is the
	// incarnation of the latest dial (see fence.go).
	id, inc uint64
	// boot is the server incarnation the first handshake met: the high half
	// of ConnectResp.SessionID. A reconnect that meets another one has
	// reached a different process and ends the client (see connected).
	boot uint32

	gen   int   // connection generation; bumps on every connection installed
	phase uint8 // phaseUp, phaseRecovering or phaseClosed

	// pending holds every request submitted and not yet claimed, canceled,
	// expired or failed. Whoever takes a request out owns it — its buffers
	// and its completion — so no two paths can both complete it.
	pending map[uint64]*Pending
	// nextReq numbers requests: a request's ReqID, echoed by its Resp, is
	// nextReq with its top idShift bits dropped — 64 bits wide, so it never
	// repeats within a client's life. idShift is nonzero only in the
	// explorer, which narrows the ids to reproduce a wrap.
	nextReq    uint64
	idShift    uint8
	nextStream uint32 // the stream number OpenStream last handed out
	// armedFor is the instant the shell's expiry timer is set to fire at,
	// 0 while it is not armed.
	armedFor int64
}

// The core's phases. A core starts recovering: its first dial is Dial's.
// Its zero value is ready but for the table, which the caller makes.
const (
	phaseRecovering = iota // no live connection; one recovery dials
	phaseUp                // connection generation gen is live
	phaseClosed            // Close, or recovery ended: nothing more is sent
)

// submit numbers p, builds its request frame — op on volume vol at off,
// the length of p.buf (a read) or p.body (a write), issued on stream — and
// enters it in the table. The shell then sends p.msg on the current
// connection; whatever becomes of that send, replay or a failure completes
// the request.
func (c *clientCore) submit(p *Pending, op int, stream, vol uint32, off int64) error {
	if c.phase == phaseClosed {
		return ErrClosed
	}
	c.nextReq++
	p.id = c.nextReq << c.idShift >> c.idShift
	switch hdr := (wire.Header{Stream: stream}); op {
	case opWrite:
		p.wr = wire.Write{Header: hdr, ReqID: p.id, Volume: vol, Offset: uint64(off), Length: uint32(len(p.body))}
		p.msg = &p.wr
	case opRead:
		p.rd = wire.Read{Header: hdr, ReqID: p.id, Volume: vol, Offset: uint64(off), Length: uint32(len(p.buf))}
		p.msg = &p.rd
	case opFlush:
		p.fl = wire.Flush{Header: hdr, ReqID: p.id, Volume: vol}
		p.msg = &p.fl
	}
	c.pending[p.id] = p
	return nil
}

// claim takes the request that a response arriving on connection
// generation gen answers out of the table; the caller owns it, and its
// buffer, from here. Nil when no pending request owns the response: it was
// canceled, expired or failed, or the response came on a connection the
// client has since replaced — its request was replayed, and the replay's
// response answers it.
func (c *clientCore) claim(id uint64, gen int) *Pending {
	if gen != c.gen {
		return nil
	}
	p := c.pending[id]
	delete(c.pending, id)
	return p
}

// restore gives back p, claimed on connection generation gen whose stream
// died in p's payload, so that it is replayed. The reader is not always
// the first to notice a dead connection: a writer's failure may already
// have driven recovery to completion while the reader sat in the payload,
// and that replay ran without p. So if the generation has moved on and no
// recovery is running, resend asks the shell to send p on the current
// connection. On a closed client ok is false: the shell fails p. arm is
// the instant to arm the expiry timer at (0: leave it) — a deadline that
// was registered while p was claimed is honoured now.
func (c *clientCore) restore(p *Pending, gen int) (resend, ok bool, arm int64) {
	if c.phase == phaseClosed {
		return false, false, 0
	}
	c.pending[p.id] = p
	return gen != c.gen && c.phase == phaseUp, true, c.arm(p.expiry)
}

// cancel detaches p, if it is still in the table, and drops its buffers;
// true obliges the caller to complete it. Against a response, whichever of
// claim and cancel takes p out first owns it.
func (c *clientCore) cancel(p *Pending) bool {
	if c.pending[p.id] != p {
		return false
	}
	delete(c.pending, p.id)
	p.buf, p.body, p.msg = nil, nil, nil
	return true
}

// expire registers a bounded waiter's deadline on p — at, an obs.Now()
// instant; the earliest registered stands — and returns the instant to
// arm the expiry timer at, or 0 when it already fires by then or p is not
// in the table (completed, or claimed: restore arms for it).
func (c *clientCore) expire(p *Pending, at int64) int64 {
	if p.expiry == 0 || at < p.expiry {
		p.expiry = at
	}
	if c.pending[p.id] != p {
		return 0
	}
	return c.arm(p.expiry)
}

// arm records that the expiry timer must fire by at (0: no deadline), and
// returns at when that means setting it, 0 when it is already set to fire
// no later.
func (c *clientCore) arm(at int64) int64 {
	if at == 0 || c.armedFor != 0 && c.armedFor <= at {
		return 0
	}
	c.armedFor = at
	return at
}

// sweep is the expiry timer firing at now: every request whose deadline
// has passed is canceled — so a completion the reader has already claimed
// wins and keeps its real status — and returned, to complete with
// ErrWaitTimeout, with the instant to re-arm the timer at for the earliest
// deadline left (0: none). The table holds at most a window of requests.
func (c *clientCore) sweep(now int64) (expired []*Pending, arm int64) {
	c.armedFor = 0
	var next int64
	for _, p := range c.pending {
		switch {
		case p.expiry == 0:
		case p.expiry <= now:
			c.cancel(p)
			expired = append(expired, p)
		case next == 0 || p.expiry < next:
			next = p.expiry
		}
	}
	return expired, c.arm(next)
}

// broken reports connection generation gen dead, by its reader or its
// writer. True makes the caller the recovery (single-flight): the first
// report of the live generation. The other half's report of the same
// death, and any report from a generation already replaced — which must
// not tear down its successor — are false. Pending requests stay in the
// table for replay.
func (c *clientCore) broken(gen int) bool {
	if gen != c.gen || c.phase != phaseUp {
		return false
	}
	c.phase = phaseRecovering
	return true
}

// current reports whether connection generation gen is the live one.
func (c *clientCore) current(gen int) bool { return gen == c.gen && c.phase == phaseUp }

// redial starts a dial attempt: the incarnation its Connect carries. A
// recovery's attempt after a failed one is a redial too; exhausted says
// the failures have spent the budget, which closes the client and returns
// every pending request as lost. ok is false then, and on a client closed
// meanwhile: the recovery ends.
func (c *clientCore) redial(exhausted bool) (inc uint64, lost []*Pending, ok bool) {
	if exhausted || c.phase == phaseClosed {
		lost, _ = c.shutdown()
		return 0, lost, false
	}
	c.inc++
	return c.inc, nil, true
}

// connected is a dial whose handshake answered with session id sid, the
// high half of which is the server's boot nonce. On the server the client
// began with, the connection becomes the live
// generation and every pending request is returned, in submission order,
// for the shell to replay on it — in the same hold of Client.mu, so that
// restore's "moved on and not recovering" means the replay has run. A new
// server process has lost the volatile state every earlier ack relied on —
// write-behind blocks it acknowledged and never destaged — so replaying
// onto it would let a later Flush report durable what is gone: the client
// closes, and every pending request is returned as lost. ok is false then,
// and on a client closed meanwhile; the shell drops the connection.
func (c *clientCore) connected(sid uint64) (replay, lost []*Pending, ok bool) {
	boot := uint32(sid >> 32)
	if c.phase == phaseClosed {
		return nil, nil, false
	}
	if c.gen > 0 && boot != c.boot {
		lost, _ = c.shutdown()
		return nil, lost, false
	}
	c.boot, c.gen, c.phase = boot, c.gen+1, phaseUp
	for _, p := range c.pending {
		replay = append(replay, p)
	}
	slices.SortFunc(replay, func(a, b *Pending) int { return cmp.Compare(a.id, b.id) })
	return replay, nil, true
}

// shutdown closes the client for good: the table is emptied and returned,
// for the shell to fail, and the expiry timer is to be stopped. False when
// it was already closed.
func (c *clientCore) shutdown() ([]*Pending, bool) {
	if c.phase == phaseClosed {
		return nil, false
	}
	c.phase, c.armedFor = phaseClosed, 0
	failed := make([]*Pending, 0, len(c.pending))
	for _, p := range c.pending {
		failed = append(failed, p)
	}
	clear(c.pending)
	return failed, true
}

// closeStream detaches every pending request of st, as cancel does, and
// returns them to be completed with ErrStreamClosed.
func (c *clientCore) closeStream(st *Stream) (detached []*Pending) {
	for _, p := range c.pending {
		if p.st == st && c.cancel(p) {
			detached = append(detached, p)
		}
	}
	return detached
}

// openStream hands out the next stream number: 1..2³¹-1, since 0 is the
// root and the top bit the class.
func (c *clientCore) openStream() uint32 {
	c.nextStream = c.nextStream%(wire.StreamBackground-1) + 1
	return c.nextStream
}
