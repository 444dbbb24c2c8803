package netv3

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/wire"
)

// The explorer checks the client's protocol exhaustively up to a bound, in
// the small-scope style: most protocol bugs show in small configurations,
// so every interleaving of a small one is searched rather than a sample of
// large ones. It drives real clientCores — the shell's part it plays
// itself — and the server's real fence against a model server: a flat
// array of blocks (volatile, and durable as of the last flush), sessions
// that apply a connection's frames in order, and a network that can break
// a connection, deliver a dead connection's buffered frames late in either
// direction, and restart the server.
//
// The event alphabet:
//
//	submit c<i> <op> b<j>   client i submits a read, write or flush on block j
//	                        (each write carries a value no other write does)
//	srv<-k                  the server session of connection k applies its next frame
//	c<i><-k                 client i's reader takes the next response on connection k
//	hold c<i><-k            ... and stalls in its payload, the request claimed
//	payload c<i> ok|dies    the stalled payload arrives, or the link dies under it
//	break c<i>              client i's live connection breaks
//	dial c<i>               client i's recovery dials, the fence admits it, replay
//	restart                 the server restarts: volatile state and sessions are lost
//	deadline h<n>           handle n's bounded wait expires (the core's sweep)
//
// Each state is checked against the reference model of ROADMAP item 1 — a
// flat byte array plus the acked-but-unflushed writes:
//
//   - an acked write is readable: a read returns a write to its block that
//     is not older than one acked before the read was submitted;
//   - a flushed write survives a restart: the durable array is never older
//     than a write acked before an acked flush was submitted;
//   - no response completes the wrong request;
//   - no handle completes twice, and once the events run out every handle
//     has completed: each new state is drained — every frame delivered,
//     every recovery dialed, no new fault — and then checked.
//
// States are deduplicated by a hash of everything that decides the future
// (times reduced to their order), and searched breadth-first, so a
// counterexample is a shortest one.

// bounds sizes a search.
type bounds struct {
	clients, blocks int
	ops, writes     int // submits and writes per client
	deadlines       int // expiring bounded waits
	holds           int // stalled payloads
	restarts        int
	faults          int // breaks, restarts, deadlines and holds in all
	depth           int
}

// tier1 is the bound Tier-1 explores on every run.
var tier1 = bounds{clients: 2, blocks: 1, ops: 2, writes: 2, deadlines: 1, holds: 1, restarts: 1, faults: 2, depth: 10}

const (
	evSubmit = iota
	evApply
	evReceive
	evHold
	evPayloadOK
	evPayloadDies
	evBreak
	evDial
	evRestart
	evDeadline
)

// xevent is one event; a, b and c are its client, connection, op, block
// or handle, by kind.
type xevent struct{ kind, a, b, c uint8 }

var opNames = [...]string{opRead: "read", opWrite: "write", opFlush: "flush"}

func (e xevent) String() string {
	switch e.kind {
	case evSubmit:
		return fmt.Sprintf("submit c%d %s b%d", e.a, opNames[e.b], e.c)
	case evApply:
		return fmt.Sprintf("srv<-%d", e.a)
	case evReceive:
		return fmt.Sprintf("c%d<-%d", e.b, e.a)
	case evHold:
		return fmt.Sprintf("hold c%d<-%d", e.b, e.a)
	case evPayloadOK:
		return fmt.Sprintf("payload c%d ok", e.a)
	case evPayloadDies:
		return fmt.Sprintf("payload c%d dies", e.a)
	case evBreak:
		return fmt.Sprintf("break c%d", e.a)
	case evDial:
		return fmt.Sprintf("dial c%d", e.a)
	case evRestart:
		return "restart"
	}
	return fmt.Sprintf("deadline h%d", e.a)
}

// parseEvents reads an event list as formatEvents writes it.
func parseEvents(s string) ([]xevent, error) {
	var evs []xevent
	for _, f := range strings.Split(s, "; ") {
		var e xevent
		var op string
		var err error
		switch {
		case f == "restart":
			e.kind = evRestart
		case strings.HasPrefix(f, "submit"):
			e.kind = evSubmit
			_, err = fmt.Sscanf(f, "submit c%d %s b%d", &e.a, &op, &e.c)
			e.b = uint8(slices.Index(opNames[:], op))
		case strings.HasPrefix(f, "srv<-"):
			e.kind = evApply
			_, err = fmt.Sscanf(f, "srv<-%d", &e.a)
		case strings.HasPrefix(f, "hold"):
			e.kind = evHold
			_, err = fmt.Sscanf(f, "hold c%d<-%d", &e.b, &e.a)
		case strings.HasPrefix(f, "payload"):
			e.kind = evPayloadOK
			if _, err = fmt.Sscanf(f, "payload c%d %s", &e.a, &op); op == "dies" {
				e.kind = evPayloadDies
			}
		case strings.HasPrefix(f, "break"):
			e.kind = evBreak
			_, err = fmt.Sscanf(f, "break c%d", &e.a)
		case strings.HasPrefix(f, "dial"):
			e.kind = evDial
			_, err = fmt.Sscanf(f, "dial c%d", &e.a)
		case strings.HasPrefix(f, "deadline"):
			e.kind = evDeadline
			_, err = fmt.Sscanf(f, "deadline h%d", &e.a)
		default:
			e.kind = evReceive
			_, err = fmt.Sscanf(f, "c%d<-%d", &e.b, &e.a)
		}
		if err != nil || e.String() != f {
			return nil, fmt.Errorf("event %q does not parse (%v)", f, err)
		}
		evs = append(evs, e)
	}
	return evs, nil
}

func formatEvents(evs []xevent) string {
	s := make([]string, len(evs))
	for i, e := range evs {
		s[i] = e.String()
	}
	return strings.Join(s, "; ")
}

// xframe is a request frame on a connection, xresp a response: the wire's
// request id plus, for the checker only, the handle that sent it.
type xframe struct {
	id uint64
	h  int
}

type xresp struct {
	id  uint64
	h   int
	val uint8 // a read's data
}

type xconn struct {
	client, gen, sess int
	boot              uint32 // the server boot it reached
	up                bool
	c2s               []xframe
	s2c               []xresp
}

type xsess struct {
	client, conn int
	alive        bool // admitted and not yet ended or quiesced
}

type xclient struct {
	core                    clientCore
	conn                    int // the latest connection, -1 before the first
	ops, writes             int
	held, heldConn, heldGen int // the stalled payload's handle (-1 none), its connection and generation
	heldVal                 uint8
}

type xhandle struct {
	p             *Pending
	client, op    int
	block         int
	val           uint8  // a write's value, or what a read returned
	submit, acked int    // event times; acked -1 until the request completes ok
	boot          uint32 // the server boot that acked it
	done          int    // completions
}

type world struct {
	b                                  bounds
	cl                                 []xclient
	conns                              []xconn
	sess                               []xsess
	fence                              fence[int]
	boot                               uint32
	volatile                           []uint8
	durable                            []uint8
	restarts, deadlines, holds, faults int
	h                                  []xhandle
	now                                int
	viol                               string
	xopts
	sc *xscratch // key's buffers, shared by every world of one search
}

type xscratch struct {
	times []int
	ids   []uint64
	b     []byte
}

// xopts varies the system under search, for the reproductions of old bugs.
type xopts struct {
	// noFence makes the model server ignore what the fence hands it to
	// quiesce: the server before the fence.
	noFence bool
	// idShift narrows every core's request ids (see clientCore.idShift).
	idShift uint8
}

func newWorld(b bounds, o xopts) *world {
	w := &world{b: b, boot: 1, volatile: make([]uint8, b.blocks), durable: make([]uint8, b.blocks), xopts: o, sc: &xscratch{}}
	for i := 0; i < b.clients; i++ {
		core := clientCore{id: uint64(i + 1), pending: map[uint64]*Pending{}, idShift: o.idShift}
		w.cl = append(w.cl, xclient{core: core, conn: -1, held: -1})
		w.dial(i)
	}
	return w
}

// handle is p's index in w.h.
func (w *world) handle(p *Pending) int {
	for n := range w.h {
		if w.h[n].p == p {
			return n
		}
	}
	return -1
}

func (w *world) fail(format string, args ...any) {
	if w.viol == "" {
		w.viol = fmt.Sprintf(format, args...)
	}
}

// enabled lists the events possible in w, in a fixed order.
func (w *world) enabled() []xevent {
	var evs []xevent
	for i := range w.cl {
		c := &w.cl[i]
		if c.held >= 0 {
			evs = append(evs, xevent{kind: evPayloadOK, a: uint8(i)}, xevent{kind: evPayloadDies, a: uint8(i)})
		}
		if c.core.phase == phaseClosed {
			continue
		}
		if c.ops < w.b.ops {
			for op := opRead; op <= opFlush; op++ {
				if op == opWrite && c.writes >= w.b.writes {
					continue
				}
				for blk := 0; blk < w.b.blocks; blk++ {
					evs = append(evs, xevent{kind: evSubmit, a: uint8(i), b: uint8(op), c: uint8(blk)})
					if op == opFlush {
						break
					}
				}
			}
		}
		if c.core.phase == phaseUp && w.faults < w.b.faults {
			evs = append(evs, xevent{kind: evBreak, a: uint8(i)})
		}
		if c.core.phase == phaseRecovering {
			evs = append(evs, xevent{kind: evDial, a: uint8(i)})
		}
	}
	for k := range w.conns {
		cn := &w.conns[k]
		if len(cn.c2s) > 0 && w.sess[cn.sess].alive {
			evs = append(evs, xevent{kind: evApply, a: uint8(k)})
		}
		if len(cn.s2c) > 0 && w.cl[cn.client].held < 0 {
			evs = append(evs, xevent{kind: evReceive, a: uint8(k), b: uint8(cn.client)})
			if w.holds < w.b.holds && w.faults < w.b.faults {
				evs = append(evs, xevent{kind: evHold, a: uint8(k), b: uint8(cn.client)})
			}
		}
	}
	if w.restarts < w.b.restarts && w.faults < w.b.faults {
		evs = append(evs, xevent{kind: evRestart})
	}
	for n := range w.h {
		h := &w.h[n]
		if h.done == 0 && w.deadlines < w.b.deadlines && w.faults < w.b.faults && w.cl[h.client].core.phase != phaseClosed {
			evs = append(evs, xevent{kind: evDeadline, a: uint8(n)})
		}
	}
	return evs
}

// apply performs e, which must be enabled, as the client shell, the
// network and the model server would.
func (w *world) apply(e xevent) {
	w.now++
	a := int(e.a)
	switch e.kind {
	case evSubmit:
		w.submit(a, int(e.b), int(e.c))
	case evApply:
		w.serve(a)
	case evReceive, evHold:
		cn := &w.conns[a]
		r := cn.s2c[0]
		cn.s2c = cn.s2c[1:]
		c := &w.cl[cn.client]
		p := c.core.claim(r.id, cn.gen)
		if p == nil {
			return
		}
		if n := w.handle(p); n != r.h {
			w.fail("the response to h%d completed h%d", r.h, n)
		}
		if e.kind == evHold {
			w.holds++
			w.faults++
			c.held, c.heldConn, c.heldGen, c.heldVal = w.handle(p), a, cn.gen, r.val
			return
		}
		w.complete(w.handle(p), a, r.val)
	case evPayloadOK:
		c := &w.cl[a]
		n := c.held
		c.held = -1
		w.complete(n, c.heldConn, c.heldVal)
	case evPayloadDies:
		c := &w.cl[a]
		n, gen := c.held, c.heldGen
		c.held = -1
		resend, ok, _ := c.core.restore(w.h[n].p, gen)
		switch {
		case !ok:
			w.complete(n, -1, 0)
		case resend:
			w.send(a, w.h[n].p)
		}
		w.down(c.heldConn)
		w.broken(a, gen)
	case evBreak:
		w.faults++
		c := &w.cl[a]
		w.down(c.conn)
		w.broken(a, c.core.gen)
	case evDial:
		w.dial(a)
	case evRestart:
		w.restarts++
		w.faults++
		w.boot++
		copy(w.volatile, w.durable)
		w.fence = fence[int]{}
		for s := range w.sess {
			w.sess[s].alive = false
			w.conns[w.sess[s].conn].c2s = nil
		}
		for i := range w.cl {
			if c := &w.cl[i]; c.conn >= 0 && w.conns[c.conn].up {
				w.conns[c.conn].up = false
				w.broken(i, c.core.gen)
			}
		}
	case evDeadline:
		h := &w.h[a]
		c := &w.cl[h.client]
		w.deadlines++
		w.faults++
		c.core.expire(h.p, int64(w.now))
		expired, _ := c.core.sweep(int64(w.now))
		for _, p := range expired {
			w.complete(w.handle(p), -1, 0)
		}
	}
	w.checkState()
}

func (w *world) submit(i, op, blk int) {
	c := &w.cl[i]
	p := &Pending{}
	h := xhandle{p: p, client: i, op: op, block: blk, submit: w.now, acked: -1}
	switch op {
	case opRead:
		p.buf = make([]byte, 1)
	case opWrite:
		h.val = uint8(1 + i*w.b.writes + c.writes)
		p.body = []byte{h.val}
		c.writes++
	}
	c.ops++
	if c.core.submit(p, op, 0, 1, int64(blk)) != nil {
		return
	}
	w.h = append(w.h, h)
	w.send(i, p)
}

// send is the shell's post to the live connection's writer; a dead
// connection's writer refuses, and replay sends the request instead.
func (w *world) send(i int, p *Pending) {
	if c := &w.cl[i]; c.core.current(c.core.gen) {
		w.conns[c.conn].c2s = append(w.conns[c.conn].c2s, xframe{id: p.id, h: w.handle(p)})
	}
}

// broken is the shell's linkDown for client i's generation gen.
func (w *world) broken(i, gen int) { w.cl[i].core.broken(gen) }

// down breaks connection k: nothing more is sent on it, and its session
// ends once it has applied what the connection delivered.
func (w *world) down(k int) {
	w.conns[k].up = false
	w.endIfDrained(k)
}

func (w *world) endIfDrained(k int) {
	cn := &w.conns[k]
	if s := &w.sess[cn.sess]; !cn.up && len(cn.c2s) == 0 && s.alive {
		s.alive = false
		w.fence.leave(uint64(cn.client+1), cn.sess)
	}
}

// dial is a recovery's (or Dial's) attempt: the Connect reaches the
// server, the fence admits it — quiescing every older session of the
// client, which drops the frames it has not applied — and the handshake
// answers with the server's boot nonce.
func (w *world) dial(i int) {
	c := &w.cl[i]
	inc, lost, ok := c.core.redial(false)
	if !ok {
		w.completeAll(lost)
		return
	}
	s := len(w.sess)
	stale, ok := w.fence.admit(uint64(i+1), inc, s)
	if !ok {
		return // refused: the attempt fails and the recovery dials again
	}
	for _, o := range stale {
		if !w.noFence {
			w.sess[o].alive = false
			w.conns[w.sess[o].conn].c2s = nil
			w.fence.leave(uint64(i+1), o)
		}
	}
	k := len(w.conns)
	w.sess = append(w.sess, xsess{client: i, conn: k, alive: true})
	w.conns = append(w.conns, xconn{client: i, sess: s, boot: w.boot, up: true})
	replay, lost, ok := c.core.connected(uint64(w.boot) << 32)
	if !ok {
		w.completeAll(lost)
		w.down(k)
		return
	}
	c.conn = k
	w.conns[k].gen = c.core.gen
	for _, p := range replay {
		w.send(i, p)
	}
}

// serve is the model server applying connection k's next frame.
func (w *world) serve(k int) {
	cn := &w.conns[k]
	f := cn.c2s[0]
	cn.c2s = cn.c2s[1:]
	h := &w.h[f.h]
	r := xresp{id: f.id, h: f.h}
	switch h.op {
	case opWrite:
		w.volatile[h.block] = h.val
	case opRead:
		r.val = w.volatile[h.block]
	case opFlush:
		copy(w.durable, w.volatile)
	}
	cn.s2c = append(cn.s2c, r)
	w.endIfDrained(k)
}

func (w *world) completeAll(ps []*Pending) {
	for _, p := range ps {
		w.complete(w.handle(p), -1, 0)
	}
}

// complete is the shell's finish: a successful response on connection k
// (carrying val for a read), or a failure (k -1).
func (w *world) complete(n, k int, val uint8) {
	h := &w.h[n]
	if h.done++; h.done > 1 {
		w.fail("h%d completed twice", n)
		return
	}
	if k < 0 {
		return
	}
	h.acked, h.boot = w.now, w.conns[k].boot
	if h.op == opRead {
		h.val = val
		if v := w.writeOf(val); v == -1 || (v >= 0 && w.h[v].block != h.block) {
			w.fail("h%d read %d, which no write to block %d wrote", n, val, h.block)
		} else if o := w.overwrote(v, h.block, h.submit, 0); o >= 0 {
			w.fail("h%d read %s, but h%d overwrote it and was acked before the read was submitted", n, w.name(v), o)
		}
	}
}

// writeOf is the handle of the write that wrote val, or -2 for the
// initial zero (never written), or -1 for none.
func (w *world) writeOf(val uint8) int {
	if val == 0 {
		return -2
	}
	for n := range w.h {
		if w.h[n].op == opWrite && w.h[n].val == val {
			return n
		}
	}
	return -1
}

func (w *world) name(v int) string {
	if v == -2 {
		return "the initial zero"
	}
	return fmt.Sprintf("h%d's value", v)
}

// overwrote is a write to blk, acked before time before (by server boot
// boot, unless it is 0), that was submitted after write v (or the initial
// zero, v -2) had been acked; -1 if none. An unacked write may have landed
// any time after its submission.
func (w *world) overwrote(v, blk, before int, boot uint32) int {
	vAck := 0
	if v >= 0 {
		if vAck = w.h[v].acked; vAck < 0 {
			return -1
		}
	}
	for n := range w.h {
		o := &w.h[n]
		if o.op == opWrite && o.block == blk && n != v && o.acked >= 0 && o.acked < before && vAck < o.submit && (boot == 0 || o.boot == boot) {
			return n
		}
	}
	return -1
}

// checkState: the volatile array — what a read would return now — is
// never older than an acked write, and the durable array never older than
// a write acked before an acked flush was submitted.
func (w *world) checkState() {
	for blk, val := range w.volatile {
		if o := w.overwrote(w.writeOf(val), blk, w.now+1, w.boot); o >= 0 {
			w.fail("block %d holds %s, older than h%d, which this server acked", blk, w.name(w.writeOf(val)), o)
		}
	}
	for _, f := range w.h {
		if f.op != opFlush || f.acked < 0 {
			continue
		}
		for blk, val := range w.durable {
			if o := w.overwrote(w.writeOf(val), blk, f.submit, 0); o >= 0 {
				w.fail("block %d's durable copy is %s, older than h%d, which was acked before an acked flush", blk, w.name(w.writeOf(val)), o)
			}
		}
	}
}

// drain runs w to quiescence with no new fault or submission and reports
// the events it ran; a handle left incomplete is a violation.
func (w *world) drain() []xevent {
	var ran []xevent
	for w.viol == "" {
		e, ok := w.progress()
		if !ok {
			break
		}
		ran = append(ran, e)
		w.apply(e)
	}
	for n := range w.h {
		if w.viol == "" && w.h[n].done != 1 {
			w.fail("h%d never completed", n)
		}
	}
	return ran
}

// progress is the first enabled event that is neither a fault nor a
// submission, if any.
func (w *world) progress() (xevent, bool) {
	for i := range w.cl {
		switch c := &w.cl[i]; {
		case c.held >= 0:
			return xevent{kind: evPayloadOK, a: uint8(i)}, true
		case c.core.phase == phaseRecovering:
			return xevent{kind: evDial, a: uint8(i)}, true
		}
	}
	for k := range w.conns {
		switch cn := &w.conns[k]; {
		case len(cn.c2s) > 0 && w.sess[cn.sess].alive:
			return xevent{kind: evApply, a: uint8(k)}, true
		case len(cn.s2c) > 0 && w.cl[cn.client].held < 0:
			return xevent{kind: evReceive, a: uint8(k), b: uint8(cn.client)}, true
		}
	}
	return xevent{}, false
}

// key hashes what decides w's future. Event times enter only where the
// checker can still compare them — an acked write's submission and ack, a
// pending request's submission, an acked flush's submission — and only
// through their order.
func (w *world) key() uint64 {
	live := func(h *xhandle) (submit, acked bool) {
		switch {
		case h.done == 0:
			return true, false
		case h.acked < 0:
			return false, false
		case h.op == opWrite:
			return true, true
		}
		return h.op == opFlush, false
	}
	times := append(w.sc.times[:0], -1, 0)
	for n := range w.h {
		if s, a := live(&w.h[n]); s {
			times = append(times, w.h[n].submit)
			if a {
				times = append(times, w.h[n].acked)
			}
		}
	}
	slices.Sort(times)
	times = slices.Compact(times)
	w.sc.times = times
	rank := func(t int) uint64 { i, _ := slices.BinarySearch(times, t); return uint64(i) }
	b := w.sc.b[:0]
	put := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
	}
	b2 := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for _, c := range w.cl {
		k := &c.core
		put(uint64(k.gen), uint64(k.phase), k.inc, k.nextReq, uint64(k.boot), b2(k.armedFor != 0), uint64(c.conn+1),
			uint64(c.ops), uint64(c.writes), uint64(c.held+1), uint64(c.heldConn), uint64(c.heldGen), uint64(c.heldVal))
		ids := w.sc.ids[:0]
		for id := range k.pending {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			put(id, uint64(w.handle(k.pending[id])))
		}
		w.sc.ids = ids
		put(1 << 62)
	}
	for _, cn := range w.conns {
		put(uint64(cn.gen), b2(cn.up), b2(w.sess[cn.sess].alive), uint64(len(cn.c2s)), uint64(len(cn.s2c)))
		for _, f := range cn.c2s {
			put(f.id, uint64(f.h))
		}
		for _, r := range cn.s2c {
			put(r.id, uint64(r.h), uint64(r.val))
		}
	}
	for i := range w.cl {
		e := w.fence.clients[uint64(i+1)]
		put(e.top, uint64(len(e.live)))
		for _, s := range e.live {
			put(uint64(s))
		}
	}
	put(uint64(w.boot), uint64(w.restarts), uint64(w.deadlines), uint64(w.holds), uint64(w.faults))
	for blk := range w.volatile {
		put(uint64(w.volatile[blk]), uint64(w.durable[blk]))
	}
	for n := range w.h {
		h := &w.h[n]
		s, a := live(h)
		put(uint64(h.done), b2(h.acked >= 0), uint64(h.val), b2(h.p.expiry != 0))
		if s {
			put(rank(h.submit))
		}
		if a {
			put(rank(h.acked), uint64(h.boot))
		}
	}
	w.sc.b = b
	f := fnv.New64a()
	f.Write(b)
	return f.Sum64()
}

// clone is a deep copy of w, Pendings included.
func (w *world) clone() *world {
	n := *w
	n.cl, n.sess, n.h = slices.Clone(w.cl), slices.Clone(w.sess), slices.Clone(w.h)
	n.volatile, n.durable = slices.Clone(w.volatile), slices.Clone(w.durable)
	n.conns = slices.Clone(w.conns)
	for k := range n.conns {
		n.conns[k].c2s, n.conns[k].s2c = slices.Clone(w.conns[k].c2s), slices.Clone(w.conns[k].s2c)
	}
	n.fence.clients = maps.Clone(w.fence.clients)
	for id, e := range n.fence.clients {
		e.live = slices.Clone(e.live)
		n.fence.clients[id] = e
	}
	for i := range n.h {
		p := w.h[i].p
		np := &Pending{id: p.id, buf: p.buf, body: p.body, expiry: p.expiry, rd: p.rd, wr: p.wr, fl: p.fl}
		switch p.msg.(type) {
		case *wire.Read:
			np.msg = &np.rd
		case *wire.Write:
			np.msg = &np.wr
		case *wire.Flush:
			np.msg = &np.fl
		}
		n.h[i].p = np
	}
	for i := range n.cl {
		k := &n.cl[i].core
		k.pending = make(map[uint64]*Pending, len(w.cl[i].core.pending))
		for id, p := range w.cl[i].core.pending {
			k.pending[id] = n.h[w.handle(p)].p
		}
	}
	return &n
}

// replay builds the world of events evs, stopping at the first violation.
func replay(b bounds, o xopts, evs []xevent) *world {
	w := newWorld(b, o)
	for _, e := range evs {
		if w.viol != "" {
			break
		}
		w.apply(e)
	}
	return w
}

// explore searches every interleaving of b breadth-first. It returns the
// number of distinct states and, on a violation, the shortest event list
// that reaches it (drain events included) and what it broke.
func explore(b bounds, o xopts) (states int, cex []xevent, viol string) {
	seen := map[uint64]struct{}{replay(b, o, nil).key(): {}}
	frontier := [][]xevent{nil}
	for depth := 0; depth < b.depth && len(frontier) > 0; depth++ {
		var next [][]xevent
		for _, seq := range frontier {
			parent := replay(b, o, seq)
			for _, e := range parent.enabled() {
				evs := append(slices.Clip(seq), e)
				w := parent.clone()
				if w.apply(e); w.viol != "" {
					return len(seen), evs, w.viol
				}
				k := w.key()
				if _, ok := seen[k]; ok {
					continue
				}
				seen[k] = struct{}{}
				if ran := w.drain(); w.viol != "" {
					return len(seen), append(evs, ran...), w.viol
				}
				if depth+1 < b.depth {
					next = append(next, evs)
				}
			}
		}
		frontier = next
	}
	return len(seen), nil, ""
}

// TestExploreClientProtocol is the exhaustive check at Tier-1's bound:
// two clients, one block, two submits each, a restart, a deadline and a
// stalled payload per client, every interleaving ten events deep.
func TestExploreClientProtocol(t *testing.T) {
	start := time.Now()
	states, cex, viol := explore(tier1, xopts{})
	if viol != "" {
		t.Fatalf("%s\ncounterexample: %s", viol, formatEvents(cex))
	}
	t.Logf("%d states to depth %d in %v", states, tier1.depth, time.Since(start))
}

// staleSession is the explorer's counterexample against the server before
// the fence (ROADMAP item 1a), verbatim: client 1's write reaches its old
// session, the link breaks and the replay lands on the new one and is
// acked, client 0 overwrites the block and is acked — and then the old
// session applies its stale copy of the first write.
const staleSession = "submit c1 write b0; break c1; dial c1; srv<-2; c1<-2; submit c0 write b0; srv<-0; c0<-0; srv<-1"

// TestExploreReplaysStaleSession replays that counterexample: the server
// without the fence breaks the contract on its last event, and with the
// fence the old session's frame can no longer be applied — the event is
// not even enabled — and everything completes.
func TestExploreReplaysStaleSession(t *testing.T) {
	evs, err := parseEvents(staleSession)
	if err != nil {
		t.Fatal(err)
	}
	if got := formatEvents(evs); got != staleSession {
		t.Fatalf("the case does not round-trip: %q", got)
	}
	if w := replay(tier1, xopts{noFence: true}, evs); w.viol == "" {
		t.Fatal("without the fence the stale write went unnoticed")
	}
	w := replay(tier1, xopts{}, evs[:len(evs)-1])
	if w.viol != "" {
		t.Fatalf("with the fence: %s", w.viol)
	}
	if slices.Contains(w.enabled(), evs[len(evs)-1]) {
		t.Fatalf("with the fence the old session can still apply its frame (%v)", evs[len(evs)-1])
	}
	if w.drain(); w.viol != "" {
		t.Fatalf("with the fence, drained: %s", w.viol)
	}
}

// TestExploreFindsOldBugs: the search has teeth. With the fence's
// quiescing ignored it finds the stale session, and with request ids
// narrowed to three bits it finds a response completing the wrong request
// once the ids wrap (the class of the 32-bit wrap that once wedged the
// client).
func TestExploreFindsOldBugs(t *testing.T) {
	if _, cex, viol := explore(tier1, xopts{noFence: true}); viol == "" {
		t.Error("no counterexample without the fence")
	} else {
		t.Logf("without the fence: %s\n\t%s", viol, formatEvents(cex))
	}
	narrow := bounds{clients: 1, blocks: 1, ops: 9, writes: 1, depth: 12}
	if _, cex, viol := explore(narrow, xopts{idShift: 61}); viol == "" {
		t.Error("no counterexample with 3-bit request ids")
	} else {
		t.Logf("3-bit ids: %s\n\t%s", viol, formatEvents(cex))
	}
}
