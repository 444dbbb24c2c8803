package vvault

import (
	"fmt"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/repl"
)

// ioKind is the sub-I/O a fan-out leg carries.
type ioKind uint8

const (
	ioRead ioKind = iota
	ioWrite
	ioFlush
)

func (k ioKind) String() string { return [...]string{"read", "write", "flush"}[k] }

// inlineFan sizes what a fanout carries in place — the outcomes of up to
// four backends, so any call on a two- to four-way cluster keeps them on
// the stack — and the first allocation of its leg list, which a mirrored
// read, write or flush never outgrows.
const inlineFan = 4

// leg is one submitted sub-I/O.
type leg struct {
	b *backend
	h *netv3.Pending
}

// outcome is one backend's part in a call: whether the call involved it,
// its first error, and what the two sequenced callers capture before they
// issue — a mirror write the replica's consumer generation, Flush its
// barrier snapshot.
type outcome struct {
	used bool
	err  error
	gen  uint64
	bar  repl.Barrier
}

// fanout is the sub-I/Os of one vault call — a data read or write, a
// Flush, a resync replay step, a probe — and the one place the vault
// submits to a backend and waits for it: add issues, join waits out every
// leg against one deadline and leaves each backend's first error in its
// outcome. What an error means (charge a counter, trip, fail the barrier)
// is the caller's business. fanout{v: v} is ready to use and serves one
// call.
type fanout struct {
	v    *Vault
	legs []leg

	used, failed int // backends involved, and those of them with an error
	per          [inlineFan]outcome
	perSpill     []outcome // backends past the inline ones
}

// out returns backend idx's outcome.
func (f *fanout) out(idx int) *outcome {
	if idx < inlineFan {
		return &f.per[idx]
	}
	if f.perSpill == nil {
		f.perSpill = make([]outcome, len(f.v.backends)-inlineFan)
	}
	return &f.perSpill[idx-inlineFan]
}

// settle records the fate of one sub-I/O of b's — submitted as h, or
// failed with err at submission or completion — and returns b's error so
// far: nothing more should be issued to a backend that has failed.
func (f *fanout) settle(b *backend, h *netv3.Pending, err error) error {
	o := f.out(b.idx)
	if !o.used {
		o.used = true
		f.used++
	}
	switch {
	case err == nil:
		if f.legs == nil {
			f.legs = make([]leg, 0, inlineFan)
		}
		f.legs = append(f.legs, leg{b, h})
	case o.err == nil:
		o.err = err
		f.failed++
	}
	return o.err
}

// add issues one sub-I/O of kind to b at off, chunked to the transfer
// cap, on st: the stream of b's this call rides, nil when b has no client.
// buf is the read destination or the write payload (nil for a flush).
func (f *fanout) add(b *backend, st *netv3.Stream, kind ioKind, off int64, buf []byte) error {
	if st == nil {
		return f.settle(b, nil, fmt.Errorf("no client: %w", ErrDegraded))
	}
	vol, maxio := f.v.cfg.Volume, f.v.maxIO()
	for {
		n := min(len(buf), maxio)
		var h *netv3.Pending
		var err error
		switch kind {
		case ioRead:
			h, err = st.ReadAsync(vol, off, buf[:n])
		case ioWrite:
			h, err = st.WriteAsync(vol, off, buf[:n])
		case ioFlush:
			h, err = st.FlushAsync(vol)
		}
		if err = f.settle(b, h, err); err != nil {
			return err
		}
		if buf, off = buf[n:], off+int64(n); len(buf) == 0 {
			return nil
		}
	}
}

// join waits out every leg against one deadline, d from now, for the
// whole call. A leg that outlives it is canceled (its buffer is the
// caller's again) and fails with netv3.ErrWaitTimeout; one that has
// already completed costs no timer.
func (f *fanout) join(d time.Duration) {
	deadline := time.Now().Add(d)
	for _, l := range f.legs {
		if err := l.h.WaitTimeout(max(time.Until(deadline), time.Millisecond)); err != nil {
			f.settle(l.b, nil, err)
			continue
		}
		// A traced response carries the replica's server-side span block;
		// fold queue+service into the per-backend histogram and drop a
		// flight event so a dump shows which replica each fan-out leg of
		// a slow request spent its time on. Pre-trace replicas leave the
		// block zero — skip rather than pollute the histogram with zeros.
		if l.h.Traced() {
			sp := l.h.ServerSpan()
			if ns := uint64(sp.SrvQueueNS) + uint64(sp.SrvServiceNS); ns != 0 {
				l.b.srvSpanH.Observe(int64(ns))
				f.v.flight.Record(netv3.FlightReplicaIO, 0, uint64(l.b.idx), ns)
			}
		}
	}
}
