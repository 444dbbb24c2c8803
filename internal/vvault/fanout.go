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

// leg is one submitted sub-I/O. page is the batch page it serves (0 in a
// call that has no batch), or noPage once that page has been given up.
type leg struct {
	b    *backend
	h    *netv3.Pending
	page int
}

const noPage = -1

// retry is a page of a batch read left unserved, and the backend that
// failed it: the next attempt starts from the replica after that one.
type retry struct{ page, failed int }

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

// fanout is the sub-I/Os of one vault call — a batch of page reads, a
// write, a Flush, a resync replay step, a probe — and the one place the
// vault submits to a backend and waits for it: add issues, join waits out
// every leg against one deadline, on the caller's goroutine, and leaves
// each backend's first error in its outcome. What an error means (charge a
// counter, trip, fail the barrier) is the caller's business. fanout{v: v}
// is ready to use and serves one call.
//
// A batch read (mappedIO) also wants to know which of its pages were
// served: it sets page before adding a page's extents, and join reports
// each page whose every leg completed to harvested — at the moment the
// last of them is reaped, which is when a caller waiting for that page
// alone would have had it — and collects the others, each with the backend
// that failed it, in redo.
type fanout struct {
	v    *Vault
	legs []leg

	used, failed int // backends involved, and those of them with an error
	per          [inlineFan]outcome
	perSpill     []outcome // backends past the inline ones

	page      int            // the page add's legs serve
	harvested func(page int) // nil: nobody asked
	redo      []retry        // pages with a sub-I/O that failed or was never issued; allocated by the first
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
		f.legs = append(f.legs, leg{b, h, f.page})
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

// giveUp abandons the page being added, one of whose extents could not be
// issued to b: it goes to redo, and the legs it already has in flight —
// still waited out, still charged to their backends — no longer count for
// it.
func (f *fanout) giveUp(b *backend) {
	for i := len(f.legs) - 1; i >= 0 && f.legs[i].page == f.page; i-- {
		f.legs[i].page = noPage
	}
	f.redo = append(f.redo, retry{f.page, b.idx})
}

// join waits out every leg, in issue order, against one deadline, d from
// now, for the whole call. A leg that outlives it is canceled (its buffer
// is the caller's again) and fails with netv3.ErrWaitTimeout. The wait
// starts no goroutine and no timer: a leg that has already completed is
// one atomic load, and one that has not registers the deadline on its
// handle and parks there (netv3.Pending.WaitTimeout).
func (f *fanout) join(d time.Duration) {
	deadline := time.Now().Add(d)
	served := true // no leg of the current page has failed
	for i, l := range f.legs {
		if err := l.h.WaitTimeout(max(time.Until(deadline), time.Millisecond)); err != nil {
			f.settle(l.b, nil, err)
			if served && l.page != noPage {
				f.redo = append(f.redo, retry{l.page, l.b.idx})
			}
			served = false
		} else if l.h.Traced() {
			// A traced response carries the replica's server-side span block;
			// fold queue+service into the per-backend histogram and drop a
			// flight event so a dump shows which replica each fan-out leg of
			// a slow request spent its time on. A block of zeros attributes
			// nothing — skip it rather than pollute the histogram.
			sp := l.h.ServerSpan()
			if ns := uint64(sp.SrvQueueNS) + uint64(sp.SrvServiceNS); ns != 0 {
				l.b.srvSpanH.Observe(int64(ns))
				f.v.flight.Record(netv3.FlightReplicaIO, 0, uint64(l.b.idx), ns)
			}
		}
		// A page's legs are contiguous: past the last of them it is either
		// served or in redo.
		if i+1 == len(f.legs) || f.legs[i+1].page != l.page {
			if served && l.page != noPage && f.harvested != nil {
				f.harvested(l.page)
			}
			served = true
		}
	}
}
