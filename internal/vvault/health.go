package vvault

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
)

// errProbeStarved marks a probe that could not even acquire a credit
// token within ProbeTimeout — the window is wedged or saturated. It
// counts toward the error threshold rather than tripping at once, so a
// briefly saturated (but healthy) backend survives a probe or two while
// a truly wedged one trips after errorThreshold ticks.
var errProbeStarved = errors.New("vvault: probe starved of credit tokens")

// fatalErr reports errors that mean the backend session is gone (as
// opposed to an I/O status the backend itself returned): connection loss
// after exhausted reconnects, a closed client, or a completion wait that
// timed out. These trip the backend immediately instead of counting
// toward the threshold.
func fatalErr(err error) bool {
	return errors.Is(err, netv3.ErrConnLost) ||
		errors.Is(err, netv3.ErrClosed) ||
		errors.Is(err, netv3.ErrWaitTimeout)
}

// recordError charges one failure against a backend on consec, the
// counter of the path that saw it (backend.consec or probeConsec; a
// success on the same path stores 0): fatal errors trip it at once, others
// after errorThreshold consecutive failures. An admission shed
// (ErrOverloaded) is load, not damage — the backend answered, explicitly
// asking for backoff — so it neither trips nor counts toward the
// threshold; the caller still sees the error and owns the retry.
func (v *Vault) recordError(b *backend, consec *atomic.Int32, err error) {
	if errors.Is(err, netv3.ErrOverloaded) {
		return
	}
	if fatalErr(err) || int(consec.Add(1)) >= v.tune.errorThreshold {
		v.trip(b, err)
	}
}

// trip takes a backend out of service: state Down, replica masked from
// mirror reads, and the client closed so everything blocked
// on it (including submitters waiting for credit tokens) fails fast. The
// probe loop owns recovery.
func (v *Vault) trip(b *backend, cause error) {
	b.mu.Lock()
	if b.state.Load() == stateDown {
		b.mu.Unlock()
		return
	}
	b.state.Store(stateDown)
	b.trips.Add(1)
	// A trip is exactly the moment the flight recorder exists for: mark
	// an incident so the ring's last moments — the errors, sheds, and
	// replica I/O leading here — are frozen for /debug/flightrec.
	v.flight.Record(netv3.FlightReplicaTrip, 0, uint64(b.idx), uint64(b.consec.Load()))
	v.flight.Incident("backend-trip")
	if v.mirror != nil {
		v.mirror.SetMask(b.idx, true)
		v.noteMaskChange()
	}
	c := b.client // its streams die with it below
	b.mu.Unlock()
	// The backend destages write-behind, so writes it acknowledged since
	// its last successful flush may not have reached stable storage; if it
	// crashed it can come back without them. The cursor reset encodes
	// exactly that: it rolls back to the flush watermark, so the records
	// in between — plus everything appended while the replica is away —
	// are the replay debt resync serves from the log, instead of trusting
	// a possibly-crashed cache.
	if b.cur != nil {
		b.cur.Reset()
	}
	if c != nil {
		c.Close()
	}
	v.logf("vvault: backend %s tripped: %v", b.addr, cause)
}

// probeLoop is one backend's health driver. While the backend is up it
// issues a zero-length read of block 0 — the cheapest request the wire
// protocol can express — and bounds the completion wait, so a hung (not
// just dead) backend also trips. While the backend is down it attempts a
// fresh dial; success hands a mirror replica to the resync worker and
// returns a striped member straight to service (striping has no
// redundancy to resync from — the backend returns with whatever its
// store holds, which is intact for a restarted file-backed v3d).
func (v *Vault) probeLoop(b *backend) {
	defer v.wg.Done()
	t := time.NewTicker(v.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-v.done:
			return
		case <-t.C:
		}
		switch b.state.Load() {
		case stateUp:
			v.probeOnce(b)
		case stateDown:
			v.tryRecover(b)
		case stateResync:
			// The resync worker owns the backend until it finishes or
			// trips it back to Down.
		}
	}
}

// probeOnce issues the zero-length health read on the client's root
// stream, timing its round trip.
// Submission is bounded by ProbeTimeout: when hung data-path requests
// have exhausted the credit window, the probe must NOT join the queue
// of goroutines blocked on a token — that wedge would silence the one
// loop whose job is to trip the wedged backend. A token-wait timeout
// counts toward the error threshold (a loaded-but-healthy backend can
// legitimately run out of window for a few probes); the completion
// timeout below stays fatal via fatalErr, as before.
func (v *Vault) probeOnce(b *backend) {
	c := b.getClient()
	if c == nil {
		v.trip(b, errors.New("no client"))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), v.cfg.ProbeTimeout)
	t0 := obs.Now()
	h, err := c.ReadAsyncCtx(ctx, v.cfg.Volume, 0, nil)
	cancel()
	if errors.Is(err, context.DeadlineExceeded) {
		err = errProbeStarved
	}
	f := fanout{v: v}
	f.settle(b, h, err)
	f.join(v.cfg.ProbeTimeout)
	if err := f.out(b.idx).err; err != nil {
		v.recordError(b, &b.probeConsec, err)
		return
	}
	rtt := obs.Now() - t0
	b.lastProbeRTT.Store(rtt)
	v.probeRTT.Observe(rtt)
	b.probeConsec.Store(0)
}

// tryRecover dials a fresh session to a down backend and, on success,
// puts it back on the road to service.
func (v *Vault) tryRecover(b *backend) {
	c, err := netv3.Dial(b.addr, v.cfg.Client)
	if err != nil {
		return // still down; next tick retries
	}
	b.mu.Lock()
	if b.state.Load() != stateDown || v.closed.Load() {
		b.mu.Unlock()
		c.Close()
		return
	}
	old := b.client
	b.setClient(c, v.mirror != nil)
	b.consec.Store(0)
	b.probeConsec.Store(0)
	// A backend that was unreachable at Open never contributed its
	// MaxTransfer; honour it now, before any I/O is chunked for it.
	v.clampMaxIO(c.MaxTransfer())
	if v.mirror != nil {
		b.state.Store(stateResync)
	} else {
		b.state.Store(stateUp)
	}
	b.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if v.mirror != nil {
		v.logf("vvault: backend %s reachable again; resyncing", b.addr)
		v.wg.Add(1)
		go v.resyncLoop(b)
	} else {
		v.logf("vvault: backend %s back in service", b.addr)
	}
}
