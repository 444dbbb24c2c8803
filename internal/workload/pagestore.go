// Package workload is the repo's real-application tier: OLTP and
// synthetic workloads that run wall-clock (goroutine-based, not
// discrete-event) against the real storage stack — a netv3 session to
// one v3d server, or a vvault cluster volume. It is the layer the
// paper's Section 6 measures: a transaction engine with a buffer pool
// and a group-commit log driving 8 KB page I/O, reported as tpmC plus
// per-transaction-type latency histograms plus the per-stage breakdown
// from the netv3 client's sampled stage trace, so the end-to-end number
// decomposes the way the paper's tables do.
//
// The package splits into the PageStore contract and its adapters (this
// file), composable generators (gen.go), the transaction engine
// (engine.go), the TPC-C shape (tpcc.go), and the reporting layer
// (report.go).
package workload

import (
	"fmt"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/vvault"
	"github.com/v3storage/v3/internal/wire"
)

// PageStore is the storage contract the wall-clock engine programs
// against: synchronous page semantics over the real stack. The calling
// goroutine blocks; other terminals run meanwhile — how a database
// scheduler overlaps I/O with transaction processing.
//
// Batch fan-out rule (shared with the simulated adapters in
// internal/oltp/adapters.go): ReadPages never puts more reads in flight
// than BatchLimit, the path's negotiated credit-window equivalent — the
// netv3 session window or stream carve-out for a single server, the
// aggregate data-stream credits for a vault. Past that window extra
// submissions cannot add concurrency; they only queue for a credit token
// and inflate the submission stage. NetStore slides its batch (one new
// read issued as each of the oldest completes); VaultStore hands the vault
// the whole batch, and the vault's own streams hold what is in flight to
// their windows. Either way the batch is issued and reaped on the calling
// goroutine: a page read costs no goroutine, channel or timer of its own.
type PageStore interface {
	// ReadPage fills buf from the volume at off.
	ReadPage(off int64, buf []byte) error
	// ReadPages overlaps a batch of page reads (database read-ahead),
	// fanning out at most BatchLimit requests at once.
	ReadPages(offs []int64, bufs [][]byte) error
	// WritePage sends data to the volume at off. Completion means the
	// store accepted the bytes; Flush is the durability barrier.
	WritePage(off int64, data []byte) error
	// Flush is the durability barrier behind the engine's group-commit
	// log stream: when it returns nil, every write whose completion was
	// observed before Flush was submitted is durable.
	Flush() error
	// Size is the usable volume size in bytes.
	Size() int64
	// BatchLimit is the negotiated credit-window equivalent (see the
	// fan-out rule above). Always >= 1.
	BatchLimit() int
}

// SrvSpanAcc sums the server-reported span blocks of traced requests:
// scheduler queue wait and worker service time (CPU plus any store call
// the request made). The caller owns attribution — the engine keeps one
// per transaction and banks it per tx type — so the stage columns that
// were only a global table in PR 4 become per-transaction-type columns
// here.
type SrvSpanAcc struct {
	N       int64
	SchedNS int64
	CPUNS   int64
}

// add folds one traced response's span block in.
func (a *SrvSpanAcc) add(sp wire.SrvSpan) {
	a.N++
	a.SchedNS += int64(sp.SrvQueueNS)
	a.CPUNS += int64(sp.SrvServiceNS)
}

// SpanAttributor is the optional PageStore extension for adapters whose
// path hands back per-request server spans. SpanView returns a store
// sharing the adapter's connection but folding every completed traced
// request's span into acc; the view (and acc) must stay on one
// goroutine. NetStore implements it; VaultStore cannot — the vault's
// fan-out hides per-request handles, and its per-replica spans land on
// the vault's own registry instead.
type SpanAttributor interface {
	SpanView(acc *SrvSpanAcc) PageStore
}

// NetStore adapts one stream of a netv3 session — the client's root or
// one it opened — to PageStore. The end-to-end histogram, when set,
// receives the caller-measured submit→Wait-return time of every
// stage-traced request (Pending.Traced), the independent measurement the
// PR-4 accounting discipline checks the per-stage breakdown against:
// both sides then describe exactly the same sampled population.
type NetStore struct {
	io        *netv3.Stream
	vol       uint32
	sizeBytes int64
	limit     int
	e2e       *obs.Hist
	acc       *SrvSpanAcc // span sink for a SpanView; nil on the root store
}

// SpanView implements SpanAttributor: a shallow copy sharing the
// session, e2e histogram, and clamp, with acc as its span sink.
func (s *NetStore) SpanView(acc *SrvSpanAcc) PageStore {
	v := *s
	v.acc = acc
	return &v
}

// NewNetStore wraps a netv3 stream (a Client's root is cl.Stream). volSize
// is the usable volume size (the wire carries no size query). The fan-out
// clamp is the stream's own credit window. e2e may be nil.
func NewNetStore(io *netv3.Stream, vol uint32, volSize int64, e2e *obs.Hist) *NetStore {
	return &NetStore{io: io, vol: vol, sizeBytes: volSize, limit: max(io.Credits(), 1), e2e: e2e}
}

// ReadPage implements PageStore.
func (s *NetStore) ReadPage(off int64, buf []byte) error {
	t := time.Now()
	h, err := s.io.ReadAsync(s.vol, off, buf)
	if err != nil {
		return err
	}
	err = h.Wait()
	s.observe(h, t)
	return err
}

// ReadPages implements PageStore with the sliding-window fan-out clamp.
// Waits are in submission order while the window is full; a request
// whose completion the harvester observes late accounts the delay to
// the trace's wakeup stage, so the caller-measured end-to-end time and
// the stage sum keep tiling the same interval.
func (s *NetStore) ReadPages(offs []int64, bufs [][]byte) error {
	if len(offs) != len(bufs) {
		return fmt.Errorf("workload: ReadPages got %d offsets, %d buffers", len(offs), len(bufs))
	}
	window := s.limit
	if window > len(offs) {
		window = len(offs)
	}
	handles := make([]*netv3.Pending, len(offs))
	starts := make([]time.Time, len(offs))
	var firstErr error
	issue := func(i int) {
		starts[i] = time.Now()
		h, err := s.io.ReadAsync(s.vol, offs[i], bufs[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		handles[i] = h
	}
	harvest := func(i int) {
		if handles[i] == nil {
			return
		}
		if err := handles[i].Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.observe(handles[i], starts[i])
	}
	for i := 0; i < window; i++ {
		issue(i)
	}
	for i := window; i < len(offs); i++ {
		harvest(i - window)
		issue(i)
	}
	for i := len(offs) - window; i < len(offs); i++ {
		harvest(i)
	}
	return firstErr
}

// WritePage implements PageStore.
func (s *NetStore) WritePage(off int64, data []byte) error {
	t := time.Now()
	h, err := s.io.WriteAsync(s.vol, off, data)
	if err != nil {
		return err
	}
	err = h.Wait()
	s.observe(h, t)
	return err
}

// Flush implements PageStore.
func (s *NetStore) Flush() error {
	t := time.Now()
	h, err := s.io.FlushAsync(s.vol)
	if err != nil {
		return err
	}
	err = h.Wait()
	s.observe(h, t)
	return err
}

// observe folds a completed request's caller-measured round trip into
// the e2e histogram — traced requests only, so the population matches
// the stage histograms exactly.
func (s *NetStore) observe(h *netv3.Pending, start time.Time) {
	if !h.Traced() {
		return
	}
	if s.e2e != nil {
		s.e2e.Observe(time.Since(start).Nanoseconds())
	}
	if s.acc != nil {
		if sp := h.ServerSpan(); sp != (wire.SrvSpan{}) {
			s.acc.add(sp)
		}
	}
}

// Size implements PageStore.
func (s *NetStore) Size() int64 { return s.sizeBytes }

// BatchLimit implements PageStore.
func (s *NetStore) BatchLimit() int { return s.limit }

// VaultStore adapts a vvault cluster volume to PageStore. The vault
// pipelines extent fan-out internally; the adapter's clamp is the
// cluster's aggregate data-stream credit window (Vault.Credits). The
// e2e histogram, when set, receives every operation's vault-level round
// trip: the vault exposes no per-request trace handle, but the netv3
// stage trace underneath samples 1-in-4 of a homogeneous stream
// systematically, so the all-requests mean and the traced-population
// mean describe the same distribution (to within the vault's extent-map
// overhead, microseconds against a wire round trip). A page of a batch is
// timed as NetStore times one: from its issue — the batch's — to the
// moment its own extents are reaped, not to the end of the batch, which
// would charge every page the slowest one's wait and stop the histogram
// tiling against the stage table.
type VaultStore struct {
	v     *vvault.Vault
	limit int
	e2e   *obs.Hist
}

// NewVaultStore wraps an open vault. e2e may be nil.
func NewVaultStore(v *vvault.Vault, e2e *obs.Hist) *VaultStore {
	limit := v.Credits()
	if limit < 1 {
		limit = 1
	}
	return &VaultStore{v: v, limit: limit, e2e: e2e}
}

// ReadPage implements PageStore.
func (s *VaultStore) ReadPage(off int64, buf []byte) error {
	t := time.Now()
	err := s.v.Read(off, buf)
	s.observeAll(t)
	return err
}

// ReadPages implements PageStore: the batch is one Vault.ReadPages call,
// issued and reaped on this goroutine.
func (s *VaultStore) ReadPages(offs []int64, bufs [][]byte) error {
	if s.e2e == nil {
		return s.v.ReadPages(offs, bufs, nil)
	}
	t := time.Now()
	return s.v.ReadPages(offs, bufs, func(int) { s.observeAll(t) })
}

// WritePage implements PageStore.
func (s *VaultStore) WritePage(off int64, data []byte) error {
	t := time.Now()
	err := s.v.Write(off, data)
	s.observeAll(t)
	return err
}

// Flush implements PageStore.
func (s *VaultStore) Flush() error {
	t := time.Now()
	err := s.v.Flush()
	s.observeAll(t)
	return err
}

func (s *VaultStore) observeAll(start time.Time) {
	if s.e2e != nil {
		s.e2e.Observe(time.Since(start).Nanoseconds())
	}
}

// Size implements PageStore.
func (s *VaultStore) Size() int64 { return s.v.Size() }

// BatchLimit implements PageStore.
func (s *VaultStore) BatchLimit() int { return s.limit }

var (
	_ PageStore = (*NetStore)(nil)
	_ PageStore = (*VaultStore)(nil)
)
