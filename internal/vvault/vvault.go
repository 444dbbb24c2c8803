// Package vvault is the cluster side of the V3 "Volume Vault": a client
// layer that composes N netv3 (v3d) backends into one logical volume.
// The paper's V3 is a cluster storage back-end — "V3 volumes can span
// multiple V3 nodes using combinations of RAID" — and this package is
// that spanning layer on the real TCP path: the address arithmetic comes
// from internal/volume (Stripe for RAID-0 throughput, Mirror for RAID-1
// availability), the parallel extent I/O from the async netv3 client
// API.
//
// Beyond the happy path it owns the cluster-level fault handling the
// mappings alone cannot express: per-backend health state driven by a
// probe loop and an error-count trip, degraded-mode routing (mirror
// reads and writes route around a dead replica; striped volumes fail
// fast), a per-replica dirty-extent log, and a background resync worker
// that replays dirty ranges onto a recovered replica before it serves
// reads again. Flush fans out to every live backend and is the
// cluster-wide durability barrier.
package vvault

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/repl"
	"github.com/v3storage/v3/internal/volume"
)

// Mode selects how the logical volume spans the backends.
type Mode int

const (
	// ModeStripe interleaves the volume RAID-0 across all backends:
	// maximum throughput, no redundancy — one dead backend fails every
	// request that touches it.
	ModeStripe Mode = iota
	// ModeMirror replicates the volume RAID-1 on every backend: a read
	// goes to its block's home among the live replicas (so the servers'
	// caches partition the volume), writes fan out, and a dead replica is
	// routed around and resynced when it returns.
	ModeMirror
)

func (m Mode) String() string {
	if m == ModeMirror {
		return "mirror"
	}
	return "stripe"
}

// Config tunes a Vault.
type Config struct {
	// Mode is the spanning layout (default ModeStripe).
	Mode Mode
	// Volume is the remote volume id on every backend (default 1).
	Volume uint32
	// MemberSize is the usable bytes contributed by each backend. It
	// must not exceed any backend's exported volume and, for striping,
	// must be a multiple of StripeSize. Required.
	MemberSize int64
	// StripeSize is the RAID-0 interleave unit (default 64 KB).
	StripeSize int64
	// Client configures each backend's netv3 client.
	Client netv3.ClientConfig
	// ProbeInterval is the health-probe period (default 250ms); probes
	// are zero-length reads of block 0.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe's completion wait (default 2s).
	ProbeTimeout time.Duration
	// IOTimeout bounds every data-path completion wait; a timed-out
	// backend is tripped immediately (default 15s).
	IOTimeout time.Duration
	// Metrics, when non-nil, enables cluster-level instrumentation on
	// this registry: per-backend health/dirty gauges, probe RTT
	// histogram, degraded-time and resync counters. Nil is the disabled
	// fast path.
	Metrics *obs.Registry
	// Flight, when non-nil, receives replica-level flight-recorder
	// events: per-replica sub-I/O spans harvested from traced responses
	// and backend trips (which also mark an incident, freezing a dump of
	// the ring's recent history). Nil is the disabled fast path.
	Flight *obs.Flight
	// Logger receives health transitions and resync progress; nil
	// silences them.
	Logger *log.Logger
}

// DefaultConfig returns production defaults for the given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:          mode,
		Volume:        1,
		StripeSize:    64 << 10,
		Client:        netv3.DefaultClientConfig(),
		ProbeInterval: 250 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		IOTimeout:     15 * time.Second,
	}
}

// tuning holds the vault's three fixed sizes. Every vault built by Open
// runs the defaults; in-package tests hand open other values to trip a
// backend sooner, cut a replay pass into more chunks or overflow the log
// window with a handful of writes. A zero field selects its default.
type tuning struct {
	errorThreshold int // consecutive errors that trip a backend Down (3); connection loss and timeouts trip at once
	resyncChunk    int // resync's copy unit, live replica to recovered one (256 KB, capped at the backends' max transfer)
	logRecords     int // write records the mirror's log keeps before folding the oldest into an extent summary (4096)
}

// ErrDegraded reports an operation the vault cannot serve in its current
// health state: a striped extent on a dead backend, or a mirror with
// every replica down.
var ErrDegraded = errors.New("vvault: volume degraded")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("vvault: vault closed")

// Backend health states.
const (
	stateUp int32 = iota
	stateDown
	stateResync
)

func stateName(s int32) string {
	switch s {
	case stateUp:
		return "up"
	case stateDown:
		return "down"
	case stateResync:
		return "resync"
	}
	return "?"
}

// backend is one v3d server behind the vault.
type backend struct {
	idx  int
	addr string

	// mu guards the client pointer and state transitions; state itself
	// is atomic so the data path reads it lock-free.
	mu     sync.Mutex
	client *netv3.Client
	state  atomic.Int32

	// data carries foreground client I/O and rsync resync replay. Both are
	// the client's streams, opened with it under mu (setClient) and nil
	// only while there is no client: data a foreground carve-out, rsync one
	// on the server's background QoS lane.
	data  *netv3.Stream
	rsync *netv3.Stream

	// consec counts consecutive data-path errors, probeConsec consecutive
	// probe errors. They are separate on purpose: a passing probe says
	// nothing about the data path, so it must not be able to keep resetting
	// the counter while sporadic I/O failures accumulate underneath it.
	consec      atomic.Int32
	probeConsec atomic.Int32
	trips       atomic.Int64

	// lastProbeRTT is the most recent successful health probe's round
	// trip in nanoseconds (0 before the first success).
	lastProbeRTT atomic.Int64

	// srvSpanH folds this replica's server-reported time (queue wait +
	// service) harvested from traced responses; nil when Config.Metrics
	// is unset. It is what separates "replica 2 is slow" into the
	// network (probe RTT minus this) versus the replica's own stack.
	srvSpanH *obs.Hist

	// ioMu orders mirror writes against resync completion: a write holds
	// the read side from the moment it observes this backend's state
	// until its outcome is sequenced in the replication log (Ack/Fail),
	// and the resync worker takes the write side for its final caught-up
	// check. That makes "sequence-after-completion" safe: resync cannot
	// declare the replica clean while a write that will append a record
	// is still in flight.
	ioMu sync.RWMutex

	// cur is this replica's consumer cursor into the vault's replication
	// log (mirror mode only; nil for stripe). The dirty and unflushed
	// extent views the vault used to maintain by hand are projections of
	// its (cursor, watermark, debt) state.
	cur *repl.Consumer
}

func (b *backend) getClient() *netv3.Client {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.client
}

// setClient installs c and opens the backend's streams on it: a
// foreground data stream for client I/O plus, in mirror mode, a
// background-lane resync stream, so recovery replay cannot crowd live
// traffic out of the server's foreground QoS lane (a stripe has no resync;
// its rsync is the root). Health probes stay on the root. Opening a stream
// is local to the client: no I/O, nothing to refuse. Call with mu held (or
// before the backend is shared).
func (b *backend) setClient(c *netv3.Client, mirror bool) {
	b.client, b.data, b.rsync = c, c.OpenStream(netv3.StreamConfig{Credits: dataStreamCredits}), c.Stream
	if mirror {
		b.rsync = c.OpenStream(netv3.StreamConfig{Credits: resyncStreamCredits, Background: true})
	}
}

// streams returns the backend's data and resync streams; nil when it has
// no client.
func (b *backend) streams() (data, rsync *netv3.Stream) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.data, b.rsync
}

// The two streams' credit carve-outs from the session window. Together
// they stay under the server's default window of 64, so probes on the
// root always have a token left.
const (
	dataStreamCredits   = 48
	resyncStreamCredits = 8
)

// Vault is the cluster client: one logical volume over N backends. It is
// safe for concurrent use.
type Vault struct {
	cfg      Config
	tune     tuning
	layout   volume.Layout
	mirror   *volume.Mirror // non-nil in mirror mode
	backends []*backend
	size     int64
	// maxio is the per-request transfer cap across backends. Atomic because
	// tryRecover may shrink it when a backend that was unreachable at Open
	// (so never contributed its MaxTransfer) comes back with a smaller cap.
	maxio atomic.Int64

	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// rlog is the mirror's sequenced replication log: every acknowledged
	// write appends one record, each replica is a consumer cursor over
	// it, and outside subscribers tap it via Subscribe. Nil in stripe
	// mode.
	rlog *repl.Log

	degradedReads  atomic.Int64
	degradedWrites atomic.Int64
	resyncs        atomic.Int64
	resyncedBytes  atomic.Int64
	// resyncReplayed is gross replay traffic (every byte written by the
	// resync worker, re-runs included); resyncedBytes is net — bytes
	// brought back in sync, counted once per outage.
	resyncReplayed atomic.Int64

	// probeRTT is the health-probe round-trip histogram; nil when
	// Config.Metrics is unset.
	probeRTT *obs.Hist

	// flight is Config.Flight; nil no-ops every record (the obs.Flight
	// methods are nil-safe, so the data path never branches on it).
	flight *obs.Flight

	// Degraded-time accounting (mirror mode): degSince is non-zero while
	// at least one replica is masked from reads, degAccum the closed
	// intervals already summed. Guarded by degMu; maintained by
	// noteMaskChange after every mask transition.
	degMu    sync.Mutex
	degSince time.Time
	degAccum time.Duration
}

// noteMaskChange re-derives the degraded interval state from the mirror
// mask; call after any SetMask.
func (v *Vault) noteMaskChange() {
	if v.mirror == nil {
		return
	}
	deg := v.mirror.MaskedCount() > 0
	v.degMu.Lock()
	switch {
	case deg && v.degSince.IsZero():
		v.degSince = time.Now()
	case !deg && !v.degSince.IsZero():
		v.degAccum += time.Since(v.degSince)
		v.degSince = time.Time{}
	}
	v.degMu.Unlock()
}

// degradedTime is the cumulative wall time spent with at least one
// replica masked from reads, including the currently open interval.
func (v *Vault) degradedTime() time.Duration {
	v.degMu.Lock()
	d := v.degAccum
	if !v.degSince.IsZero() {
		d += time.Since(v.degSince)
	}
	v.degMu.Unlock()
	return d
}

// Open dials every backend and assembles the logical volume. In stripe
// mode every backend must answer; in mirror mode the vault comes up as
// long as one replica does — unreachable replicas start Down with the
// whole volume dirty, so the first successful probe triggers a full
// resync.
func Open(addrs []string, cfg Config) (*Vault, error) { return open(addrs, cfg, tuning{}) }

func open(addrs []string, cfg Config, tune tuning) (*Vault, error) {
	if len(addrs) == 0 {
		return nil, errors.New("vvault: need at least one backend address")
	}
	if cfg.Volume == 0 {
		cfg.Volume = 1
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = 64 << 10
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 15 * time.Second
	}
	if tune.errorThreshold <= 0 {
		tune.errorThreshold = 3
	}
	if tune.resyncChunk <= 0 {
		tune.resyncChunk = 256 << 10
	}
	if cfg.MemberSize <= 0 {
		return nil, errors.New("vvault: MemberSize must be positive")
	}
	if cfg.Mode == ModeMirror && len(addrs) < 2 {
		return nil, errors.New("vvault: mirror mode needs at least two backends")
	}

	v := &Vault{cfg: cfg, tune: tune, done: make(chan struct{}), flight: cfg.Flight}
	netv3.RegisterFlightKinds(v.flight)
	v.maxio.Store(1 << 20)
	switch cfg.Mode {
	case ModeStripe:
		if cfg.MemberSize%cfg.StripeSize != 0 {
			return nil, fmt.Errorf("vvault: MemberSize %d not a multiple of StripeSize %d",
				cfg.MemberSize, cfg.StripeSize)
		}
		st, err := volume.NewStripe(len(addrs), cfg.StripeSize, cfg.MemberSize)
		if err != nil {
			return nil, err
		}
		v.layout = st
	case ModeMirror:
		inner, err := volume.NewConcat(cfg.MemberSize)
		if err != nil {
			return nil, err
		}
		m, err := volume.NewMirror(inner, len(addrs))
		if err != nil {
			return nil, err
		}
		v.layout, v.mirror = m, m
		v.rlog = repl.New(m.Size(), repl.Config{MaxRecords: tune.logRecords})
	default:
		return nil, fmt.Errorf("vvault: unknown mode %d", cfg.Mode)
	}
	v.size = v.layout.Size()

	live := 0
	for i, addr := range addrs {
		b := &backend{idx: i, addr: addr}
		if v.rlog != nil {
			b.cur = v.rlog.Consumer(fmt.Sprintf("replica-%d", i))
		}
		c, err := netv3.Dial(addr, cfg.Client)
		switch {
		case err == nil:
			b.setClient(c, v.mirror != nil)
			b.state.Store(stateUp)
			v.clampMaxIO(c.MaxTransfer())
			live++
		case cfg.Mode == ModeMirror:
			// Come up degraded: the replica's content is unknown, so the
			// whole volume is seeded as debt and recovery implies a full
			// resync.
			b.state.Store(stateDown)
			b.cur.Reset()
			b.cur.SeedDebt(0, v.size)
			v.mirror.SetMask(i, true)
			v.logf("vvault: backend %s unreachable at open (%v); starting degraded", addr, err)
		default:
			for _, ob := range v.backends {
				if c := ob.getClient(); c != nil {
					c.Close()
				}
			}
			return nil, fmt.Errorf("vvault: dial backend %s: %w", addr, err)
		}
		v.backends = append(v.backends, b)
	}
	if live == 0 {
		return nil, fmt.Errorf("%w: no backend reachable", ErrDegraded)
	}
	v.tune.resyncChunk = min(v.tune.resyncChunk, v.maxIO())
	v.noteMaskChange() // a replica may have started masked
	v.registerMetrics(cfg.Metrics)

	// Seed each live backend's probe RTT synchronously so Status reports
	// it immediately after Open — one-shot consumers (v3cli status) exit
	// before the first ticker-driven probe would land.
	for _, b := range v.backends {
		if b.state.Load() == stateUp {
			v.probeOnce(b)
		}
	}
	for _, b := range v.backends {
		v.wg.Add(1)
		go v.probeLoop(b)
	}
	return v, nil
}

// registerMetrics exports the vault's existing health state and counters
// as gauge funcs plus the probe-RTT histogram — no double bookkeeping;
// no-op when r is nil.
func (v *Vault) registerMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	v.probeRTT = r.Hist("vvault_probe_rtt_ns")
	r.GaugeFunc("vvault_degraded_reads_total", v.degradedReads.Load)
	r.GaugeFunc("vvault_degraded_writes_total", v.degradedWrites.Load)
	r.GaugeFunc("vvault_resyncs_total", v.resyncs.Load)
	r.GaugeFunc("vvault_resynced_bytes_total", v.resyncedBytes.Load)
	r.GaugeFunc("vvault_resync_replayed_bytes_total", v.resyncReplayed.Load)
	r.GaugeFunc("vvault_degraded_ms", func() int64 {
		return v.degradedTime().Milliseconds()
	})
	if v.rlog != nil {
		r.GaugeFunc("vvault_repl_log_head", func() int64 {
			return int64(v.rlog.Stats().Head)
		})
		r.GaugeFunc("vvault_repl_log_depth", func() int64 {
			return int64(v.rlog.Stats().Records)
		})
		r.GaugeFunc("vvault_repl_log_folded_ranges", func() int64 {
			return int64(v.rlog.Stats().Folded)
		})
		r.GaugeFunc("vvault_repl_fallbacks_total", func() int64 {
			return v.rlog.Stats().Fallbacks
		})
		r.GaugeSet("vvault_repl_feed_cursor", func() map[string]int64 {
			out := make(map[string]int64)
			for name, cur := range v.rlog.FeedCursors() {
				out[fmt.Sprintf("{feed=%q}", name)] = int64(cur)
			}
			return out
		})
	}
	for _, b := range v.backends {
		b := b
		lbl := fmt.Sprintf(`{backend="%d",addr=%q}`, b.idx, b.addr)
		r.GaugeFunc("vvault_backend_state"+lbl, func() int64 {
			return int64(b.state.Load())
		})
		r.GaugeFunc("vvault_backend_trips_total"+lbl, b.trips.Load)
		r.GaugeFunc("vvault_backend_probe_rtt_ns"+lbl, b.lastProbeRTT.Load)
		b.srvSpanH = r.Hist("vvault_replica_srv_ns" + lbl)
		if b.cur != nil {
			r.GaugeFunc("vvault_backend_dirty_ranges"+lbl, func() int64 {
				return int64(b.cur.Stats().DirtyRanges)
			})
			r.GaugeFunc("vvault_backend_dirty_bytes"+lbl, func() int64 {
				return b.cur.Stats().DirtyBytes
			})
			r.GaugeFunc("vvault_backend_log_cursor"+lbl, func() int64 {
				return int64(b.cur.Stats().Pos)
			})
			r.GaugeFunc("vvault_backend_watermark_lag"+lbl, func() int64 {
				// Records acked but not yet covered by a flush barrier:
				// what a crash right now would cost this replica.
				return int64(v.rlog.Stats().Head - b.cur.Stats().Durable)
			})
			r.GaugeFunc("vvault_backend_unflushed_bytes"+lbl, func() int64 {
				return b.cur.Stats().UnflushedBytes
			})
		}
	}
}

// Size returns the logical volume size in bytes.
func (v *Vault) Size() int64 { return v.size }

// Mode returns the spanning mode.
func (v *Vault) Mode() Mode { return v.cfg.Mode }

// Close stops the health and resync workers and closes every backend
// client.
func (v *Vault) Close() error {
	if !v.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(v.done)
	v.wg.Wait()
	for _, b := range v.backends {
		if c := b.getClient(); c != nil {
			c.Close()
		}
	}
	return nil
}

func (v *Vault) logf(format string, args ...any) {
	if v.cfg.Logger != nil {
		v.cfg.Logger.Printf(format, args...)
	}
}

func (v *Vault) maxIO() int { return int(v.maxio.Load()) }

// clampMaxIO shrinks the cluster transfer cap to mt so requests chunked
// at the cap are never rejected by the smallest backend, including one
// that joined (or rejoined) after Open.
func (v *Vault) clampMaxIO(mt int) {
	if mt <= 0 {
		return
	}
	for {
		cur := v.maxio.Load()
		if int64(mt) >= cur || v.maxio.CompareAndSwap(cur, int64(mt)) {
			return
		}
	}
}

// Read fills buf from the logical volume at off: the one-page case of
// ReadPages.
func (v *Vault) Read(off int64, buf []byte) error {
	offs, bufs := [1]int64{off}, [1][]byte{buf}
	return v.ReadPages(offs[:], bufs[:], nil)
}

// ReadPages fills bufs[i] from the logical volume at offs[i], the whole
// batch as one fan-out: every page's extents are issued before any is
// waited for, and the caller's goroutine reaps them all — a batch costs no
// goroutine however many pages it has (database read-ahead; the engine's
// miss batch). The backends' credit windows bound what is in flight: past
// them, issuing waits for a token, which a completion returns whether or
// not anybody has reaped it yet.
//
// harvested, when non-nil, is called on the caller's goroutine with the
// index of each page that had bytes to read as the last of its extents is
// reaped — once per page, in order unless a retry intervenes — so a caller
// timing pages can stop each one's clock when that page, not the whole
// batch, was there.
//
// Striped, every backend a page touches must be up: there is no redundancy
// to route around a dead one. Mirrored, each page is served by one live
// replica, and the pages a failed replica left unserved are read again
// from the survivors until none is left to try.
func (v *Vault) ReadPages(offs []int64, bufs [][]byte, harvested func(page int)) error {
	if v.closed.Load() {
		return ErrClosed
	}
	if len(offs) != len(bufs) {
		return fmt.Errorf("vvault: ReadPages got %d offsets, %d buffers", len(offs), len(bufs))
	}
	var todo []retry // the pages still unserved; nil is all of them
	for attempt := 1; ; attempt++ {
		redo, err := v.mappedIO(ioRead, offs, bufs, todo, harvested)
		switch {
		case err == nil:
			if v.mirror != nil && v.mirror.MaskedCount() > 0 {
				v.degradedReads.Add(int64(len(offs)))
			}
			return nil
		case v.mirror == nil || len(redo) == 0:
			return err // striped, or nothing a retry could map: outside the volume, every replica down
		case attempt > len(v.backends):
			// Each retry moved every page on to the next replica in ring
			// order: by now a page has met every live one, the first of them
			// twice.
			return fmt.Errorf("%w: no replica served %d of the %d pages read: %v", ErrDegraded, len(redo), len(offs), err)
		}
		todo = redo
	}
}

// Write sends data to the logical volume at off. In mirror mode the
// write succeeds when at least one live replica accepted it; replicas it
// could not reach have the extent recorded in their dirty log for
// resync.
func (v *Vault) Write(off int64, data []byte) error {
	if v.closed.Load() {
		return ErrClosed
	}
	if len(data) == 0 {
		_, err := v.layout.MapWrite(off, 0)
		return err
	}
	if v.mirror != nil {
		return v.writeMirror(off, data)
	}
	offs, bufs := [1]int64{off}, [1][]byte{data}
	_, err := v.mappedIO(ioWrite, offs[:], bufs[:], nil, nil)
	return err
}

// Flush is the cluster-wide durability barrier: it fans out the netv3
// Flush to every live backend and succeeds only when all of them do.
// Each replica's barrier is snapshotted before the flush is issued, so
// a write acknowledged while the flush is in flight — which it may not
// cover — stays above the watermark for the next barrier. A replica
// that fails its flush is tripped; the trip rolls its cursor back to
// the watermark, which is exactly "everything the barrier should have
// covered becomes replay debt". In mirror mode, replicas that are out
// of service are routine (the log carries their debt), but a barrier
// that reaches no live replica at all guaranteed nothing and returns
// ErrDegraded. An Up replica with no client cannot serve the barrier
// either: it is tripped and counts as a failure, not silently skipped.
func (v *Vault) Flush() error {
	if v.closed.Load() {
		return ErrClosed
	}
	f := fanout{v: v}
	var firstErr error
	for i, b := range v.backends {
		if st := b.state.Load(); st != stateUp {
			if v.mirror == nil {
				firstErr = fmt.Errorf("%w: backend %s is %s", ErrDegraded, b.addr, stateName(st))
			}
			continue
		}
		if b.cur != nil {
			f.out(i).bar = b.cur.BarrierBegin()
		}
		st, _ := b.streams()
		f.add(b, st, ioFlush, 0, nil)
	}
	f.join(v.cfg.IOTimeout)
	for i, b := range v.backends {
		switch o := f.out(i); {
		case !o.used:
		case o.err != nil:
			v.trip(b, fmt.Errorf("flush failed: %w", o.err))
			if firstErr == nil {
				firstErr = fmt.Errorf("vvault: flush backend %s: %w", b.addr, o.err)
			}
		case b.cur != nil:
			b.cur.BarrierCommit(o.bar)
		}
	}
	if v.mirror != nil && f.used == f.failed && firstErr == nil {
		firstErr = fmt.Errorf("%w: flush reached no live replica", ErrDegraded)
	}
	return firstErr
}

// mappedIO makes one attempt at a mapped data-path call — a batch of page
// reads, or the one page of a striped write — as one fan-out. todo lists
// the pages of the batch to serve; nil is all of them. Each page is mapped
// (a mirrored read picks its replica here, page by page: each page goes
// to its block's home replica exactly as it would read alone, and a page
// being retried moves on from the replica that failed it), checked
// — striping has no redundancy, so every backend a page touches must be
// up — and its extents issued on their backends' data streams, the
// page's buffer sliced in mapping order (extents tile the page); then the
// whole batch is joined once and charged by the data path's error rule: a
// backend that failed is charged once, however many of its legs did, and
// one that served every leg has its count reset. Nothing more is issued to
// a backend after its first failure; the pages that leaves unserved, and
// those with a failed leg, come back in redo with the first error.
//
// A page that cannot be mapped — outside the volume, every replica
// masked, a striped extent on a backend that is not up — fails the call:
// issuing stops, what is in flight is still waited out and charged, and
// redo is nil, for there is nothing a retry could map differently.
func (v *Vault) mappedIO(kind ioKind, offs []int64, bufs [][]byte, todo []retry, harvested func(page int)) (redo []retry, first error) {
	n := len(offs)
	if todo != nil {
		n = len(todo)
	}
	f := fanout{v: v, harvested: harvested}
	if n > inlineFan {
		f.legs = make([]leg, 0, n)
	}
	for k := 0; k < n; k++ {
		pg := retry{k, -1}
		if todo != nil {
			pg = todo[k]
		}
		f.page = pg.page
		buf := bufs[f.page]
		var ext []volume.Extent
		if ext, first = v.mapPage(kind, offs[f.page], len(buf), pg.failed); first != nil {
			break
		}
		for _, e := range ext {
			b := v.backends[e.Disk]
			st, _ := b.streams()
			if f.out(b.idx).err != nil || f.add(b, st, kind, e.Offset, buf[:e.Length]) != nil {
				f.giveUp(b)
				break
			}
			buf = buf[e.Length:]
		}
	}
	f.join(v.cfg.IOTimeout)
	for i, b := range v.backends {
		switch o := f.out(i); {
		case !o.used:
		case o.err == nil:
			b.consec.Store(0)
		default:
			v.recordError(b, &b.consec, o.err)
			if first == nil {
				first, redo = fmt.Errorf("vvault: backend %s: %w", b.addr, o.err), f.redo
			}
		}
	}
	return redo, first
}

// mapPage maps one page of a data-path call to its extents and checks that
// they can be issued. failed is the backend that failed the page on the
// call's last attempt, -1 on the first.
func (v *Vault) mapPage(kind ioKind, off int64, n int, failed int) ([]volume.Extent, error) {
	var ext []volume.Extent
	var err error
	switch {
	case kind == ioWrite:
		ext, err = v.layout.MapWrite(off, n)
	case failed >= 0: // a retry, which only a mirror makes
		ext, err = v.mirror.MapReadAfter(off, n, failed)
	default:
		ext, err = v.layout.MapRead(off, n)
	}
	if errors.Is(err, volume.ErrNoReplica) {
		return nil, fmt.Errorf("%w: every replica is down (%v)", ErrDegraded, err)
	}
	if err != nil || v.mirror != nil {
		return ext, err
	}
	for _, e := range ext {
		if st := v.backends[e.Disk].state.Load(); st != stateUp {
			return nil, fmt.Errorf("%w: striped %v [%d,+%d) needs backend %s, which is %s",
				ErrDegraded, kind, off, n, v.backends[e.Disk].addr, stateName(st))
		}
	}
	return ext, nil
}

// writeMirror fans a write out to every replica and sequences the
// outcome in the replication log: one record per acknowledged write,
// appended at completion (so a cursor can never pass a record its
// replica did not really apply), while every replica's ioMu read lock
// is still held — the resync worker's final caught-up check takes the
// write side, so it cannot declare a replica clean while a write that
// will append a record is in flight. Replicas that were down or
// resyncing need nothing logged per replica: the record sits above
// their frozen cursor, which IS the debt. A live replica that fails
// mid-write has the suspect range recorded as out-of-band debt and is
// tripped on the spot: it must be masked from reads before it can serve
// that staleness back. The write succeeds when at least one
// replica accepted every byte.
func (v *Vault) writeMirror(off int64, data []byte) error {
	// Over the single-member inner layout the mirror maps [off,+len) to off
	// on every replica, which is what the loop below issues: the range
	// check is all that is left of the mapping.
	if err := volume.CheckRange(v.layout.Size(), off, len(data)); err != nil {
		return err
	}
	f := fanout{v: v}
	for i, b := range v.backends {
		b.ioMu.RLock() // held until the outcome is sequenced below
		if b.state.Load() != stateUp {
			continue
		}
		// Capture the consumer generation at issue: if the replica trips
		// while the write is in flight, the late ack carries a stale gen
		// and is discarded — the record stays above the rolled-back
		// cursor as replay debt instead.
		f.out(i).gen = b.cur.Gen()
		st, _ := b.streams()
		f.add(b, st, ioWrite, off, data)
	}
	f.join(v.cfg.IOTimeout)

	succeeded := f.used - f.failed
	var seq uint64
	if succeeded > 0 {
		seq = v.rlog.Append(off, int64(len(data)))
	}
	for i, b := range v.backends {
		switch o := f.out(i); {
		case !o.used:
		case o.err != nil:
			b.cur.Fail(off, int64(len(data)))
		default:
			b.consec.Store(0)
			b.cur.Ack(seq, o.gen)
		}
	}
	for _, b := range v.backends {
		b.ioMu.RUnlock()
	}
	var detail error
	for i, b := range v.backends {
		if err := f.out(i).err; err != nil {
			detail = fmt.Errorf("backend %s: %w", b.addr, err)
			v.trip(b, fmt.Errorf("mirror write [%d,+%d): %w", off, len(data), err))
		}
	}
	if succeeded < len(v.backends) {
		v.degradedWrites.Add(1)
	}
	if succeeded == 0 {
		if detail == nil {
			detail = errors.New("every replica is down")
		}
		return fmt.Errorf("%w: mirror write [%d,+%d) reached no replica: %v",
			ErrDegraded, off, len(data), detail)
	}
	return nil
}

// Stats are cumulative cluster-level counters.
type Stats struct {
	// DegradedReads and DegradedWrites count operations served while at
	// least one replica was masked from reads.
	DegradedReads  int64
	DegradedWrites int64
	// Resyncs counts recovery passes started. ResyncedBytes is net
	// recovery progress — bytes brought back in sync, counted once per
	// outage no matter how many passes re-ran them — while
	// ResyncReplayedBytes is the gross replay traffic (stalls and
	// requeued passes re-count).
	Resyncs             int64
	ResyncedBytes       int64
	ResyncReplayedBytes int64
	// ResyncFallbacks counts catch-up passes (replica or feed) that
	// could not be served as precise record replay from a cursor —
	// the log had been truncated past it — and used the extent-merge
	// summary or full volume range instead.
	ResyncFallbacks int64
	// DegradedSeconds is cumulative wall time with at least one replica
	// masked from reads (mirror mode), including any open interval.
	DegradedSeconds float64
}

// Stats returns cumulative counters.
func (v *Vault) Stats() Stats {
	s := Stats{
		DegradedReads:       v.degradedReads.Load(),
		DegradedWrites:      v.degradedWrites.Load(),
		Resyncs:             v.resyncs.Load(),
		ResyncedBytes:       v.resyncedBytes.Load(),
		ResyncReplayedBytes: v.resyncReplayed.Load(),
		DegradedSeconds:     v.degradedTime().Seconds(),
	}
	if v.rlog != nil {
		s.ResyncFallbacks = v.rlog.Stats().Fallbacks
	}
	return s
}

// Credits returns the vault's aggregate foreground credit window: the
// sum over backends of the data stream's window. It is the cluster's
// negotiated-credit-window equivalent — callers fanning a batch of page
// reads out over the vault should clamp their outstanding-request count
// to it, the same rule the single-session netv3 path applies with
// Stream.Credits.
func (v *Vault) Credits() int {
	total := 0
	for _, b := range v.backends {
		if st, _ := b.streams(); st != nil {
			total += st.Credits()
		}
	}
	if total <= 0 {
		total = 1
	}
	return total
}

// BackendStatus is one backend's health snapshot.
type BackendStatus struct {
	Addr        string
	State       string
	Consecutive int   // consecutive errors toward the trip threshold (worse of data path and probe)
	Trips       int64 // times this backend went Down
	Reconnects  int64 // netv3 session re-establishments on the current client
	DirtyRanges int   // extents awaiting resync (mirror mode)
	DirtyBytes  int64 // bytes awaiting resync (mirror mode)
	// LogCursor and LogWatermark are the replica's positions in the
	// replication log (mirror mode): every record ≤ LogCursor is applied
	// to the replica, every record ≤ LogWatermark is covered by a
	// successful flush barrier. UnflushedBytes is the byte coverage in
	// between — what a crash right now would cost this replica.
	LogCursor      uint64
	LogWatermark   uint64
	UnflushedBytes int64
	// LastProbeRTT is the most recent successful health probe's round
	// trip (0 before the first success).
	LastProbeRTT time.Duration
	// DataStream and ResyncStream are the ids of the streams the backend's
	// client I/O and resync replay ride; ResyncStream is 0, the session's
	// root, in stripe mode, which has no resync.
	DataStream   uint32
	ResyncStream uint32
	// StreamCredits is the data stream's credit window (0 without a
	// client).
	StreamCredits int
	// FramesSent and WireWrites are the current client's frame-writer
	// counters: sub-I/O frames put on this backend's socket and the
	// socket writes that carried them.
	FramesSent int64
	WireWrites int64
}

// Status snapshots every backend's health, in address order.
func (v *Vault) Status() []BackendStatus {
	out := make([]BackendStatus, len(v.backends))
	for i, b := range v.backends {
		consec := b.consec.Load()
		if p := b.probeConsec.Load(); p > consec {
			consec = p
		}
		s := BackendStatus{
			Addr:         b.addr,
			State:        stateName(b.state.Load()),
			Consecutive:  int(consec),
			Trips:        b.trips.Load(),
			LastProbeRTT: time.Duration(b.lastProbeRTT.Load()),
		}
		b.mu.Lock()
		if b.client != nil {
			cs := b.client.Stats()
			s.Reconnects, s.FramesSent, s.WireWrites = cs.Reconnects, cs.FramesSent, cs.WireWrites
			s.DataStream, s.StreamCredits = b.data.ID(), b.data.Credits()
			s.ResyncStream = b.rsync.ID()
		}
		b.mu.Unlock()
		if b.cur != nil {
			cs := b.cur.Stats()
			s.DirtyRanges, s.DirtyBytes = cs.DirtyRanges, cs.DirtyBytes
			s.LogCursor, s.LogWatermark = cs.Pos, cs.Durable
			s.UnflushedBytes = cs.UnflushedBytes
		}
		out[i] = s
	}
	return out
}

// ErrNoLog reports an operation that needs the replication log on a
// vault that has none (stripe mode).
var ErrNoLog = errors.New("vvault: no replication log (stripe mode)")

// Subscribe opens a cursor-resumable change feed over the mirror's
// replication log, from the beginning: the first batch covers
// everything the subscriber has never seen (for a fresh clone, the full
// volume as a fallback extent), then precise records, then the live
// tail via the feed's Wait. Batches are idempotent range copies, so a
// consumer that applies durably before committing can crash and resume.
func (v *Vault) Subscribe(name string) (*repl.Feed, error) {
	return v.SubscribeAt(name, 0)
}

// SubscribeAt is Subscribe resuming from a previously committed cursor.
func (v *Vault) SubscribeAt(name string, from uint64) (*repl.Feed, error) {
	if v.rlog == nil {
		return nil, ErrNoLog
	}
	return v.rlog.SubscribeAt(name, from), nil
}

// LogStatus snapshots the replication log (mirror mode; zero in stripe
// mode).
func (v *Vault) LogStatus() repl.LogStats {
	if v.rlog == nil {
		return repl.LogStats{}
	}
	return v.rlog.Stats()
}

// FeedCursors snapshots every open feed's committed cursor by name
// (mirror mode; nil in stripe mode).
func (v *Vault) FeedCursors() map[string]uint64 {
	if v.rlog == nil {
		return nil
	}
	return v.rlog.FeedCursors()
}
