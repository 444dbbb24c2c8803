package netv3

import (
	"sync"
	"sync/atomic"

	"github.com/v3storage/v3/internal/obs"
)

// This file is the server's shared request scheduler — where every
// request that can touch the store runs. The paper's server (Section 4)
// multiplexes many database sessions onto a small set of VIs and a fixed
// worker pool; the TCP analogue here is one bounded pool draining
// per-tenant queues in two QoS lanes:
//
//   - foreground: client read misses, writes the session loop could not
//     absorb, and flushes — the latency-sensitive traffic whose p99 must
//     stay flat as logical sessions scale to 10k+.
//   - background: requests whose stream id carries the class bit
//     wire.StreamBackground (resync-style utility traffic), and nothing
//     else: the server's own destage passes and read-ahead fills run on the
//     goroutines their volume already owns.
//
// The foreground lane has strict priority, except that every
// bgStarvationStride-th pop takes background work first so a saturated
// foreground can never starve a resync indefinitely.
//
// Isolation runs the other way too: at most workers-1 background tasks
// execute concurrently, so a convoy of background work (e.g. resync writes
// past the dirty watermark serializing on the destage mutex) can never
// occupy every worker — one is always free the moment foreground work arrives.
// Without the reservation a saturated background lane adds its whole
// convoy length to the foreground p99; with it the foreground wait is
// bounded by its own service time. The cap is lifted during close so
// shutdown still drains the background lane.
//
// Within a lane, tenants (one per logical stream, keyed sessID<<32|stream)
// are drained round-robin, one task per visit, so one chatty stream cannot
// monopolize the pool while 9,999 idle-ish streams each wait for a single
// request — the mechanism that keeps p99 flat under high session counts.
//
// Admission control sheds foreground work instead of queueing without
// bound: past the configured limit, tryEnqueue refuses and the session loop
// answers StatusEOverloaded with a retry-after hint sized to the backlog.

// bgStarvationStride makes every N-th worker pop service the background
// lane even when foreground work is pending.
const bgStarvationStride = 16

// tenantKey names one logical stream's scheduler queue.
func tenantKey(sess uint64, stream uint32) uint64 {
	return sess<<32 | uint64(stream)
}

// schedTask is one unit of deferred work.
type schedTask struct {
	run func()
	enq int64 // obs.Now at enqueue; zero when metrics are off
}

// tenantQ is one tenant's FIFO within a lane. head indexes the next task
// so dequeue is O(1) without reslicing the backing array away from reuse.
type tenantQ struct {
	key    uint64
	head   int
	tasks  []schedTask
	queued bool // on the lane's active ring
}

// laneQ is one QoS lane: the active-tenant ring plus the tenant registry.
// All access is under the scheduler mutex.
type laneQ struct {
	tenants map[uint64]*tenantQ
	ring    []*tenantQ
	next    int // ring index of the current round-robin position
	n       int // total queued tasks across tenants
}

func newLaneQ() laneQ { return laneQ{tenants: make(map[uint64]*tenantQ)} }

// enqueue appends t to the tenant's FIFO, activating the tenant if idle.
func (l *laneQ) enqueue(key uint64, t schedTask) {
	tq := l.tenants[key]
	if tq == nil {
		tq = &tenantQ{key: key}
		l.tenants[key] = tq
	}
	tq.tasks = append(tq.tasks, t)
	l.n++
	if !tq.queued {
		tq.queued = true
		l.ring = append(l.ring, tq)
	}
}

// pop removes one task by round-robin: the tenant at the ring position
// yields one task per visit, then the position advances. Call only when
// l.n > 0.
func (l *laneQ) pop() schedTask {
	for {
		tq := l.ring[l.next]
		if tq.head >= len(tq.tasks) {
			l.removeAt(l.next)
			continue
		}
		t := tq.tasks[tq.head]
		tq.tasks[tq.head] = schedTask{} // release the closure
		tq.head++
		l.n--
		if tq.head >= len(tq.tasks) {
			tq.tasks = tq.tasks[:0]
			tq.head = 0
			l.removeAt(l.next)
		} else {
			l.next = (l.next + 1) % len(l.ring)
		}
		return t
	}
}

// removeAt drops the ring entry at i (swap-remove) and retires the tenant
// from the registry so 10k churning streams don't accrete dead queues.
func (l *laneQ) removeAt(i int) {
	tq := l.ring[i]
	tq.queued = false
	delete(l.tenants, tq.key)
	last := len(l.ring) - 1
	l.ring[i] = l.ring[last]
	l.ring[last] = nil
	l.ring = l.ring[:last]
	if l.next >= len(l.ring) {
		l.next = 0
	}
}

// sched is the shared scheduler instance; one per server.
type sched struct {
	s       *Server
	workers int
	limit   int // max queued foreground tasks before admission sheds

	mu        sync.Mutex
	cond      *sync.Cond
	fg, bg    laneQ
	bgRunning int // background tasks currently executing
	bgMax     int // cap on bgRunning (workers-1; min 1) — the fg reservation
	closed    bool
	wg        sync.WaitGroup

	shed        atomic.Int64 // foreground tasks refused by admission control
	fgDone      atomic.Int64
	bgDone      atomic.Int64
	strideFires atomic.Int64 // bg pops taken while fg work was pending (anti-starvation)
}

func newSched(s *Server, workers, limit int) *sched {
	if limit <= 0 {
		limit = workers * 256
	}
	bgMax := workers - 1
	if bgMax < 1 {
		bgMax = 1
	}
	sc := &sched{s: s, workers: workers, limit: limit, bgMax: bgMax, fg: newLaneQ(), bg: newLaneQ()}
	sc.cond = sync.NewCond(&sc.mu)
	sc.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go sc.worker()
	}
	return sc
}

// tryEnqueue queues run under the tenant's lane. A false return means the
// task was NOT accepted: either admission shed it (queued reports the
// foreground backlog for the retry hint) or the scheduler is closed
// (queued == 0); either way the caller fails the request. Background
// enqueues are never shed — their depth is bounded by their producers'
// credit windows.
func (sc *sched) tryEnqueue(key uint64, bg bool, run func()) (ok bool, queued int) {
	var enq int64
	if sc.s.om != nil {
		enq = obs.Now()
	}
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return false, 0
	}
	l := &sc.fg
	if bg {
		l = &sc.bg
	} else if sc.fg.n >= sc.limit {
		n := sc.fg.n
		sc.mu.Unlock()
		sc.shed.Add(1)
		return false, n
	}
	l.enqueue(key, schedTask{run: run, enq: enq})
	sc.mu.Unlock()
	sc.cond.Signal()
	return true, 0
}

// retryAfterMS sizes the shed hint to the backlog: roughly how long the
// queue needs to drain at one task per worker per ~16 queue lengths, so a
// deeper pileup pushes retries further out.
func (sc *sched) retryAfterMS(queued int) uint16 {
	ms := 1 + queued/(sc.workers*16)
	if ms > 60000 {
		ms = 60000
	}
	return uint16(ms)
}

func (sc *sched) worker() {
	defer sc.wg.Done()
	tick := 0
	for {
		sc.mu.Lock()
		for {
			// Background work is poppable only while under the concurrency
			// cap (lifted at close so shutdown drains the lane).
			bgReady := sc.bg.n > 0 && (sc.bgRunning < sc.bgMax || sc.closed)
			if sc.fg.n > 0 || bgReady {
				break
			}
			if sc.closed {
				sc.mu.Unlock() // drained (or only capped bg left — impossible when closed)
				return
			}
			sc.cond.Wait()
		}
		tick++
		var t schedTask
		fromBG := false
		if sc.bg.n > 0 && (sc.bgRunning < sc.bgMax || sc.closed) &&
			(sc.fg.n == 0 || tick%bgStarvationStride == 0) {
			if sc.fg.n > 0 {
				sc.strideFires.Add(1) // bg taken ahead of pending fg: the starvation guard fired
			}
			t = sc.bg.pop()
			fromBG = true
			sc.bgRunning++
		} else {
			t = sc.fg.pop()
		}
		sc.mu.Unlock()
		if t.enq != 0 {
			d := obs.Now() - t.enq
			if fromBG {
				sc.s.om.schedBGWait.Observe(d)
			} else {
				sc.s.om.schedFGWait.Observe(d)
			}
		}
		t.run()
		if fromBG {
			sc.mu.Lock()
			sc.bgRunning--
			sc.mu.Unlock()
			sc.cond.Signal() // a bg slot freed; wake a capped waiter
			sc.bgDone.Add(1)
		} else {
			sc.fgDone.Add(1)
		}
	}
}

// close stops admissions, drains both lanes, and waits out the workers.
func (sc *sched) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
	sc.cond.Broadcast()
	sc.wg.Wait()
}

// SchedStats is a snapshot of the shared scheduler.
type SchedStats struct {
	Workers     int
	FGQueued    int   // foreground tasks waiting
	BGQueued    int   // background tasks waiting
	FGTenants   int   // tenants with queued foreground work
	BGTenants   int   // tenants with queued background work
	FGDone      int64 // foreground tasks completed
	BGDone      int64 // background tasks completed
	Shed        int64 // foreground tasks refused by admission control
	StrideFires int64 // anti-starvation pops (bg taken while fg was pending)
}

// SchedStats returns scheduler counters.
func (s *Server) SchedStats() SchedStats {
	sc := s.sched
	sc.mu.Lock()
	st := SchedStats{
		Workers:  sc.workers,
		FGQueued: sc.fg.n, BGQueued: sc.bg.n,
		FGTenants: len(sc.fg.tenants), BGTenants: len(sc.bg.tenants),
	}
	sc.mu.Unlock()
	st.FGDone = sc.fgDone.Load()
	st.BGDone = sc.bgDone.Load()
	st.Shed = sc.shed.Load()
	st.StrideFires = sc.strideFires.Load()
	return st
}

// SchedTenantStat is one tenant's live scheduler queue state.
type SchedTenantStat struct {
	Key    uint64 // sessID<<32|stream
	BG     bool   // which lane the queue lives in
	Queued int    // tasks waiting
}

// SchedTenants snapshots every tenant with queued work, foreground lane
// first. Nil when the scheduler is idle — tenants retire the moment their
// queues drain, so this is the transient backlog, not a roster of
// connected streams.
func (s *Server) SchedTenants() []SchedTenantStat {
	sc := s.sched
	var out []SchedTenantStat
	sc.mu.Lock()
	for _, l := range []*laneQ{&sc.fg, &sc.bg} {
		for _, tq := range l.tenants {
			out = append(out, SchedTenantStat{
				Key: tq.key, BG: l == &sc.bg,
				Queued: len(tq.tasks) - tq.head,
			})
		}
	}
	sc.mu.Unlock()
	return out
}
