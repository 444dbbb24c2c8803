package netv3

import (
	"cmp"
	"sync"
	"sync/atomic"

	"github.com/v3storage/v3/internal/obs"
)

// Read-ahead sizing: a detected stream starts at minPrefetchBlocks of
// read-ahead and doubles per trigger up to maxPrefetchBlocks (256 KB
// with 8 KB blocks), so short scans stay cheap and long scans keep the
// disk ahead of the client.
const (
	minPrefetchBlocks = 8
	maxPrefetchBlocks = 32
	// prefetchStreak is how many back-to-back stream-continuing reads arm
	// read-ahead; one adjacency is too weak a signal.
	prefetchStreak = 2
	// maxPrefetchStride bounds the byte distance between consecutive read
	// starts that still counts as a strided stream — wider gaps cover so
	// little of the region per cached byte that read-ahead is a net loss.
	maxPrefetchStride = 64 * cacheBlockSize
)

// prefetcher is per-session read-stream detection, the server-side
// read-ahead of the paper's pipelined disk path. Two stream shapes arm
// it: pure sequential scans (recovery, table scans) and constant-stride
// scans (index range scans with a fixed fan-out, column projections of
// fixed-width rows). A detected stream lets the disk run ahead of the
// client's request window. State is only touched by the session
// goroutine; no locking.
type prefetcher struct {
	vol     uint32
	lastOff int64 // previous read's start offset
	length  int64 // previous read's length
	nextOff int64 // offset that would continue a sequential stream
	stride  int64 // byte delta between the two most recent read starts
	streak  int   // consecutive stream-continuing reads observed

	ahead    uint64 // sequential: first block NOT yet requested for read-ahead
	aheadOff int64  // strided: next predicted read start NOT yet requested
	degree   int    // window size per trigger, doubling to maxPrefetchBlocks
	started  bool

	// emitted remembers the blocks of this stream's recent windows,
	// oldest first, so that when the stream dies its not-yet-consumed
	// read-ahead can be discarded instead of squatting on cache slots
	// (and on the prefetch residency budget) until eviction gets to it.
	emitted []uint64
}

// maxEmitted bounds the emitted ring; the oldest entries it sheds are
// the ones the stream has long since consumed (discard skips consumed
// blocks anyway, so shedding them early costs nothing).
const maxEmitted = 4 * maxPrefetchBlocks

// observe feeds one read into the detector and returns the blocks to
// prefetch, if a stream is established and has caught up with the
// previous read-ahead horizon. Sequential streams yield a contiguous
// window; strided streams yield the blocks under the next predicted
// read positions.
// cancel, returned when this read broke an established stream, is the
// dead stream's emitted read-ahead — the caller should hand it to
// prefetchDiscard so unconsumed speculation stops occupying the cache.
func (p *prefetcher) observe(vol uint32, off, length int64) (blks, cancel []uint64, ok bool) {
	seq := p.started && vol == p.vol && off == p.nextOff
	delta := off - p.lastOff
	strided := p.started && vol == p.vol && !seq &&
		delta == p.stride && delta != 0 &&
		delta > -maxPrefetchStride && delta < maxPrefetchStride
	if seq || strided {
		p.streak++
	} else {
		p.streak = 0
		// Slow-start with memory: a broken stream re-arms at half its old
		// window, not the minimum — scans that wrap (or skip a record)
		// resume the same cadence and should regain depth in one trigger.
		p.degree /= 2
		if p.degree < minPrefetchBlocks {
			p.degree = minPrefetchBlocks
		}
		p.ahead = 0
		p.aheadOff = 0
		cancel = p.emitted
		p.emitted = nil
	}
	if p.started && vol == p.vol {
		p.stride = delta
	} else {
		p.stride = 0
	}
	p.vol = vol
	p.lastOff = off
	p.length = length
	p.nextOff = off + length
	p.started = true
	if p.streak < prefetchStreak {
		return nil, cancel, false
	}
	if seq {
		blks, ok = p.sequentialWindow(off, length)
	} else {
		blks, ok = p.stridedWindow(off, length)
	}
	if ok {
		p.emitted = append(p.emitted, blks...)
		if n := len(p.emitted) - maxEmitted; n > 0 {
			p.emitted = p.emitted[n:]
		}
	}
	return blks, cancel, ok
}

// sequentialWindow advances the contiguous read-ahead horizon.
func (p *prefetcher) sequentialWindow(off, length int64) (blks []uint64, ok bool) {
	// First block at or past the read's end — the stream's frontier.
	frontier := uint64((off + length + cacheBlockSize - 1) / cacheBlockSize)
	if p.ahead < frontier {
		p.ahead = frontier
	}
	// Trigger only once the stream has consumed most of the previous
	// window: this keeps at most ~1.5 windows of read-ahead outstanding
	// instead of racing the horizon further away on every read.
	if p.ahead-frontier >= uint64(p.degree)/2 {
		return nil, false
	}
	n := p.degree
	if p.degree < maxPrefetchBlocks {
		p.degree *= 2
	}
	blks = make([]uint64, n)
	for i := range blks {
		blks[i] = p.ahead + uint64(i)
	}
	p.ahead += uint64(n)
	return blks, true
}

// stridedWindow advances the predicted-read horizon: future read starts
// extrapolate at the detected stride from the newest observed read, and
// a window covers every block those predicted reads would touch.
func (p *prefetcher) stridedWindow(off, length int64) (blks []uint64, ok bool) {
	steps := int64(0)
	if p.aheadOff != 0 {
		steps = (p.aheadOff - off) / p.stride // positive when the horizon is ahead
	}
	if steps <= 0 {
		p.aheadOff = off + p.stride
		steps = 1
	}
	// Refill while the horizon is within a full window of the stream:
	// a window's fill costs a device round, so the lead must cover one
	// or the stream catches the horizon and misses (pacing is in
	// predicted-read units; up to two windows stay outstanding).
	if steps > int64(p.degree) {
		return nil, false
	}
	reads := p.degree
	if p.degree < maxPrefetchBlocks {
		p.degree *= 2
	}
	last := ^uint64(0)
	for k := 0; k < reads && len(blks) < maxPrefetchBlocks; k++ {
		o := p.aheadOff
		if o < 0 {
			break // a descending scan ran off the front of the volume
		}
		end := o + length
		if end <= o {
			end = o + 1
		}
		for b := uint64(o) / cacheBlockSize; b <= uint64(end-1)/cacheBlockSize; b++ {
			if b != last && len(blks) < maxPrefetchBlocks {
				blks = append(blks, b)
				last = b
			}
		}
		p.aheadOff += p.stride
	}
	return blks, len(blks) > 0
}

// prefetchReq is one read-ahead window for the volume's prefetch
// worker: an ascending block list, contiguous for sequential streams,
// gapped for strided ones.
type prefetchReq struct {
	blks []uint64
}

// prefetchFillStreams is how many window fills a volume's prefetch
// worker keeps in flight at once. A fill is device-bound (one fan-out of
// store reads, then a join), so overlapping a few keeps read-ahead
// supply at device rate instead of one window per device round.
const prefetchFillStreams = 6

// prefetchWorker is the per-volume background read-ahead engine: one
// goroutine draining a small request channel, fanning out to a few
// concurrent fills, each a plan → store reads → install sequence (see
// fillBatched) on a goroutine of its own. Requests that arrive while the
// channel is full are dropped — read-ahead is best-effort and a demand
// miss is always correct, just slower.
type prefetchWorker struct {
	v       *volume
	reqs    chan prefetchReq
	stopped chan struct{} // closed when run() exits
	dropped atomic.Int64
}

func newPrefetchWorker(v *volume) *prefetchWorker {
	return &prefetchWorker{v: v, reqs: make(chan prefetchReq, 8), stopped: make(chan struct{})}
}

// submit queues a read-ahead window, dropping it if the worker is behind.
func (w *prefetchWorker) submit(blks []uint64) {
	select {
	case w.reqs <- prefetchReq{blks: blks}:
	default:
		w.dropped.Add(1)
	}
}

func (w *prefetchWorker) run(s *Server, done <-chan struct{}) {
	defer close(w.stopped)
	var fills sync.WaitGroup
	defer fills.Wait()
	sem := make(chan struct{}, prefetchFillStreams)
	for {
		select {
		case <-done:
			return
		case r := <-w.reqs:
			select {
			case sem <- struct{}{}:
			case <-done:
				return
			}
			fills.Add(1)
			go func() {
				defer fills.Done()
				defer func() { <-sem }()
				w.fillNow(s, r.blks)
			}()
		}
	}
}

// fillNow services one window on the calling goroutine. A window is
// dropped whole when unconsumed read-ahead already fills the cache's
// residency budget — fetching more would only evict earlier read-ahead
// (or demand state) before anything is consumed.
func (w *prefetchWorker) fillNow(s *Server, blks []uint64) {
	if c := w.v.cache; c.prefResident.Load() >= c.prefBudget {
		w.dropped.Add(1)
		return
	}
	var t0 int64
	if s.om != nil || s.flight != nil {
		t0 = obs.Now()
	}
	if err := w.fillBatched(s, blks); err != nil {
		// Best-effort: log and move on; the demand path will
		// surface a persistent store error to the client.
		s.logf("netv3: prefetch %d blocks from %d: %v", len(blks), blks[0], err)
	}
	if t0 != 0 {
		dur := obs.Now() - t0
		if s.om != nil {
			s.om.prefetchFill.Observe(dur)
		}
		// Flight attribution: the speculative fill's size and cost, so a
		// dump shows read-ahead competing with the demand traffic near it.
		s.flight.Record(fkPrefetch, 0, uint64(len(blks)), uint64(dur))
	}
}

// fillBatched reads one window from the store: the whole doubling window
// goes down as one fan-out (storeFanOut) — one read extent per maximal
// run of wanted, block-contiguous entries — with NO shard locks held
// across the device time, so read-ahead never stalls demand hits: the
// plan and install phases take the locks only briefly, and the epoch
// snapshot taken by prefetchPlan lets prefetchInstall drop any block a
// write raced past the unlocked read (a dropped block just misses
// later). Strided windows are where the fan-out earns its keep: a gapped
// window becomes a scatter of single-block reads issued together.
func (w *prefetchWorker) fillBatched(s *Server, blks []uint64) error {
	v := w.v
	c := v.cache
	var plan windowPlan
	if c.prefetchPlan(v, blks, &plan) == 0 {
		return nil
	}
	n := len(blks)
	buf := s.pool.Get(n * cacheBlockSize)
	defer s.pool.Put(buf)
	vsize := v.store.Size()
	var ops []storeOp
	var runs [][2]int // wanted-run [start index, block count] per op
	for i := 0; i < n; {
		if !plan.want[i] {
			i++
			continue
		}
		j := i + 1
		for j < n && plan.want[j] && blks[j] == blks[j-1]+1 {
			j++
		}
		off := int64(blks[i]) * cacheBlockSize
		ln := int64(j-i) * cacheBlockSize
		if off+ln > vsize {
			// The run ends in a partial tail block; reads only fill up to
			// vsize, so pre-zero the slack the install phase will copy out.
			ln = vsize - off
			clear(buf[int64(i)*cacheBlockSize+ln : int64(j)*cacheBlockSize])
		}
		ops = append(ops, storeOp{buf: buf[int64(i)*cacheBlockSize : int64(i)*cacheBlockSize+ln], off: off})
		runs = append(runs, [2]int{i, j - i})
		i = j
	}
	storeFanOut(ops, v.store.ReadAt)
	var firstErr error
	for oi, run := range runs {
		if err := ops[oi].err; err != nil {
			firstErr = cmp.Or(firstErr, err)
			clear(plan.want[run[0] : run[0]+run[1]]) // nothing of a failed read installs
		}
	}
	c.prefetchInstall(blks, &plan, buf)
	return firstErr
}
