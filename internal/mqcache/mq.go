// Package mqcache implements the Multi-Queue (MQ) replacement algorithm
// (Zhou, Philbin, Li — USENIX ATC 2001, the paper's reference [31]) that
// V3 storage nodes use for their large second-level buffer caches, plus a
// plain LRU used as an ablation baseline.
//
// MQ is designed for second-level caches, whose access stream has had
// its short-term locality stripped by the first-level (database buffer
// pool) cache: blocks are promoted through m LRU queues by access
// frequency (queue index = log2(references)), demoted when they outlive
// a per-queue lifetime, and remembered in a ghost queue (Qout) after
// eviction so a re-fetched block regains its old frequency.
//
// Keys are opaque uint64 block numbers. The caches store presence only;
// callers own the data and dirty-state bookkeeping.
package mqcache

import "container/list"

// Cache is a block-presence cache with a replacement policy.
type Cache interface {
	// Ref records an access to key and reports whether it hit.
	Ref(key uint64) bool
	// Insert adds key after a miss, returning the evicted key, if any.
	Insert(key uint64) (evicted uint64, wasEvict bool)
	// Contains reports presence without touching recency state.
	Contains(key uint64) bool
	// RefOrInsert combines Ref and Insert: it records an access, and on a
	// miss makes key resident, returning the evicted key, if any. Callers
	// that guard the cache with a lock (e.g. netv3's sharded block cache)
	// get the whole hit-or-fill decision in one critical section instead
	// of two lock round-trips.
	RefOrInsert(key uint64) (hit bool, evicted uint64, wasEvict bool)
	// Remove drops key, reporting whether it was present.
	Remove(key uint64) bool
	// Len returns the number of resident blocks; Cap the maximum.
	Len() int
	Cap() int
}

// Default MQ tuning, following the MQ paper.
const (
	DefaultNumQueues = 8
	// DefaultLifeTicks is the per-queue lifetime in cache accesses; the MQ
	// paper sets it to the observed temporal distance, for which peak
	// hit-ratio is robust over a wide range.
	DefaultLifeTicks = 32 * 1024
)

type mqEntry struct {
	key     uint64
	refs    int   // reference count (drives queue index)
	expire  int64 // currentTime + lifeTicks when (re)queued
	queue   int   // which Qi the entry sits in
	pinned  bool  // exempt from victim selection (e.g. dirty, being flushed)
	element *list.Element
}

// MQ is the Multi-Queue cache.
type MQ struct {
	capacity  int
	numQueues int
	lifeTicks int64

	queues  []*list.List // Q0..Qm-1, each LRU (front = MRU)
	entries map[uint64]*mqEntry

	qout     *list.List // ghost queue of evicted keys (stores mqEntry w/o residency)
	qoutMap  map[uint64]*mqEntry
	qoutCap  int
	now      int64 // logical time in accesses
	hits     int64
	accesses int64
	pinned   int // resident entries currently pinned
}

// NewMQ returns an MQ cache holding capacity blocks, with numQueues
// frequency levels and the given per-queue lifetime in accesses. Zero
// numQueues/lifeTicks select the defaults. The ghost queue remembers as
// many evicted keys as the cache holds blocks (the MQ paper's setting).
func NewMQ(capacity, numQueues int, lifeTicks int64) *MQ {
	if capacity <= 0 {
		panic("mqcache: capacity must be positive")
	}
	if numQueues <= 0 {
		numQueues = DefaultNumQueues
	}
	if lifeTicks <= 0 {
		lifeTicks = DefaultLifeTicks
	}
	m := &MQ{
		capacity:  capacity,
		numQueues: numQueues,
		lifeTicks: lifeTicks,
		queues:    make([]*list.List, numQueues),
		entries:   make(map[uint64]*mqEntry),
		qout:      list.New(),
		qoutMap:   make(map[uint64]*mqEntry),
		qoutCap:   capacity,
	}
	for i := range m.queues {
		m.queues[i] = list.New()
	}
	return m
}

// queueIndex maps a reference count to its queue: floor(log2(refs)),
// clamped to the top queue.
func (m *MQ) queueIndex(refs int) int {
	idx := 0
	for r := refs; r > 1; r >>= 1 {
		idx++
	}
	if idx >= m.numQueues {
		idx = m.numQueues - 1
	}
	return idx
}

// Ref records an access. On hit the block's reference count increments
// and it moves to the MRU end of its (possibly higher) queue.
func (m *MQ) Ref(key uint64) bool {
	m.now++
	m.accesses++
	m.adjust()
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	m.hits++
	e.refs++
	m.requeue(e)
	return true
}

// requeue puts a referenced entry at the MRU end of the queue its count
// selects. Most references stay in their queue (the index moves only when
// the count crosses a power of two, or after a demotion), and there the
// move reuses the list element instead of allocating a fresh one.
func (m *MQ) requeue(e *mqEntry) {
	e.expire = m.now + m.lifeTicks
	if q := m.queueIndex(e.refs); q != e.queue {
		m.queues[e.queue].Remove(e.element)
		e.queue = q
		e.element = m.queues[q].PushFront(e)
		return
	}
	m.queues[e.queue].MoveToFront(e.element)
}

// adjust implements MQ's lifetime demotion: the LRU block of each
// non-bottom queue whose lifetime expired moves down one queue.
func (m *MQ) adjust() {
	for q := 1; q < m.numQueues; q++ {
		back := m.queues[q].Back()
		if back == nil {
			continue
		}
		e := back.Value.(*mqEntry)
		if e.expire <= m.now {
			m.queues[q].Remove(e.element)
			e.queue = q - 1
			e.expire = m.now + m.lifeTicks
			e.element = m.queues[q-1].PushFront(e)
		}
	}
}

// Insert adds key after a miss. If the key is remembered in the ghost
// queue its old reference count is restored (plus one), placing it
// directly in a higher-frequency queue. Returns the victim, if one was
// evicted to make room. Callers that pin entries must use TryInsert
// instead: Insert panics if every resident entry is pinned and one must
// be evicted.
func (m *MQ) Insert(key uint64) (uint64, bool) {
	victim, wasEvict, inserted := m.TryInsert(key)
	if !inserted {
		if _, ok := m.entries[key]; ok {
			return 0, false // already resident; treat as no-op
		}
		panic("mqcache: Insert with every entry pinned (use TryInsert)")
	}
	return victim, wasEvict
}

// TryInsert adds key after a miss, like Insert, but refuses (inserted ==
// false, nothing evicted) when the cache is full and every resident
// entry is pinned. An already-resident key also reports inserted ==
// false with no eviction. With no pinned entries TryInsert behaves
// exactly like Insert.
func (m *MQ) TryInsert(key uint64) (victim uint64, wasEvict, inserted bool) {
	if _, ok := m.entries[key]; ok {
		return 0, false, false // already resident; treat as no-op
	}
	if len(m.entries) >= m.capacity {
		v, ok := m.evict()
		if !ok {
			return 0, false, false // every candidate pinned; refuse
		}
		victim, wasEvict = v, true
	}
	refs := 1
	if g, ok := m.qoutMap[key]; ok {
		refs = g.refs + 1
		m.qout.Remove(g.element)
		delete(m.qoutMap, key)
	}
	e := &mqEntry{key: key, refs: refs, expire: m.now + m.lifeTicks}
	e.queue = m.queueIndex(refs)
	e.element = m.queues[e.queue].PushFront(e)
	m.entries[key] = e
	return victim, wasEvict, true
}

// evict removes the least-valuable unpinned block — walking each queue
// from its LRU end upward, lowest queue first — and remembers it in the
// ghost queue. Returns false if every resident entry is pinned.
func (m *MQ) evict() (uint64, bool) {
	if len(m.entries) == 0 {
		panic("mqcache: evict on empty cache")
	}
	if m.pinned >= len(m.entries) {
		return 0, false
	}
	for q := 0; q < m.numQueues; q++ {
		for el := m.queues[q].Back(); el != nil; el = el.Prev() {
			e := el.Value.(*mqEntry)
			if e.pinned {
				continue
			}
			m.queues[q].Remove(e.element)
			delete(m.entries, e.key)
			// Remember in Qout.
			ghost := &mqEntry{key: e.key, refs: e.refs}
			ghost.element = m.qout.PushFront(ghost)
			m.qoutMap[e.key] = ghost
			if m.qout.Len() > m.qoutCap {
				oldest := m.qout.Back()
				g := oldest.Value.(*mqEntry)
				m.qout.Remove(oldest)
				delete(m.qoutMap, g.key)
			}
			return e.key, true
		}
	}
	return 0, false
}

// Pin exempts key from victim selection until Unpin. Reports whether the
// key is resident. Pinning an already-pinned key is a no-op.
func (m *MQ) Pin(key uint64) bool {
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	if !e.pinned {
		e.pinned = true
		m.pinned++
	}
	return true
}

// Unpin makes key evictable again. Reports whether the key is resident.
// Unpinning an unpinned key is a no-op.
func (m *MQ) Unpin(key uint64) bool {
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	if e.pinned {
		e.pinned = false
		m.pinned--
	}
	return true
}

// PinnedLen returns the number of resident pinned entries (for tests).
func (m *MQ) PinnedLen() int { return m.pinned }

// RefOrInsert implements Cache.
func (m *MQ) RefOrInsert(key uint64) (bool, uint64, bool) {
	if m.Ref(key) {
		return true, 0, false
	}
	victim, evicted := m.Insert(key)
	return false, victim, evicted
}

// RefOrTryInsert is RefOrInsert with TryInsert's refusal semantics: on a
// miss with the cache full of pinned entries it reports inserted ==
// false and leaves the cache untouched (beyond the access tick).
func (m *MQ) RefOrTryInsert(key uint64) (hit bool, victim uint64, wasEvict, inserted bool) {
	if m.Ref(key) {
		return true, 0, false, false
	}
	victim, wasEvict, inserted = m.TryInsert(key)
	return false, victim, wasEvict, inserted
}

// Contains implements Cache.
func (m *MQ) Contains(key uint64) bool { _, ok := m.entries[key]; return ok }

// Remove implements Cache.
func (m *MQ) Remove(key uint64) bool {
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	if e.pinned {
		m.pinned--
	}
	m.queues[e.queue].Remove(e.element)
	delete(m.entries, key)
	return true
}

// Len implements Cache.
func (m *MQ) Len() int { return len(m.entries) }

// Cap implements Cache.
func (m *MQ) Cap() int { return m.capacity }

// HitRatio returns hits/accesses since creation.
func (m *MQ) HitRatio() float64 {
	if m.accesses == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.accesses)
}

// GhostLen returns the current ghost-queue population (for tests).
func (m *MQ) GhostLen() int { return m.qout.Len() }
