package mqcache

// The list-based MQ and LRU, kept verbatim (renamed) from before the caches
// moved onto slabs: the oracle the differential tests hold the slab
// implementations to, step for step.

import "container/list"

type listMQEntry struct {
	key     uint64
	refs    int   // reference count (drives queue index)
	expire  int64 // currentTime + lifeTicks when (re)queued
	queue   int   // which Qi the entry sits in
	pinned  bool  // exempt from victim selection (e.g. dirty, being flushed)
	element *list.Element
}

// listMQ is the Multi-Queue cache.
type listMQ struct {
	capacity  int
	numQueues int
	lifeTicks int64

	queues  []*list.List // Q0..Qm-1, each LRU (front = MRU)
	entries map[uint64]*listMQEntry

	qout     *list.List // ghost queue of evicted keys (stores listMQEntry w/o residency)
	qoutMap  map[uint64]*listMQEntry
	qoutCap  int
	now      int64 // logical time in accesses
	hits     int64
	accesses int64
	pinned   int // resident entries currently pinned
}

// newListMQ returns an MQ cache holding capacity blocks, with numQueues
// frequency levels and the given per-queue lifetime in accesses. Zero
// numQueues/lifeTicks select the defaults. The ghost queue remembers as
// many evicted keys as the cache holds blocks (the MQ paper's setting).
func newListMQ(capacity, numQueues int, lifeTicks int64) *listMQ {
	if capacity <= 0 {
		panic("mqcache: capacity must be positive")
	}
	if numQueues <= 0 {
		numQueues = DefaultNumQueues
	}
	if lifeTicks <= 0 {
		lifeTicks = DefaultLifeTicks
	}
	m := &listMQ{
		capacity:  capacity,
		numQueues: numQueues,
		lifeTicks: lifeTicks,
		queues:    make([]*list.List, numQueues),
		entries:   make(map[uint64]*listMQEntry),
		qout:      list.New(),
		qoutMap:   make(map[uint64]*listMQEntry),
		qoutCap:   capacity,
	}
	for i := range m.queues {
		m.queues[i] = list.New()
	}
	return m
}

// queueIndex maps a reference count to its queue: floor(log2(refs)),
// clamped to the top queue.
func (m *listMQ) queueIndex(refs int) int {
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
func (m *listMQ) Ref(key uint64) bool {
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
func (m *listMQ) requeue(e *listMQEntry) {
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
func (m *listMQ) adjust() {
	for q := 1; q < m.numQueues; q++ {
		back := m.queues[q].Back()
		if back == nil {
			continue
		}
		e := back.Value.(*listMQEntry)
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
func (m *listMQ) Insert(key uint64) (uint64, bool) {
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
func (m *listMQ) TryInsert(key uint64) (victim uint64, wasEvict, inserted bool) {
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
	e := &listMQEntry{key: key, refs: refs, expire: m.now + m.lifeTicks}
	e.queue = m.queueIndex(refs)
	e.element = m.queues[e.queue].PushFront(e)
	m.entries[key] = e
	return victim, wasEvict, true
}

// evict removes the least-valuable unpinned block — walking each queue
// from its LRU end upward, lowest queue first — and remembers it in the
// ghost queue. Returns false if every resident entry is pinned.
func (m *listMQ) evict() (uint64, bool) {
	if len(m.entries) == 0 {
		panic("mqcache: evict on empty cache")
	}
	if m.pinned >= len(m.entries) {
		return 0, false
	}
	for q := 0; q < m.numQueues; q++ {
		for el := m.queues[q].Back(); el != nil; el = el.Prev() {
			e := el.Value.(*listMQEntry)
			if e.pinned {
				continue
			}
			m.queues[q].Remove(e.element)
			delete(m.entries, e.key)
			// Remember in Qout.
			ghost := &listMQEntry{key: e.key, refs: e.refs}
			ghost.element = m.qout.PushFront(ghost)
			m.qoutMap[e.key] = ghost
			if m.qout.Len() > m.qoutCap {
				oldest := m.qout.Back()
				g := oldest.Value.(*listMQEntry)
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
func (m *listMQ) Pin(key uint64) bool {
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
func (m *listMQ) Unpin(key uint64) bool {
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
func (m *listMQ) PinnedLen() int { return m.pinned }

// RefOrInsert implements Cache.
func (m *listMQ) RefOrInsert(key uint64) (bool, uint64, bool) {
	if m.Ref(key) {
		return true, 0, false
	}
	victim, evicted := m.Insert(key)
	return false, victim, evicted
}

// RefOrTryInsert is RefOrInsert with TryInsert's refusal semantics: on a
// miss with the cache full of pinned entries it reports inserted ==
// false and leaves the cache untouched (beyond the access tick).
func (m *listMQ) RefOrTryInsert(key uint64) (hit bool, victim uint64, wasEvict, inserted bool) {
	if m.Ref(key) {
		return true, 0, false, false
	}
	victim, wasEvict, inserted = m.TryInsert(key)
	return false, victim, wasEvict, inserted
}

// Contains implements Cache.
func (m *listMQ) Contains(key uint64) bool { _, ok := m.entries[key]; return ok }

// Remove implements Cache.
func (m *listMQ) Remove(key uint64) bool {
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
func (m *listMQ) Len() int { return len(m.entries) }

// Cap implements Cache.
func (m *listMQ) Cap() int { return m.capacity }

// HitRatio returns hits/accesses since creation.
func (m *listMQ) HitRatio() float64 {
	if m.accesses == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.accesses)
}

// GhostLen returns the current ghost-queue population (for tests).
func (m *listMQ) GhostLen() int { return m.qout.Len() }

// listLRU is a plain least-recently-used cache, the ablation baseline for the
// V3 server cache (BenchmarkAblationCache).
type listLRU struct {
	capacity int
	order    *list.List // front = MRU
	entries  map[uint64]*list.Element
	hits     int64
	accesses int64
}

// newListLRU returns an LRU cache holding capacity blocks.
func newListLRU(capacity int) *listLRU {
	if capacity <= 0 {
		panic("mqcache: capacity must be positive")
	}
	return &listLRU{capacity: capacity, order: list.New(), entries: make(map[uint64]*list.Element)}
}

// Ref implements Cache.
func (l *listLRU) Ref(key uint64) bool {
	l.accesses++
	el, ok := l.entries[key]
	if !ok {
		return false
	}
	l.hits++
	l.order.MoveToFront(el)
	return true
}

// Insert implements Cache.
func (l *listLRU) Insert(key uint64) (uint64, bool) {
	if _, ok := l.entries[key]; ok {
		return 0, false
	}
	var victim uint64
	evicted := false
	if len(l.entries) >= l.capacity {
		back := l.order.Back()
		victim = back.Value.(uint64)
		l.order.Remove(back)
		delete(l.entries, victim)
		evicted = true
	}
	l.entries[key] = l.order.PushFront(key)
	return victim, evicted
}

// RefOrInsert implements Cache.
func (l *listLRU) RefOrInsert(key uint64) (bool, uint64, bool) {
	if l.Ref(key) {
		return true, 0, false
	}
	victim, evicted := l.Insert(key)
	return false, victim, evicted
}

// Contains implements Cache.
func (l *listLRU) Contains(key uint64) bool { _, ok := l.entries[key]; return ok }

// Remove implements Cache.
func (l *listLRU) Remove(key uint64) bool {
	el, ok := l.entries[key]
	if !ok {
		return false
	}
	l.order.Remove(el)
	delete(l.entries, key)
	return true
}

// Len implements Cache.
func (l *listLRU) Len() int { return len(l.entries) }

// Cap implements Cache.
func (l *listLRU) Cap() int { return l.capacity }

// HitRatio returns hits/accesses since creation.
func (l *listLRU) HitRatio() float64 {
	if l.accesses == 0 {
		return 0
	}
	return float64(l.hits) / float64(l.accesses)
}
