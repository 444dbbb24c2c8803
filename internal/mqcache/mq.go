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
//
// Both caches keep their entries in a slab fixed at construction: the
// queues are doubly linked lists threaded through it by int32 index, a
// free list recycles the slots of removed keys, and one map finds a key's
// slot (MQ's ghost queue is a second slab with a map of its own). So no
// operation allocates beyond the occasional rehash of those maps.
//
// The slot is MQ's handle for a resident key, and the contract a caller
// may hang its own per-block state on: a key keeps its slot, numbered
// [0, Cap()), from the insert that makes it resident to the eviction or
// Remove that ends its residency, and the key an insert makes resident
// takes the slot of the victim it evicted. A caller holding a parallel
// []T indexed by slot therefore finds the victim's state in the new key's
// slot, to retire before it writes the new key's.
package mqcache

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

// NoSlot is the slot of no entry: a list's end, or a refused insert.
const NoSlot int32 = -1

// link threads a slab entry into one list by the slots of its neighbours.
type link struct{ prev, next int32 }

// slabList is a doubly linked list of slab slots, head the MRU end. Its links
// live in a []link parallel to the slab, passed to every operation.
type slabList struct {
	head, tail int32
	n          int
}

func newSlabList() slabList { return slabList{head: NoSlot, tail: NoSlot} }

func (l *slabList) pushFront(lk []link, i int32) {
	lk[i] = link{prev: NoSlot, next: l.head}
	if l.head != NoSlot {
		lk[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
	l.n++
}

func (l *slabList) remove(lk []link, i int32) {
	p, n := lk[i].prev, lk[i].next
	if p != NoSlot {
		lk[p].next = n
	} else {
		l.head = n
	}
	if n != NoSlot {
		lk[n].prev = p
	} else {
		l.tail = p
	}
	l.n--
}

func (l *slabList) moveToFront(lk []link, i int32) {
	if l.head != i {
		l.remove(lk, i)
		l.pushFront(lk, i)
	}
}

// freeSlots returns a stack of the slots [0, n), slot 0 on top.
func freeSlots(n int) []int32 {
	free := make([]int32, n)
	for i := range free {
		free[i] = int32(n - 1 - i)
	}
	return free
}

type mqEntry struct {
	key    uint64
	refs   int   // reference count (drives queue index)
	expire int64 // currentTime + lifeTicks when (re)queued
	queue  int32 // which Qi the entry sits in
	pinned bool  // exempt from victim selection (e.g. dirty, being flushed)
}

// ghost is an evicted key remembered in Qout with its reference count.
type ghost struct {
	key  uint64
	refs int
}

// MQ is the Multi-Queue cache.
type MQ struct {
	capacity  int
	numQueues int
	lifeTicks int64

	ents   []mqEntry  // the resident slab, indexed by slot
	lk     []link     // ents' links in their queue
	queues []slabList // Q0..Qm-1, each LRU (head = MRU)
	free   []int32    // slots no resident key holds
	slots  map[uint64]int32

	ghosts     []ghost // the ghost slab: Qout's entries
	glk        []link
	qout       slabList
	ghostFree  []int32
	ghostSlots map[uint64]int32
	qoutCap    int

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
		capacity:   capacity,
		numQueues:  numQueues,
		lifeTicks:  lifeTicks,
		ents:       make([]mqEntry, capacity),
		lk:         make([]link, capacity),
		queues:     make([]slabList, numQueues),
		free:       freeSlots(capacity),
		slots:      make(map[uint64]int32, capacity),
		ghosts:     make([]ghost, capacity),
		glk:        make([]link, capacity),
		qout:       newSlabList(),
		ghostFree:  freeSlots(capacity),
		ghostSlots: make(map[uint64]int32, capacity),
		qoutCap:    capacity,
	}
	for i := range m.queues {
		m.queues[i] = newSlabList()
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

// Slot returns the slot of a resident key, touching no recency state.
func (m *MQ) Slot(key uint64) (int32, bool) {
	s, ok := m.slots[key]
	return s, ok
}

// KeyAt returns the key resident in slot.
func (m *MQ) KeyAt(slot int32) uint64 { return m.ents[slot].key }

// Ref records an access. On hit the block's reference count increments
// and it moves to the MRU end of its (possibly higher) queue.
func (m *MQ) Ref(key uint64) bool {
	m.tick()
	s, ok := m.slots[key]
	if ok {
		m.hit(s)
	}
	return ok
}

// RefAt is Ref of the key resident in slot, which the caller looked up
// with Slot: the same access, without a second lookup.
func (m *MQ) RefAt(slot int32) {
	m.tick()
	m.hit(slot)
}

// tick advances logical time by one access and demotes what expired.
func (m *MQ) tick() {
	m.now++
	m.accesses++
	m.adjust()
}

// hit counts a reference to the entry in slot and requeues it: at the
// MRU end of the queue its count selects, with a fresh lifetime.
func (m *MQ) hit(slot int32) {
	m.hits++
	e := &m.ents[slot]
	e.refs++
	e.expire = m.now + m.lifeTicks
	if q := int32(m.queueIndex(e.refs)); q != e.queue {
		m.queues[e.queue].remove(m.lk, slot)
		e.queue = q
		m.queues[q].pushFront(m.lk, slot)
		return
	}
	m.queues[e.queue].moveToFront(m.lk, slot)
}

// adjust implements MQ's lifetime demotion: the LRU block of each
// non-bottom queue whose lifetime expired moves down one queue.
func (m *MQ) adjust() {
	for q := 1; q < m.numQueues; q++ {
		s := m.queues[q].tail
		if s == NoSlot {
			continue
		}
		if e := &m.ents[s]; e.expire <= m.now {
			m.queues[q].remove(m.lk, s)
			e.queue = int32(q - 1)
			e.expire = m.now + m.lifeTicks
			m.queues[q-1].pushFront(m.lk, s)
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
		if _, ok := m.slots[key]; ok {
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
	if _, ok := m.slots[key]; ok {
		return 0, false, false // already resident; treat as no-op
	}
	slot, victim, wasEvict := m.insertAbsent(key)
	return victim, wasEvict, slot != NoSlot
}

// insertAbsent makes a key that is not resident resident, in a free slot
// or in the slot of the victim it evicts. It returns NoSlot when the cache
// is full and every entry is pinned.
func (m *MQ) insertAbsent(key uint64) (slot int32, victim uint64, wasEvict bool) {
	if n := len(m.free); n > 0 {
		slot = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		if slot = m.evict(); slot == NoSlot {
			return NoSlot, 0, false // every candidate pinned; refuse
		}
		victim, wasEvict = m.ents[slot].key, true
	}
	refs := 1
	if g, ok := m.ghostSlots[key]; ok {
		refs = m.ghosts[g].refs + 1
		m.qout.remove(m.glk, g)
		delete(m.ghostSlots, key)
		m.ghostFree = append(m.ghostFree, g)
	}
	q := m.queueIndex(refs)
	m.ents[slot] = mqEntry{key: key, refs: refs, expire: m.now + m.lifeTicks, queue: int32(q)}
	m.queues[q].pushFront(m.lk, slot)
	m.slots[key] = slot
	return slot, victim, wasEvict
}

// evict removes the least-valuable unpinned block — walking each queue
// from its LRU end upward, lowest queue first — remembers it in the ghost
// queue and returns its slot, which still holds its entry. Returns NoSlot
// if every resident entry is pinned.
func (m *MQ) evict() int32 {
	if len(m.slots) == 0 {
		panic("mqcache: evict on empty cache")
	}
	if m.pinned >= len(m.slots) {
		return NoSlot
	}
	for q := range m.queues {
		for s := m.queues[q].tail; s != NoSlot; s = m.lk[s].prev {
			e := &m.ents[s]
			if e.pinned {
				continue
			}
			m.queues[q].remove(m.lk, s)
			delete(m.slots, e.key)
			m.remember(e.key, e.refs)
			return s
		}
	}
	return NoSlot
}

// remember puts an evicted key at the head of Qout, forgetting Qout's
// oldest key first when it is full.
func (m *MQ) remember(key uint64, refs int) {
	if m.qout.n >= m.qoutCap {
		g := m.qout.tail
		m.qout.remove(m.glk, g)
		delete(m.ghostSlots, m.ghosts[g].key)
		m.ghostFree = append(m.ghostFree, g)
	}
	n := len(m.ghostFree)
	g := m.ghostFree[n-1]
	m.ghostFree = m.ghostFree[:n-1]
	m.ghosts[g] = ghost{key: key, refs: refs}
	m.qout.pushFront(m.glk, g)
	m.ghostSlots[key] = g
}

// Pin exempts key from victim selection until Unpin. Reports whether the
// key is resident. Pinning an already-pinned key is a no-op.
func (m *MQ) Pin(key uint64) bool {
	s, ok := m.slots[key]
	if ok {
		m.PinAt(s)
	}
	return ok
}

// Unpin makes key evictable again. Reports whether the key is resident.
// Unpinning an unpinned key is a no-op.
func (m *MQ) Unpin(key uint64) bool {
	s, ok := m.slots[key]
	if ok {
		m.UnpinAt(s)
	}
	return ok
}

// PinAt is Pin of the key resident in slot.
func (m *MQ) PinAt(slot int32) {
	if e := &m.ents[slot]; !e.pinned {
		e.pinned = true
		m.pinned++
	}
}

// UnpinAt is Unpin of the key resident in slot.
func (m *MQ) UnpinAt(slot int32) {
	if e := &m.ents[slot]; e.pinned {
		e.pinned = false
		m.pinned--
	}
}

// PinnedAt reports whether the key resident in slot is pinned.
func (m *MQ) PinnedAt(slot int32) bool { return m.ents[slot].pinned }

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
// false and slot NoSlot, and leaves the cache untouched (beyond the access
// tick). Otherwise slot is the key's: where it hit, or where it was
// inserted — the victim's slot when one was evicted.
func (m *MQ) RefOrTryInsert(key uint64) (slot int32, hit bool, victim uint64, wasEvict, inserted bool) {
	m.tick()
	if s, ok := m.slots[key]; ok {
		m.hit(s)
		return s, true, 0, false, false
	}
	slot, victim, wasEvict = m.insertAbsent(key)
	return slot, false, victim, wasEvict, slot != NoSlot
}

// Contains implements Cache.
func (m *MQ) Contains(key uint64) bool { _, ok := m.slots[key]; return ok }

// Remove implements Cache. The key's slot goes back to the free list.
func (m *MQ) Remove(key uint64) bool {
	s, ok := m.slots[key]
	if !ok {
		return false
	}
	e := &m.ents[s]
	if e.pinned {
		e.pinned = false
		m.pinned--
	}
	m.queues[e.queue].remove(m.lk, s)
	delete(m.slots, key)
	m.free = append(m.free, s)
	return true
}

// Len implements Cache.
func (m *MQ) Len() int { return len(m.slots) }

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
func (m *MQ) GhostLen() int { return m.qout.n }
