package mqcache

// LRU is a plain least-recently-used cache, the ablation baseline for the
// V3 server cache (BenchmarkAblationCache).
type LRU struct {
	capacity int
	keys     []uint64 // the slab, indexed by slot
	lk       []link   // keys' links in order
	order    slabList // head = MRU
	free     []int32  // slots no resident key holds
	slots    map[uint64]int32
	hits     int64
	accesses int64
}

// NewLRU returns an LRU cache holding capacity blocks.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("mqcache: capacity must be positive")
	}
	return &LRU{
		capacity: capacity,
		keys:     make([]uint64, capacity),
		lk:       make([]link, capacity),
		order:    newSlabList(),
		free:     freeSlots(capacity),
		slots:    make(map[uint64]int32, capacity),
	}
}

// Ref implements Cache.
func (l *LRU) Ref(key uint64) bool {
	l.accesses++
	s, ok := l.slots[key]
	if !ok {
		return false
	}
	l.hits++
	l.order.moveToFront(l.lk, s)
	return true
}

// Insert implements Cache. The new key takes the victim's slot.
func (l *LRU) Insert(key uint64) (uint64, bool) {
	if _, ok := l.slots[key]; ok {
		return 0, false
	}
	var s int32
	var victim uint64
	evicted := false
	if n := len(l.free); n > 0 {
		s = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		s = l.order.tail
		victim, evicted = l.keys[s], true
		l.order.remove(l.lk, s)
		delete(l.slots, victim)
	}
	l.keys[s] = key
	l.order.pushFront(l.lk, s)
	l.slots[key] = s
	return victim, evicted
}

// RefOrInsert implements Cache.
func (l *LRU) RefOrInsert(key uint64) (bool, uint64, bool) {
	if l.Ref(key) {
		return true, 0, false
	}
	victim, evicted := l.Insert(key)
	return false, victim, evicted
}

// Contains implements Cache.
func (l *LRU) Contains(key uint64) bool { _, ok := l.slots[key]; return ok }

// Remove implements Cache.
func (l *LRU) Remove(key uint64) bool {
	s, ok := l.slots[key]
	if !ok {
		return false
	}
	l.order.remove(l.lk, s)
	delete(l.slots, key)
	l.free = append(l.free, s)
	return true
}

// Len implements Cache.
func (l *LRU) Len() int { return len(l.slots) }

// Cap implements Cache.
func (l *LRU) Cap() int { return l.capacity }

// HitRatio returns hits/accesses since creation.
func (l *LRU) HitRatio() float64 {
	if l.accesses == 0 {
		return 0
	}
	return float64(l.hits) / float64(l.accesses)
}

var (
	_ Cache = (*MQ)(nil)
	_ Cache = (*LRU)(nil)
)
