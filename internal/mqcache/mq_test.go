package mqcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/v3storage/v3/internal/sim"
)

func caches(capacity int) map[string]Cache {
	return map[string]Cache{
		"mq":  NewMQ(capacity, 0, 0),
		"lru": NewLRU(capacity),
	}
}

func TestBasicHitMiss(t *testing.T) {
	for name, c := range caches(4) {
		if c.Ref(1) {
			t.Fatalf("%s: hit on empty cache", name)
		}
		c.Insert(1)
		if !c.Ref(1) {
			t.Fatalf("%s: miss after insert", name)
		}
		if !c.Contains(1) || c.Contains(2) {
			t.Fatalf("%s: contains wrong", name)
		}
		if c.Len() != 1 || c.Cap() != 4 {
			t.Fatalf("%s: len/cap wrong", name)
		}
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	for name, c := range caches(8) {
		for k := uint64(0); k < 100; k++ {
			c.Ref(k)
			c.Insert(k)
			if c.Len() > c.Cap() {
				t.Fatalf("%s: len %d > cap %d", name, c.Len(), c.Cap())
			}
		}
		if c.Len() != 8 {
			t.Fatalf("%s: len=%d, want 8", name, c.Len())
		}
	}
}

func TestInsertEvictsExactlyOne(t *testing.T) {
	for name, c := range caches(2) {
		c.Insert(1)
		c.Insert(2)
		victim, evicted := c.Insert(3)
		if !evicted {
			t.Fatalf("%s: no eviction at capacity", name)
		}
		if c.Contains(victim) {
			t.Fatalf("%s: victim %d still resident", name, victim)
		}
	}
}

func TestDoubleInsertIsNoop(t *testing.T) {
	for name, c := range caches(2) {
		c.Insert(1)
		if _, ev := c.Insert(1); ev {
			t.Fatalf("%s: double insert evicted", name)
		}
		if c.Len() != 1 {
			t.Fatalf("%s: len=%d", name, c.Len())
		}
	}
}

func TestRemove(t *testing.T) {
	for name, c := range caches(4) {
		c.Insert(5)
		if !c.Remove(5) {
			t.Fatalf("%s: remove of resident failed", name)
		}
		if c.Remove(5) {
			t.Fatalf("%s: remove of absent succeeded", name)
		}
		if c.Contains(5) {
			t.Fatalf("%s: still resident", name)
		}
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	l := NewLRU(3)
	l.Insert(1)
	l.Insert(2)
	l.Insert(3)
	l.Ref(1) // 2 is now LRU
	victim, _ := l.Insert(4)
	if victim != 2 {
		t.Fatalf("victim=%d, want 2", victim)
	}
}

func TestMQProtectsFrequentBlocks(t *testing.T) {
	// A hot set referenced many times must survive a scan of cold blocks,
	// where plain LRU would evict it.
	const capacity = 64
	m := NewMQ(capacity, 8, 1<<20)
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = uint64(i)
		m.Insert(hot[i])
	}
	for round := 0; round < 10; round++ {
		for _, k := range hot {
			m.Ref(k)
		}
	}
	// Scan: twice the capacity of cold, once-referenced blocks.
	for k := uint64(1000); k < 1000+2*capacity; k++ {
		if !m.Ref(k) {
			m.Insert(k)
		}
	}
	for _, k := range hot {
		if !m.Contains(k) {
			t.Fatalf("hot block %d evicted by cold scan", k)
		}
	}
}

func TestMQGhostQueueRestoresFrequency(t *testing.T) {
	m := NewMQ(2, 8, 1<<20)
	// Two hot blocks fill the cache in a high queue.
	m.Insert(1)
	for i := 0; i < 16; i++ {
		m.Ref(1) // refs -> 17, queue 4
	}
	m.Insert(2)
	for i := 0; i < 16; i++ {
		m.Ref(2)
	}
	// A third insert must evict the LRU of the lowest non-empty queue,
	// which is queue 4's LRU: block 1.
	victim, ev := m.Insert(3)
	if !ev || victim != 1 {
		t.Fatalf("victim=%d ev=%v, want block 1 evicted", victim, ev)
	}
	if m.GhostLen() == 0 {
		t.Fatal("ghost queue empty after eviction")
	}
	// Re-insert block 1: the ghost entry restores its frequency, placing
	// it in a high queue. A subsequent cold insert must therefore evict
	// the once-referenced block 3, not the restored block 1.
	if v, ev := m.Insert(1); !ev || v != 3 {
		t.Fatalf("re-insert evicted %d, want cold block 3", v)
	}
	if v, ev := m.Insert(4); !ev || v == 1 {
		t.Fatalf("ghost-restored block evicted like a cold block (victim=%d ev=%v)", v, ev)
	}
	if !m.Contains(1) {
		t.Fatal("restored hot block should be resident")
	}
}

func TestMQLifetimeDemotion(t *testing.T) {
	// With a tiny lifetime, a block promoted high but never re-referenced
	// must drift back down and become evictable before newer blocks.
	m := NewMQ(4, 4, 2)
	m.Insert(1)
	for i := 0; i < 8; i++ {
		m.Ref(1)
	}
	m.Insert(2)
	m.Insert(3)
	m.Insert(4)
	// Age block 1 with unrelated accesses.
	for i := 0; i < 64; i++ {
		m.Ref(2)
		m.Ref(3)
		m.Ref(4)
	}
	m.Insert(5) // someone must go; demoted block 1 should be a candidate
	if m.Contains(1) && !m.Contains(5) {
		t.Fatal("stale high-frequency block never demoted")
	}
}

func TestMQQueueIndex(t *testing.T) {
	m := NewMQ(4, 4, 0)
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1 << 20: 3}
	for refs, want := range cases {
		if got := m.queueIndex(refs); got != want {
			t.Fatalf("queueIndex(%d)=%d, want %d", refs, got, want)
		}
	}
}

func TestHitRatioTracking(t *testing.T) {
	m := NewMQ(2, 0, 0)
	if m.HitRatio() != 0 {
		t.Fatal("ratio on no accesses")
	}
	m.Insert(1)
	m.Ref(1)
	m.Ref(2)
	if m.HitRatio() != 0.5 {
		t.Fatalf("mq ratio=%v", m.HitRatio())
	}
	l := NewLRU(2)
	l.Insert(1)
	l.Ref(1)
	l.Ref(2)
	if l.HitRatio() != 0.5 {
		t.Fatalf("lru ratio=%v", l.HitRatio())
	}
}

func TestMQBeatsLRUOnSecondLevelPattern(t *testing.T) {
	// Second-level cache pattern: a modest hot set re-referenced at long
	// temporal distance, interleaved with a large cold stream. MQ should
	// achieve a meaningfully better hit ratio than LRU.
	const capacity = 256
	mq := NewMQ(capacity, 8, 2048)
	lru := NewLRU(capacity)
	rng := sim.NewRand(1234)
	hotN, coldN := uint64(128), uint64(8192)
	access := func(c Cache, k uint64) {
		if !c.Ref(k) {
			c.Insert(k)
		}
	}
	for i := 0; i < 200000; i++ {
		var k uint64
		if rng.Float64() < 0.4 {
			k = rng.Uint64() % hotN // hot set
		} else {
			k = hotN + rng.Uint64()%coldN // cold stream
		}
		access(mq, k)
		access(lru, k)
	}
	if mq.HitRatio() <= lru.HitRatio() {
		t.Fatalf("MQ (%.3f) should beat LRU (%.3f) on second-level pattern",
			mq.HitRatio(), lru.HitRatio())
	}
}

// Property: for any access trace, both caches respect capacity and
// Contains is consistent with Insert/Remove/eviction results.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(trace []uint16, capSeed uint8) bool {
		capacity := int(capSeed%64) + 1
		for _, c := range caches(capacity) {
			resident := map[uint64]bool{}
			for _, kRaw := range trace {
				k := uint64(kRaw % 256)
				hit := c.Ref(k)
				if hit != resident[k] {
					return false
				}
				if !hit {
					victim, ev := c.Insert(k)
					if ev {
						if !resident[victim] {
							return false // evicted something not resident
						}
						delete(resident, victim)
					}
					resident[k] = true
				}
				if c.Len() > capacity || c.Len() != len(resident) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: RefOrInsert behaves exactly like Ref followed (on miss) by
// Insert, for both cache implementations.
func TestRefOrInsertEquivalence(t *testing.T) {
	f := func(trace []uint16, capSeed uint8) bool {
		capacity := int(capSeed%64) + 1
		a, b := caches(capacity), caches(capacity)
		for name, combined := range a {
			split := b[name]
			for _, kRaw := range trace {
				k := uint64(kRaw % 256)
				hit1, victim1, ev1 := combined.RefOrInsert(k)
				hit2 := split.Ref(k)
				var victim2 uint64
				var ev2 bool
				if !hit2 {
					victim2, ev2 = split.Insert(k)
				}
				if hit1 != hit2 || victim1 != victim2 || ev1 != ev2 {
					return false
				}
				if combined.Len() != split.Len() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refRemovePush is Ref as it was before requeue learned to move an
// element in place: every reference unlinks the entry and pushes a fresh
// element. It is the reference the in-place move is checked against.
func refRemovePush(m *MQ, key uint64) bool {
	m.now++
	m.accesses++
	m.adjust()
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	m.hits++
	e.refs++
	m.queues[e.queue].Remove(e.element)
	e.queue = m.queueIndex(e.refs)
	e.expire = m.now + m.lifeTicks
	e.element = m.queues[e.queue].PushFront(e)
	return true
}

// TestRequeueInPlaceKeepsVictimOrder drives one seeded reference stream —
// skewed keys, pins and unpins, a lifetime short enough to demote —
// through the MQ and through the remove-and-push reference, and requires
// the same hit and victim at every step: moving an element to the front of
// the queue it is already in is the same ordering as re-inserting it, so
// nothing the simulated figures or the live cache measure can move.
func TestRequeueInPlaceKeepsVictimOrder(t *testing.T) {
	const capacity, keys, steps = 64, 512, 200000
	rng := rand.New(rand.NewSource(20))
	got, want := NewMQ(capacity, 0, 256), NewMQ(capacity, 0, 256)
	for i := 0; i < steps; i++ {
		// Half the stream lands on a hot eighth of the keys, so counts climb
		// through several queues while the cold tail keeps evicting.
		k := uint64(rng.Intn(keys))
		if rng.Intn(2) == 0 {
			k %= keys / 8
		}
		switch rng.Intn(16) {
		case 0:
			if got.Pin(k) != want.Pin(k) {
				t.Fatalf("step %d: Pin(%d) differs", i, k)
			}
			continue
		case 1, 2:
			if got.Unpin(k) != want.Unpin(k) {
				t.Fatalf("step %d: Unpin(%d) differs", i, k)
			}
			continue
		}
		hit, victim, evicted, inserted := got.RefOrTryInsert(k)
		var wVictim uint64
		var wEvicted, wInserted bool
		wHit := refRemovePush(want, k)
		if !wHit {
			wVictim, wEvicted, wInserted = want.TryInsert(k)
		}
		if hit != wHit || victim != wVictim || evicted != wEvicted || inserted != wInserted {
			t.Fatalf("step %d key %d: got (hit=%v victim=%d evicted=%v inserted=%v), reference (%v %d %v %v)",
				i, k, hit, victim, evicted, inserted, wHit, wVictim, wEvicted, wInserted)
		}
	}
	if got.hits == 0 || got.hits == got.accesses || got.PinnedLen() == 0 {
		t.Fatalf("stream exercised too little: hits=%d accesses=%d pinned=%d", got.hits, got.accesses, got.PinnedLen())
	}
}

// TestRefOnResidentAllocatesNothing: a reference that stays in its queue
// — every one but those crossing a power of two — reuses its list element.
func TestRefOnResidentAllocatesNothing(t *testing.T) {
	m := NewMQ(16, 0, 0)
	m.Insert(7)
	for i := 0; i < 16; i++ { // count 17: the next power of two is 15 references off
		m.Ref(7)
	}
	if n := testing.AllocsPerRun(10, func() { m.Ref(7) }); n != 0 {
		t.Fatalf("Ref on a resident key: %.0f allocations, want 0", n)
	}
}
