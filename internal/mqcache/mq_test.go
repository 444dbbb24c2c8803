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

// diffStats counts what a differential run exercised, so a stream that
// stopped reaching a branch fails instead of passing vacuously.
type diffStats struct {
	hits, evictions, refusals, restores, removes, pinned int
}

// TestRequeueInPlaceKeepsVictimOrder holds the slab MQ to the list-based
// MQ it replaced (oracle_test.go), step for step: 200 seeded streams over
// capacities 1–64, every queue count, lifetimes short enough to demote, a
// hot set that climbs the queues and a cold tail that evicts, with pins,
// unpins and removes mixed in. Every step must agree on hit, victim,
// evicted and inserted, and on Len, GhostLen and PinnedLen after it — so
// the victim order, the ghost restores and the refusals the simulated
// figures and the live cache depend on are the oracle's. (A reference
// moves its entry to the front of the queue it is already in; the oracle
// checks that this keeps the victim order of a remove and re-push too.)
func TestRequeueInPlaceKeepsVictimOrder(t *testing.T) {
	const seeds, steps = 200, 20000
	var st diffStats
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(64)
		queues := 1 + rng.Intn(8)
		life := int64(1 + rng.Intn(8*capacity))
		keys := capacity * (2 + rng.Intn(6))
		got, want := NewMQ(capacity, queues, life), newListMQ(capacity, queues, life)
		for i := 0; i < steps; i++ {
			// Half the stream lands on a hot eighth of the keys, so counts
			// climb through several queues while the cold tail keeps evicting.
			k := uint64(rng.Intn(keys))
			if rng.Intn(2) == 0 {
				k %= uint64(keys/8 + 1)
			}
			fail := func(op string, g, w any) {
				t.Fatalf("seed %d (cap %d, queues %d, life %d) step %d: %s(%d) = %v, oracle %v",
					seed, capacity, queues, life, i, op, k, g, w)
			}
			// Insert and RefOrInsert panic on a full cache of pinned entries.
			insertSafe := got.Len() < capacity || got.PinnedLen() < got.Len()
			switch op := rng.Intn(20); {
			case op == 0:
				if g, w := got.Pin(k), want.Pin(k); g != w {
					fail("Pin", g, w)
				}
			case op <= 2:
				if g, w := got.Unpin(k), want.Unpin(k); g != w {
					fail("Unpin", g, w)
				}
			case op == 3:
				g, w := got.Remove(k), want.Remove(k)
				if g != w {
					fail("Remove", g, w)
				}
				if g {
					st.removes++
				}
			case op == 4:
				if g, w := got.Contains(k), want.Contains(k); g != w {
					fail("Contains", g, w)
				}
			case op == 5:
				if g, w := got.Ref(k), want.Ref(k); g != w {
					fail("Ref", g, w)
				}
			case op == 6:
				_, restore := want.qoutMap[k]
				gv, ge, gi := got.TryInsert(k)
				wv, we, wi := want.TryInsert(k)
				if gv != wv || ge != we || gi != wi {
					fail("TryInsert", []any{gv, ge, gi}, []any{wv, we, wi})
				}
				st.count(false, we, wi, restore)
			case op <= 8 && insertSafe:
				_, restore := want.qoutMap[k]
				gh, gv, ge := got.RefOrInsert(k)
				wh, wv, we := want.RefOrInsert(k)
				if gh != wh || gv != wv || ge != we {
					fail("RefOrInsert", []any{gh, gv, ge}, []any{wh, wv, we})
				}
				st.count(wh, we, !wh, restore && !wh)
			default:
				_, restore := want.qoutMap[k]
				slot, gh, gv, ge, gi := got.RefOrTryInsert(k)
				wh, wv, we, wi := want.RefOrTryInsert(k)
				if gh != wh || gv != wv || ge != we || gi != wi {
					fail("RefOrTryInsert", []any{gh, gv, ge, gi}, []any{wh, wv, we, wi})
				}
				if (gh || gi) && got.KeyAt(slot) != k || !gh && !gi && slot != NoSlot {
					fail("RefOrTryInsert slot", slot, k)
				}
				st.count(wh, we, wi || wh, restore && !wh)
			}
			if got.Len() != want.Len() || got.GhostLen() != want.GhostLen() || got.PinnedLen() != want.PinnedLen() {
				t.Fatalf("seed %d step %d: Len/GhostLen/PinnedLen %d/%d/%d, oracle %d/%d/%d", seed, i,
					got.Len(), got.GhostLen(), got.PinnedLen(), want.Len(), want.GhostLen(), want.PinnedLen())
			}
			if got.PinnedLen() > 0 {
				st.pinned++
			}
		}
		if got.HitRatio() != want.HitRatio() {
			t.Fatalf("seed %d: hit ratio %v, oracle %v", seed, got.HitRatio(), want.HitRatio())
		}
	}
	if st.hits == 0 || st.evictions == 0 || st.refusals == 0 || st.restores == 0 || st.removes == 0 || st.pinned == 0 {
		t.Fatalf("streams exercised too little: %+v", st)
	}
}

// count tallies one insert-or-hit step: a hit, an eviction, a refusal (a
// miss that inserted nothing), a ghost restore.
func (st *diffStats) count(hit, evicted, inserted, restore bool) {
	switch {
	case hit:
		st.hits++
	case !inserted:
		st.refusals++
	}
	if evicted {
		st.evictions++
	}
	if restore && inserted {
		st.restores++
	}
}

// TestSlabLRUMatchesListLRU is the same differential test for the LRU: 200
// seeded streams of references, inserts and removes, compared with the
// list-based LRU at every step.
func TestSlabLRUMatchesListLRU(t *testing.T) {
	const seeds, steps = 200, 20000
	evictions := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(64)
		keys := capacity * (2 + rng.Intn(6))
		got, want := NewLRU(capacity), newListLRU(capacity)
		for i := 0; i < steps; i++ {
			k := uint64(rng.Intn(keys))
			if rng.Intn(2) == 0 {
				k %= uint64(keys/8 + 1)
			}
			var g, w []any
			switch rng.Intn(8) {
			case 0:
				g, w = []any{got.Remove(k)}, []any{want.Remove(k)}
			case 1:
				g, w = []any{got.Contains(k)}, []any{want.Contains(k)}
			case 2:
				g, w = []any{got.Ref(k)}, []any{want.Ref(k)}
			case 3:
				gv, ge := got.Insert(k)
				wv, we := want.Insert(k)
				g, w = []any{gv, ge}, []any{wv, we}
			default:
				gh, gv, ge := got.RefOrInsert(k)
				wh, wv, we := want.RefOrInsert(k)
				g, w = []any{gh, gv, ge}, []any{wh, wv, we}
				if we {
					evictions++
				}
			}
			for j := range g {
				if g[j] != w[j] {
					t.Fatalf("seed %d (cap %d) step %d key %d: got %v, oracle %v", seed, capacity, i, k, g, w)
				}
			}
			if got.Len() != want.Len() {
				t.Fatalf("seed %d step %d: Len %d, oracle %d", seed, i, got.Len(), want.Len())
			}
		}
		if got.HitRatio() != want.HitRatio() {
			t.Fatalf("seed %d: hit ratio %v, oracle %v", seed, got.HitRatio(), want.HitRatio())
		}
	}
	if evictions == 0 {
		t.Fatal("streams never evicted")
	}
}

// TestRefOnResidentAllocatesNothing: on a full cache whose maps have
// settled, no operation of either cache allocates — not a reference, not
// an insert that evicts (the new key takes the victim's slot and the
// victim a ghost slot), not a ghost restore, not a remove and re-insert
// (the slot comes back off the free list), not a pin or a refusal.
func TestRefOnResidentAllocatesNothing(t *testing.T) {
	const capacity = 64
	m, l := NewMQ(capacity, 0, 256), NewLRU(capacity)
	fresh := uint64(0)
	next := func() uint64 { fresh++; return fresh }
	for i := 0; i < 1000*capacity; i++ { // full, Qout full, maps grown to their churn
		k := next()
		m.RefOrInsert(k)
		l.RefOrInsert(k)
	}
	hot := next()
	m.Insert(hot)
	l.Insert(hot)
	for i := 0; i < 16; i++ { // count 17: well up the queues
		m.Ref(hot)
	}
	walled := NewMQ(2, 0, 0) // full of pinned entries: every insert refused
	walled.Insert(1)
	walled.Insert(2)
	walled.Pin(1)
	walled.Pin(2)
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"MQ.Ref of a resident key", func() { m.Ref(hot) }},
		{"MQ.Slot and RefAt", func() { s, _ := m.Slot(hot); m.RefAt(s) }},
		{"MQ.RefOrInsert that evicts", func() { m.RefOrInsert(next()) }},
		{"MQ.RefOrTryInsert that evicts", func() { m.RefOrTryInsert(next()) }},
		{"MQ ghost restore", func() {
			if v, ok := m.Insert(next()); ok {
				m.Insert(v) // in Qout since the line above
			}
		}},
		{"MQ.Remove and Insert", func() { m.Remove(hot); m.Insert(hot) }},
		{"MQ.Pin and Unpin", func() { m.Pin(hot); m.Unpin(hot) }},
		{"MQ.TryInsert refused", func() { walled.TryInsert(next()) }},
		{"LRU.Ref of a resident key", func() { l.Ref(hot) }},
		{"LRU.RefOrInsert that evicts", func() { l.RefOrInsert(next()); l.Ref(hot) }},
		{"LRU.Remove and Insert", func() { l.Remove(hot); l.Insert(hot) }},
	} {
		if n := testing.AllocsPerRun(1000, op.f); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", op.name, n)
		}
	}
	if !m.Contains(hot) || !l.Contains(hot) || m.Len() != capacity || l.Len() != capacity {
		t.Fatal("the hot key left, or the caches are not full")
	}
}
