package mqcache

import "testing"

func TestPinExemptsFromEviction(t *testing.T) {
	m := NewMQ(4, 0, 0)
	for k := uint64(0); k < 4; k++ {
		m.Insert(k)
	}
	if !m.Pin(0) {
		t.Fatal("Pin(0) on resident key returned false")
	}
	// Fill far past capacity: key 0 must survive every eviction round.
	for k := uint64(10); k < 30; k++ {
		m.Insert(k)
		if !m.Contains(0) {
			t.Fatalf("pinned key 0 evicted after inserting %d", k)
		}
	}
	if m.Len() != m.Cap() {
		t.Fatalf("Len=%d want %d", m.Len(), m.Cap())
	}
}

func TestUnpinRestoresEvictability(t *testing.T) {
	m := NewMQ(2, 0, 0)
	m.Insert(1)
	m.Insert(2)
	m.Pin(1)
	m.Pin(2)
	if got := m.PinnedLen(); got != 2 {
		t.Fatalf("PinnedLen=%d want 2", got)
	}
	m.Unpin(1)
	if got := m.PinnedLen(); got != 1 {
		t.Fatalf("PinnedLen after Unpin=%d want 1", got)
	}
	victim, wasEvict, inserted := m.TryInsert(3)
	if !inserted || !wasEvict || victim != 1 {
		t.Fatalf("TryInsert(3)=(%d,%v,%v) want victim 1, evict, inserted", victim, wasEvict, inserted)
	}
	if !m.Contains(2) || m.Contains(1) {
		t.Fatal("unpinned key 1 should be the victim, pinned key 2 resident")
	}
}

func TestTryInsertRefusesWhenAllPinned(t *testing.T) {
	m := NewMQ(2, 0, 0)
	m.Insert(1)
	m.Insert(2)
	m.Pin(1)
	m.Pin(2)
	victim, wasEvict, inserted := m.TryInsert(3)
	if inserted || wasEvict || victim != 0 {
		t.Fatalf("TryInsert with all pinned = (%d,%v,%v), want refusal", victim, wasEvict, inserted)
	}
	if m.Contains(3) || m.Len() != 2 {
		t.Fatal("refused insert must leave the cache untouched")
	}
	// The refused key must not have been charged to the ghost queue path
	// in a way that corrupts a later, allowed insert.
	m.Unpin(2)
	if _, _, inserted := m.TryInsert(3); !inserted {
		t.Fatal("TryInsert(3) after Unpin should succeed")
	}
	if !m.Contains(3) || !m.Contains(1) || m.Contains(2) {
		t.Fatal("expected 2 evicted, 1 and 3 resident")
	}
}

func TestRefOrTryInsertMatchesRefOrInsertUnpinned(t *testing.T) {
	a := NewMQ(8, 0, 0)
	b := NewMQ(8, 0, 0)
	// A deterministic mixed stream: with no pins the Try variant must be
	// byte-for-byte the same policy as the classic one.
	seq := []uint64{1, 2, 3, 1, 4, 5, 6, 7, 8, 9, 2, 10, 11, 1, 12, 3, 13, 14, 9, 15}
	for _, k := range seq {
		h1, v1, e1 := a.RefOrInsert(k)
		_, h2, v2, e2, ins := b.RefOrTryInsert(k)
		if h1 != h2 || v1 != v2 || e1 != e2 {
			t.Fatalf("key %d: RefOrInsert=(%v,%d,%v) RefOrTryInsert=(%v,%d,%v)", k, h1, v1, e1, h2, v2, e2)
		}
		if !h2 && !ins {
			t.Fatalf("key %d: miss with no pins must insert", k)
		}
	}
	if a.Len() != b.Len() || a.GhostLen() != b.GhostLen() {
		t.Fatal("Try variant diverged from classic policy with no pins")
	}
}

func TestRemoveClearsPinCount(t *testing.T) {
	m := NewMQ(2, 0, 0)
	m.Insert(1)
	m.Pin(1)
	m.Remove(1)
	if got := m.PinnedLen(); got != 0 {
		t.Fatalf("PinnedLen after Remove=%d want 0", got)
	}
	// With the pinned count released, the slot must be usable again.
	m.Insert(2)
	m.Insert(3)
	if _, _, inserted := m.TryInsert(4); !inserted {
		t.Fatal("TryInsert must evict normally after pinned key removed")
	}
}

func TestPinUnpinNonResident(t *testing.T) {
	m := NewMQ(2, 0, 0)
	if m.Pin(7) {
		t.Fatal("Pin on absent key must report false")
	}
	if m.Unpin(7) {
		t.Fatal("Unpin on absent key must report false")
	}
	m.Insert(1)
	m.Pin(1)
	m.Pin(1) // idempotent
	if got := m.PinnedLen(); got != 1 {
		t.Fatalf("PinnedLen after double Pin=%d want 1", got)
	}
	m.Unpin(1)
	m.Unpin(1) // idempotent
	if got := m.PinnedLen(); got != 0 {
		t.Fatalf("PinnedLen after double Unpin=%d want 0", got)
	}
}
