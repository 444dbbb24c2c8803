package core

import (
	"errors"
	"fmt"
)

// errNoCredit is returned by TakeNow when no credit is available.
var errNoCredit = errors.New("core: no credit available")

// slotCredits is the client side of the credit-based flow control DSA
// layers on top of VI (Section 2.2 of the paper). VI provides no flow
// control — posting a send with no receive descriptor waiting at the peer
// is a fatal connection error — and the V3 server has a bounded set of
// staging buffers, so DSA grants the client one credit per server buffer
// slot. A request may only be issued while holding a credit, and credits
// return on responses. Each credit names its slot: holding slot S entitles
// the client to one outstanding request whose payload (for writes)
// occupies server slot S. This is pure bookkeeping; blocking belongs to the
// caller (clientConn.credits).
type slotCredits struct {
	free    []uint32 // available slot IDs (LIFO for cache warmth)
	held    map[uint32]bool
	granted int // total slots ever granted
}

func newSlotCredits() *slotCredits {
	return &slotCredits{held: make(map[uint32]bool)}
}

// Grant adds n new slots to the pool, numbered consecutively after the
// existing ones.
func (c *slotCredits) Grant(n int) {
	for i := 0; i < n; i++ {
		c.free = append(c.free, uint32(c.granted))
		c.granted++
	}
}

// TakeNow removes one credit, returning its slot ID, or errNoCredit.
func (c *slotCredits) TakeNow() (uint32, error) {
	if len(c.free) == 0 {
		return 0, errNoCredit
	}
	slot := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.held[slot] = true
	return slot, nil
}

// ReturnSlot gives back the credit for slot (response received). It is an
// error to return a slot that is not in flight.
func (c *slotCredits) ReturnSlot(slot uint32) error {
	if !c.held[slot] {
		return fmt.Errorf("core: return of credit slot %d not in flight", slot)
	}
	delete(c.held, slot)
	c.free = append(c.free, slot)
	return nil
}
