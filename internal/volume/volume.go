// Package volume implements the V3 volume manager's address mapping: a
// V3 volume is a virtual disk built from one or more physical disks via
// concatenation, striping (RAID-0), or mirroring (RAID-1), possibly
// nested ("V3 volumes can span multiple V3 nodes using combinations of
// RAID, such as concatenation and other disk organizations").
//
// The package is pure address arithmetic: a Layout maps a (offset,
// length) volume extent to the member extents that serve it. I/O
// execution belongs to the disk manager.
package volume

import (
	"errors"
	"fmt"
	"sync"
)

// Extent is a contiguous byte range on a member device.
type Extent struct {
	Disk   int   // member index
	Offset int64 // byte offset on that member
	Length int   // bytes
}

// Layout maps volume addresses to member extents.
type Layout interface {
	// Size returns the volume's usable size in bytes.
	Size() int64
	// MapRead returns the extents to read for [off, off+length).
	MapRead(off int64, length int) ([]Extent, error)
	// MapWrite returns the extents to write for [off, off+length)
	// (mirroring fans a write out to every replica).
	MapWrite(off int64, length int) ([]Extent, error)
	// Members returns the number of member devices.
	Members() int
}

// ErrOutOfRange reports an access beyond the end of the volume.
var ErrOutOfRange = errors.New("volume: access out of range")

func checkRange(size, off int64, length int) error {
	if off < 0 || length < 0 || off+int64(length) > size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, length, size)
	}
	return nil
}

// Concat appends member disks end to end.
type Concat struct {
	sizes  []int64
	starts []int64 // prefix sums
	total  int64
}

// NewConcat builds a concatenation of members with the given sizes.
func NewConcat(sizes ...int64) (*Concat, error) {
	if len(sizes) == 0 {
		return nil, errors.New("volume: concat needs at least one member")
	}
	c := &Concat{sizes: sizes, starts: make([]int64, len(sizes))}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("volume: member %d has size %d", i, s)
		}
		c.starts[i] = c.total
		c.total += s
	}
	return c, nil
}

// Size implements Layout.
func (c *Concat) Size() int64 { return c.total }

// Members implements Layout.
func (c *Concat) Members() int { return len(c.sizes) }

// MapRead implements Layout.
func (c *Concat) MapRead(off int64, length int) ([]Extent, error) {
	if err := checkRange(c.total, off, length); err != nil {
		return nil, err
	}
	var out []Extent
	for length > 0 {
		// Find the member containing off (linear scan over prefix sums is
		// fine: member counts are small).
		i := 0
		for i+1 < len(c.starts) && c.starts[i+1] <= off {
			i++
		}
		within := off - c.starts[i]
		chunk := c.sizes[i] - within
		if int64(length) < chunk {
			chunk = int64(length)
		}
		out = append(out, Extent{Disk: i, Offset: within, Length: int(chunk)})
		off += chunk
		length -= int(chunk)
	}
	return out, nil
}

// MapWrite implements Layout.
func (c *Concat) MapWrite(off int64, length int) ([]Extent, error) {
	return c.MapRead(off, length)
}

// Stripe interleaves data across members in stripeSize units (RAID-0).
type Stripe struct {
	members    int
	stripeSize int64
	memberSize int64
}

// NewStripe builds a RAID-0 layout over members disks of memberSize bytes
// each, striped in stripeSize units. memberSize must be a multiple of
// stripeSize.
func NewStripe(members int, stripeSize, memberSize int64) (*Stripe, error) {
	if members <= 0 {
		return nil, errors.New("volume: stripe needs at least one member")
	}
	if stripeSize <= 0 || memberSize <= 0 || memberSize%stripeSize != 0 {
		return nil, fmt.Errorf("volume: bad stripe geometry (stripe=%d member=%d)", stripeSize, memberSize)
	}
	return &Stripe{members: members, stripeSize: stripeSize, memberSize: memberSize}, nil
}

// Size implements Layout.
func (s *Stripe) Size() int64 { return s.memberSize * int64(s.members) }

// Members implements Layout.
func (s *Stripe) Members() int { return s.members }

// MapRead implements Layout.
func (s *Stripe) MapRead(off int64, length int) ([]Extent, error) {
	if err := checkRange(s.Size(), off, length); err != nil {
		return nil, err
	}
	var out []Extent
	for length > 0 {
		stripeNo := off / s.stripeSize
		within := off % s.stripeSize
		disk := int(stripeNo % int64(s.members))
		row := stripeNo / int64(s.members)
		chunk := s.stripeSize - within
		if int64(length) < chunk {
			chunk = int64(length)
		}
		out = append(out, Extent{
			Disk:   disk,
			Offset: row*s.stripeSize + within,
			Length: int(chunk),
		})
		off += chunk
		length -= int(chunk)
	}
	return coalesce(out), nil
}

// MapWrite implements Layout.
func (s *Stripe) MapWrite(off int64, length int) ([]Extent, error) {
	return s.MapRead(off, length)
}

// ErrNoReplica reports a mirror read with every replica masked out.
var ErrNoReplica = errors.New("volume: every mirror replica is masked")

// Mirror replicates an inner layout n times (RAID-1). Reads rotate over
// replicas; writes fan out to all of them. Member indices are
// replica*inner.Members() + innerDisk.
//
// A replica may be masked (SetMask) to take it out of the read rotation
// while it is failed or resynchronizing. Masking affects reads only:
// MapWrite keeps fanning out to every replica, masked or not, so a
// cluster layer can see exactly which extents it is *not* sending to the
// dead replica and record them in its dirty log for resync. Rotation and
// mask state are guarded by a mutex, so a Mirror is safe for concurrent
// mapping calls.
type Mirror struct {
	inner    Layout
	replicas int

	mu     sync.Mutex
	next   int // read rotation
	masked []bool
}

// NewMirror mirrors inner across replicas copies.
func NewMirror(inner Layout, replicas int) (*Mirror, error) {
	if inner == nil || replicas < 2 {
		return nil, errors.New("volume: mirror needs an inner layout and >= 2 replicas")
	}
	return &Mirror{inner: inner, replicas: replicas, masked: make([]bool, replicas)}, nil
}

// SetMask marks replica as masked (excluded from read rotation) or
// unmasked. Out-of-range replicas are ignored.
func (m *Mirror) SetMask(replica int, masked bool) {
	if replica < 0 || replica >= m.replicas {
		return
	}
	m.mu.Lock()
	m.masked[replica] = masked
	m.mu.Unlock()
}

// Masked reports whether replica is currently masked.
func (m *Mirror) Masked(replica int) bool {
	if replica < 0 || replica >= m.replicas {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.masked[replica]
}

// MaskedCount returns how many replicas are masked.
func (m *Mirror) MaskedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, v := range m.masked {
		if v {
			n++
		}
	}
	return n
}

// Replicas returns the replica count.
func (m *Mirror) Replicas() int { return m.replicas }

// Size implements Layout.
func (m *Mirror) Size() int64 { return m.inner.Size() }

// Members implements Layout.
func (m *Mirror) Members() int { return m.inner.Members() * m.replicas }

// MapRead implements Layout: one unmasked replica serves the read,
// chosen round-robin to spread load. With every replica masked it
// returns ErrNoReplica.
func (m *Mirror) MapRead(off int64, length int) ([]Extent, error) {
	return m.mapRead(off, length, -1)
}

// MapReadAfter is MapRead for the retry of a read replica failed has just
// failed: the first unmasked replica after it in ring order serves — failed
// itself only when no other is left — and the rotation stays where it was.
// A caller that retries this way meets every unmasked replica once before it
// meets one twice.
func (m *Mirror) MapReadAfter(off int64, length int, failed int) ([]Extent, error) {
	if failed < 0 || failed >= m.replicas {
		return nil, fmt.Errorf("volume: no mirror replica %d", failed)
	}
	return m.mapRead(off, length, failed)
}

// mapRead maps a read to the first unmasked replica from the rotation's
// next (after < 0; the rotation then moves past it) or from the one after
// replica after.
func (m *Mirror) mapRead(off int64, length int, after int) ([]Extent, error) {
	ext, err := m.inner.MapRead(off, length)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	start := after + 1
	if after < 0 {
		start = m.next
	}
	r := -1
	for i := 0; i < m.replicas; i++ {
		cand := (start + i) % m.replicas
		if !m.masked[cand] {
			r = cand
			break
		}
	}
	if r >= 0 && after < 0 {
		m.next = (r + 1) % m.replicas
	}
	m.mu.Unlock()
	if r < 0 {
		return nil, ErrNoReplica
	}
	// ext is the inner layout's own fresh slice: rebase it in place.
	for i := range ext {
		ext[i].Disk += r * m.inner.Members()
	}
	return ext, nil
}

// MapWrite implements Layout: every replica is written, including masked
// ones — the caller owns routing around a failed replica and must track
// the extents it skips (the dirty log a later resync replays).
func (m *Mirror) MapWrite(off int64, length int) ([]Extent, error) {
	ext, err := m.inner.MapWrite(off, length)
	if err != nil {
		return nil, err
	}
	out := make([]Extent, 0, len(ext)*m.replicas)
	for r := 0; r < m.replicas; r++ {
		for _, e := range ext {
			e.Disk += r * m.inner.Members()
			out = append(out, e)
		}
	}
	return out, nil
}

// coalesce merges adjacent extents that landed contiguously on the same
// disk (happens when a request spans a full stripe row).
func coalesce(ext []Extent) []Extent {
	if len(ext) < 2 {
		return ext
	}
	out := ext[:1]
	for _, e := range ext[1:] {
		last := &out[len(out)-1]
		if e.Disk == last.Disk && e.Offset == last.Offset+int64(last.Length) {
			last.Length += e.Length
			continue
		}
		out = append(out, e)
	}
	return out
}
