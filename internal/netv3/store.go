// Package netv3 is a real, runnable implementation of the V3 block
// protocol over TCP: a storage server daemon exporting virtualized
// volumes and a client whose every request rides a logical stream, with
// credit flow control and reconnection that is transparent across a
// failed link and refused across a server restart. Its wire format
// (internal/wire) is the TCP path's own; with the simulated VI transport
// it shares the MQ replacement policy (internal/mqcache). On top come the
// client's protocol core (core.go: every decision about a request's life,
// and no I/O), the server's session fence (fence.go), and the server's one
// request pipeline (DESIGN.md "Request pipeline"): scheduler, sharded
// write-behind block cache, destager and prefetcher. Below the cache there
// is one disk interface, BlockStore: misses and partial-write fills,
// destage runs (its only writes, one at a time and in offset order),
// read-ahead windows and the Flush fsync are all plain calls on it. Every
// volume has this whole path. BlockStore's file-backed implementation,
// FileStore, cuts each write into pwrites of at most 64 KB at 64
// KB-aligned file offsets, which keeps the kernel's later 8 KB overwrites
// of those pages cheap.
//
// TCP stands in for the VI interconnect: reliable in-order delivery but
// none of VI's kernel-bypass properties. The simulation reproduces the
// paper's figures; this package is the live stack held to the paper's
// method — its per-I/O CPU, kernel crossings and latency are what
// benchmark/ measures, end to end and layer by layer.
package netv3

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// BlockStore is the backing storage of one volume.
type BlockStore interface {
	ReadAt(b []byte, off int64) error
	WriteAt(b []byte, off int64) error
	// Sync makes every completed WriteAt durable. It is the store half of
	// the wire-level Flush barrier; volatile stores may no-op.
	Sync() error
	Size() int64
	Close() error
}

// maxStoreFanOut bounds how many store reads one read-ahead window keeps
// in flight at once.
const maxStoreFanOut = 64

// storeOp is one extent of a read-ahead window: do(buf, off), result in err.
type storeOp struct {
	buf []byte
	off int64
	err error
}

// storeFanOut runs do (a store's ReadAt) over every op and returns when
// all have finished, each op's outcome in its err. A single op runs on the
// caller; more run on up to maxStoreFanOut goroutines, so a store that
// blocks (a device, a latency model) sees the window's extents overlapped
// rather than one at a time. Their relative order at the store is
// unspecified.
func storeFanOut(ops []storeOp, do func(b []byte, off int64) error) {
	if len(ops) == 1 {
		ops[0].err = do(ops[0].buf, ops[0].off)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(ops), maxStoreFanOut) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ops)); i = next.Add(1) - 1 {
				ops[i].err = do(ops[i].buf, ops[i].off)
			}
		}()
	}
	wg.Wait()
}

// MemStore is a volatile in-memory volume.
type MemStore struct {
	mu   sync.RWMutex
	data []byte
}

// NewMemStore allocates an in-memory volume of size bytes.
func NewMemStore(size int64) *MemStore {
	return &MemStore{data: make([]byte, size)}
}

// checkStoreRange validates [off, off+n) against the volume size. The
// comparison is phrased to stay correct for hostile inputs: the naive
// `off+int64(n) > size` wraps negative when a wire request carries an
// offset near MaxInt64, letting the access through and crashing the
// store deeper in. `off > size-int64(n)` cannot overflow once n is
// known to be in [0, size].
func checkStoreRange(size, off int64, n int) error {
	if off < 0 || n < 0 || int64(n) > size || off > size-int64(n) {
		return fmt.Errorf("netv3: access [%d,+%d) outside volume of %d bytes", off, n, size)
	}
	return nil
}

// ReadAt implements BlockStore.
func (m *MemStore) ReadAt(b []byte, off int64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := checkStoreRange(int64(len(m.data)), off, len(b)); err != nil {
		return err
	}
	copy(b, m.data[off:])
	return nil
}

// WriteAt implements BlockStore.
func (m *MemStore) WriteAt(b []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := checkStoreRange(int64(len(m.data)), off, len(b)); err != nil {
		return err
	}
	copy(m.data[off:], b)
	return nil
}

// Sync implements BlockStore; memory is as durable as it gets.
func (m *MemStore) Sync() error { return nil }

// Size implements BlockStore. It takes no lock: data is allocated by
// NewMemStore and never resized or replaced, so its length is a constant —
// mu guards the bytes ReadAt and WriteAt copy, not the slice header — and
// Size is on every request's range check and every cached block's fill,
// absorb and destage.
func (m *MemStore) Size() int64 { return int64(len(m.data)) }

// Close implements BlockStore.
func (m *MemStore) Close() error { return nil }

// FileStore is a volume backed by a file (sparse until written).
type FileStore struct {
	f    *os.File
	size int64
}

// filePiece bounds each pwrite FileStore.WriteAt issues, and every piece
// boundary is a multiple of it in absolute file offset. Pages the kernel
// caches from one large write are expensive to overwrite later (ext4's
// large page-cache folios: on Linux 6.18 a random 8 KB pwrite costs ~21 µs
// of CPU over pages a 1 MB write created, ~5 µs over 64 KB ones); 64 KB
// pieces keep that cost down without slowing the fill of a fresh volume.
// DESIGN.md "BlockStore" has the measurements.
const filePiece = 64 << 10

// pieceEnd is the end of the piece of [off, end) that starts at off: the
// next multiple of filePiece above off, or end if that comes first.
func pieceEnd(off, end int64) int64 {
	return min((off/filePiece+1)*filePiece, end)
}

// NewFileStore opens (creating if needed) path as a volume of size bytes.
func NewFileStore(path string, size int64) (*FileStore, error) {
	if size <= 0 {
		return nil, errors.New("netv3: file store needs a positive size")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	return &FileStore{f: f, size: size}, nil
}

// ReadAt implements BlockStore. A failed or short read is reported with
// the file range and the bytes actually transferred, so an EIO surfaced
// to a client can be traced to the exact extent on disk.
func (s *FileStore) ReadAt(b []byte, off int64) error {
	if err := checkStoreRange(s.size, off, len(b)); err != nil {
		return err
	}
	n, err := s.f.ReadAt(b, off)
	if err != nil {
		if n > 0 && n < len(b) {
			return fmt.Errorf("netv3: file store short read [%d,+%d): got %d bytes: %w", off, len(b), n, err)
		}
		return fmt.Errorf("netv3: file store read [%d,+%d): %w", off, len(b), err)
	}
	return nil
}

// WriteAt implements BlockStore as a loop of pwrites cut at filePiece
// boundaries, reporting short writes distinctly from outright failures
// (see ReadAt): the error names the whole extent and the bytes written
// across all pieces.
func (s *FileStore) WriteAt(b []byte, off int64) error {
	if err := checkStoreRange(s.size, off, len(b)); err != nil {
		return err
	}
	end := off + int64(len(b))
	for at := off; at < end; {
		next := pieceEnd(at, end)
		n, err := s.f.WriteAt(b[at-off:next-off], at)
		at += int64(n)
		if err != nil {
			if at > off {
				return fmt.Errorf("netv3: file store short write [%d,+%d): wrote %d bytes: %w", off, len(b), at-off, err)
			}
			return fmt.Errorf("netv3: file store write [%d,+%d): %w", off, len(b), err)
		}
		// io.WriterAt's contract makes err non-nil whenever n is short,
		// so at == next here.
	}
	return nil
}

// Sync implements BlockStore: fsync the backing file.
func (s *FileStore) Sync() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("netv3: file store sync: %w", err)
	}
	return nil
}

// Size implements BlockStore.
func (s *FileStore) Size() int64 { return s.size }

// Close implements BlockStore.
func (s *FileStore) Close() error { return s.f.Close() }
