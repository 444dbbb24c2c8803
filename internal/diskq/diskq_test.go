package diskq

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/obs"
)

// newTestFile creates a temp file of size bytes, removed with the test.
func newTestFile(t *testing.T, size int64) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "vol.img"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(size); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// drainClose closes q and reaps until the engine reports drained, as
// the single-consumer contract requires.
func drainClose(q *Queue) {
	q.Close()
	var out [64]Completion
	for {
		if _, err := q.Reap(out[:], 1); err != nil {
			return
		}
	}
}

// portable runs fn as the subtest "portable" — the id each test of the
// worker-pool engine is tracked under (TestX/portable).
func portable(t *testing.T, fn func(t *testing.T)) { t.Run("portable", fn) }

// reapN harvests exactly n completions.
func reapN(t *testing.T, q *Queue, n int) []Completion {
	t.Helper()
	out := make([]Completion, 0, n)
	buf := make([]Completion, n)
	for len(out) < n {
		got, err := q.Reap(buf, 1)
		if err != nil {
			t.Fatalf("reap: %v (have %d/%d)", err, len(out), n)
		}
		out = append(out, buf[:got]...)
	}
	return out
}

func TestReadWriteFsync(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 1<<20)
		q, err := Open(f, Config{Depth: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(q)

		payload := bytes.Repeat([]byte{0xab}, 8192)
		wt, err := q.SubmitWrite(payload, 16384)
		if err != nil {
			t.Fatal(err)
		}
		c := reapN(t, q, 1)[0]
		if c.Token != wt || c.Err != nil || c.N != len(payload) {
			t.Fatalf("write completion = %+v, want token %d n %d", c, wt, len(payload))
		}

		st, err := q.SubmitFsync()
		if err != nil {
			t.Fatal(err)
		}
		c = reapN(t, q, 1)[0]
		if c.Token != st || c.Err != nil {
			t.Fatalf("fsync completion = %+v", c)
		}

		got := make([]byte, len(payload))
		rt, err := q.SubmitRead(got, 16384)
		if err != nil {
			t.Fatal(err)
		}
		c = reapN(t, q, 1)[0]
		if c.Token != rt || c.Err != nil || c.N != len(got) {
			t.Fatalf("read completion = %+v", c)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("read back different bytes")
		}
	})
}

func TestVectoredBatchTokens(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 1<<20)
		q, err := Open(f, Config{Depth: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(q)

		// One vectored submit: 8 extents of distinct bytes.
		ops := make([]Op, 8)
		for i := range ops {
			buf := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			ops[i] = Op{Kind: OpWrite, Buf: buf, Off: int64(i) * 4096}
		}
		first, _, err := q.Submit(ops)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for _, c := range reapN(t, q, len(ops)) {
			if c.Err != nil {
				t.Fatalf("completion error: %v", c.Err)
			}
			seen[c.Token] = true
		}
		for i := range ops {
			if !seen[first+uint64(i)] {
				t.Fatalf("token %d missing (batch base %d)", first+uint64(i), first)
			}
		}
		if st := q.Stats(); st.Batches != 1 || st.Submitted != 8 {
			t.Fatalf("stats = %+v, want 1 batch of 8", st)
		}

		// Read the extents back as one batch and verify the bytes.
		reads := make([]Op, 8)
		bufs := make([][]byte, 8)
		for i := range reads {
			bufs[i] = make([]byte, 4096)
			reads[i] = Op{Kind: OpRead, Buf: bufs[i], Off: int64(i) * 4096}
		}
		if _, _, err := q.Submit(reads); err != nil {
			t.Fatal(err)
		}
		reapN(t, q, len(reads))
		for i, buf := range bufs {
			if buf[0] != byte(i+1) || buf[4095] != byte(i+1) {
				t.Fatalf("extent %d corrupt: %x..%x", i, buf[0], buf[4095])
			}
		}
	})
}

// TestBatchLargerThanDepth submits one batch bigger than the queue
// depth: Submit must chunk it internally, blocking on its own
// completions, provided someone reaps.
func TestBatchLargerThanDepth(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 1<<20)
		q, err := Open(f, Config{Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(q)

		const n = 13
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: OpWrite, Buf: []byte{byte(i)}, Off: int64(i)}
		}
		// Submit from a goroutine (it blocks between chunks), reap here so
		// test failures land on the test goroutine.
		firstc := make(chan uint64, 1)
		go func() {
			first, _, err := q.Submit(ops)
			if err != nil {
				t.Errorf("submit: %v", err)
			}
			firstc <- first
		}()
		comps := reapN(t, q, n)
		first := <-firstc
		if len(comps) != n {
			t.Fatalf("got %d completions, want %d", len(comps), n)
		}
		last := first + uint64(n) - 1
		seen := map[uint64]bool{}
		for _, c := range comps {
			seen[c.Token] = true
		}
		if !seen[first] || !seen[last] {
			t.Fatalf("token range [%d,%d] incomplete", first, last)
		}
	})
}

// slowFile's reads take real time, keeping a tiny queue full so a
// blocking batch Submit parks between chunks while single submits race
// it.
type slowFile struct{}

func (slowFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(100 * time.Microsecond)
	clear(p)
	return len(p), nil
}
func (slowFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (slowFile) Sync() error                              { return nil }

// TestSubmitTokensUniqueUnderInterleaving is the regression test for a
// token-collision bug: Submit waits for queue space between chunks with
// the queue mutex released, so a concurrent submitter can draw tokens
// mid-batch. The batch must reserve its whole contiguous token range up
// front — if it instead re-derives tokens from a stale local counter,
// two in-flight ops share one token and a completion is lost. Every
// completion's token must be unique.
func TestSubmitTokensUniqueUnderInterleaving(t *testing.T) {
	q, err := Open(slowFile{}, Config{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}

	const batchOps = 100
	var (
		mu       sync.Mutex
		expected = make(map[uint64]bool)
		total    int
	)
	note := func(first uint64, n int) {
		mu.Lock()
		for i := 0; i < n; i++ {
			expected[first+uint64(i)] = true
		}
		total += n
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ops := make([]Op, batchOps)
		for i := range ops {
			ops[i] = Op{Kind: OpRead, Buf: make([]byte, 64), Off: int64(i) * 64}
		}
		first, n, err := q.Submit(ops)
		if err != nil {
			t.Errorf("batch submit: %v", err)
		}
		note(first, n)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < batchOps; i++ {
			tok, err := q.SubmitRead(make([]byte, 64), 0)
			if err != nil {
				t.Errorf("single submit: %v", err)
				return
			}
			note(tok, 1)
		}
	}()

	seen := make(map[uint64]int)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	out := make([]Completion, 8)
	for {
		n, err := q.Reap(out, 0) // poll; submitters still racing
		if err != nil {
			t.Fatalf("reap: %v", err)
		}
		for _, c := range out[:n] {
			seen[c.Token]++
			if seen[c.Token] > 1 {
				t.Fatalf("token %d completed %d times", c.Token, seen[c.Token])
			}
		}
		select {
		case <-done:
			mu.Lock()
			want := total
			mu.Unlock()
			if len(seen) >= want {
				for tok := range seen {
					if !expected[tok] {
						t.Fatalf("completion for never-issued token %d", tok)
					}
				}
				drainClose(q)
				return
			}
		default:
		}
	}
}

// TestFsyncBarrierOrdering checks the drain-barrier CQ contract: the
// fsync completion must be reaped after the completion of every write
// submitted before it.
func TestFsyncBarrierOrdering(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 1<<20)
		q, err := Open(f, Config{Depth: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(q)

		for round := 0; round < 8; round++ {
			const writes = 16
			toks := make(map[uint64]bool, writes)
			ops := make([]Op, writes)
			for i := range ops {
				ops[i] = Op{Kind: OpWrite, Buf: bytes.Repeat([]byte{byte(round)}, 512), Off: int64(i) * 512}
			}
			first, _, err := q.Submit(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < writes; i++ {
				toks[first+uint64(i)] = true
			}
			ft, err := q.SubmitFsync()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range reapN(t, q, writes+1) {
				if c.Token == ft {
					if len(toks) != 0 {
						t.Fatalf("round %d: fsync reaped with %d writes outstanding", round, len(toks))
					}
				} else {
					delete(toks, c.Token)
				}
			}
		}
	})
}

// TestReadPastEOFZeroFills pins the sparse-store read contract: a read
// overlapping end-of-file reports full length with the tail zeroed,
// exactly like a hole.
func TestReadPastEOFZeroFills(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 100)
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xee}, 100), 0); err != nil {
			t.Fatal(err)
		}
		q, err := Open(f, Config{Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(q)

		buf := bytes.Repeat([]byte{0x55}, 64)
		if _, err := q.SubmitRead(buf, 80); err != nil {
			t.Fatal(err)
		}
		c := reapN(t, q, 1)[0]
		if c.Err != nil || c.N != 64 {
			t.Fatalf("completion = %+v, want full 64-byte read", c)
		}
		for i := 0; i < 20; i++ {
			if buf[i] != 0xee {
				t.Fatalf("byte %d = %x, want data", i, buf[i])
			}
		}
		for i := 20; i < 64; i++ {
			if buf[i] != 0 {
				t.Fatalf("byte %d = %x, want zero fill", i, buf[i])
			}
		}
	})
}

// TestReapMinZeroPolls checks min<=0 never blocks.
func TestReapMinZeroPolls(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 4096)
		q, err := Open(f, Config{Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(q)
		var out [4]Completion
		done := make(chan int)
		go func() {
			n, _ := q.Reap(out[:], 0)
			done <- n
		}()
		select {
		case n := <-done:
			if n != 0 {
				t.Fatalf("poll returned %d completions on an idle queue", n)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Reap(min=0) blocked")
		}
	})
}

// TestCloseWakesReaper blocks a reaper on an idle queue and closes it:
// the reaper must wake with ErrClosed, not hang.
func TestCloseWakesReaper(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 4096)
		q, err := Open(f, Config{Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error)
		go func() {
			var out [4]Completion
			_, err := q.Reap(out[:], 1)
			errc <- err
		}()
		time.Sleep(50 * time.Millisecond) // let the reaper block
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("reaper returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("reaper still blocked after Close")
		}
	})
}

// TestCloseDrainsInFlight submits work, closes immediately, and checks
// every accepted op still completes before ErrClosed.
func TestCloseDrainsInFlight(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 1<<20)
		q, err := Open(f, Config{Depth: 32})
		if err != nil {
			t.Fatal(err)
		}
		const n = 24
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: OpWrite, Buf: bytes.Repeat([]byte{7}, 1024), Off: int64(i) * 1024}
		}
		if _, _, err := q.Submit(ops); err != nil {
			t.Fatal(err)
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := q.SubmitWrite([]byte{1}, 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after close = %v, want ErrClosed", err)
		}
		got := 0
		var out [8]Completion
		for {
			k, err := q.Reap(out[:], 1)
			got += k
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Fatal(err)
				}
				break
			}
		}
		if got != n {
			t.Fatalf("drained %d completions, want %d", got, n)
		}
	})
}

// TestConcurrentSubmitters races many submitters against one reaper —
// the package's -race workout.
func TestConcurrentSubmitters(t *testing.T) {
	portable(t, func(t *testing.T) {
		f := newTestFile(t, 1<<20)
		q, err := Open(f, Config{Depth: 16})
		if err != nil {
			t.Fatal(err)
		}
		const (
			goroutines = 8
			perG       = 50
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				base := int64(g) * 128 * 1024
				for i := 0; i < perG; i++ {
					if i%10 == 9 {
						if _, err := q.SubmitFsync(); err != nil {
							t.Errorf("fsync: %v", err)
							return
						}
						continue
					}
					buf := bytes.Repeat([]byte{byte(g)}, 512)
					var err error
					if i%2 == 0 {
						_, err = q.SubmitWrite(buf, base+int64(i)*512)
					} else {
						_, err = q.SubmitRead(buf, base+int64(i)*512)
					}
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}(g)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			var out [32]Completion
			total := 0
			for total < goroutines*perG {
				n, err := q.Reap(out[:], 1)
				if err != nil {
					t.Errorf("reap: %v", err)
					return
				}
				for _, c := range out[:n] {
					if c.Err != nil {
						t.Errorf("completion: %v", c.Err)
					}
				}
				total += n
			}
		}()
		wg.Wait()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("reaper did not collect all completions")
		}
		drainClose(q)
	})
}

func TestMetricsRecorded(t *testing.T) {
	portable(t, func(t *testing.T) {
		reg := obs.New()
		f := newTestFile(t, 1<<20)
		q, err := Open(f, Config{Depth: 8, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(q)
		ops := make([]Op, 4)
		for i := range ops {
			ops[i] = Op{Kind: OpWrite, Buf: make([]byte, 512), Off: int64(i) * 512}
		}
		if _, _, err := q.Submit(ops); err != nil {
			t.Fatal(err)
		}
		reapN(t, q, 4)
		if n := reg.Hist("diskq_submit_batch").Snapshot().Count(); n == 0 {
			t.Fatal("submit-batch histogram empty")
		}
		if n := reg.Hist("diskq_reap_batch").Snapshot().Count(); n == 0 {
			t.Fatal("reap-batch histogram empty")
		}
		if n := reg.Hist("diskq_op_total_ns").Snapshot().Count(); n != 4 {
			t.Fatalf("op-total histogram count = %d, want 4", n)
		}
		if n := reg.Hist("diskq_queue_wait_ns").Snapshot().Count(); n != 4 {
			t.Fatalf("queue-wait count = %d, want 4", n)
		}
		if n := reg.Hist("diskq_device_ns").Snapshot().Count(); n != 4 {
			t.Fatalf("device-time count = %d, want 4", n)
		}
	})
}

// TestErrorCompletion checks an I/O error surfaces on the completion,
// not the submit, and carries the op range's actual failure.
func TestErrorCompletion(t *testing.T) {
	ef := &errFile{err: fmt.Errorf("injected device error")}
	q, err := Open(ef, Config{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(q)
	if _, err := q.SubmitWrite(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	c := reapN(t, q, 1)[0]
	if c.Err == nil {
		t.Fatal("write to failing device completed cleanly")
	}
}

type errFile struct{ err error }

func (e *errFile) ReadAt(p []byte, off int64) (int, error)  { return 0, e.err }
func (e *errFile) WriteAt(p []byte, off int64) (int, error) { return 0, e.err }
func (e *errFile) Sync() error                              { return e.err }
