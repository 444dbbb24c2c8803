package netv3

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
	"github.com/v3storage/v3/internal/wire"
)

// TestRootIsStreamZero pins the one submission path: a request on the
// Client and one on an opened stream are both requests on a *Stream — the
// Client's is its root, id 0 — the root's tokens are the session window
// every stream shares, the root cannot be closed on its own, and the
// client's stream counts leave it out.
func TestRootIsStreamZero(t *testing.T) {
	const window = 4
	cfg := DefaultServerConfig()
	cfg.Credits = window
	// Two uncached volumes whose reads park until the test opens them: a
	// request in flight holds its tokens for as long as the test likes.
	held := []*gateStore{newGateStore(1<<20, 1<<30, true), newGateStore(1<<20, 1<<30, true)}
	srv := NewServer(cfg)
	srv.AddVolume(1, held[0])
	srv.AddVolume(2, held[1])
	addr := serve(t, srv, nil)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root := c.Stream
	if root.ID() != 0 || root.Background() || root.Credits() != window || c.Credits() != window {
		t.Fatalf("root: id %d background %v credits %d (client %d), want stream 0, foreground, the %d-request session window",
			root.ID(), root.Background(), root.Credits(), c.Credits(), window)
	}
	st := c.OpenStream(StreamConfig{Credits: window})
	if st.ID() == 0 || st.Credits() != window {
		t.Fatalf("opened stream: id %d credits %d, want a non-zero id and %d credits", st.ID(), st.Credits(), window)
	}
	// The root is in neither of the client's stream counts.
	if cs := c.Stats(); cs.StreamsOpen != 1 || cs.StreamsOpened != 1 {
		t.Fatalf("streams: open %d opened %d; want 1 and 1", cs.StreamsOpen, cs.StreamsOpened)
	}

	// A full root window blocks a submitter on the opened stream, and an
	// opened stream holding the whole window blocks one on the root. The
	// blocked side's context is already done, so the token wait is the only
	// thing that can make it return: no sleep, no deadline.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for phase, issuer := range []*Stream{root, st} {
		vol, blocked := uint32(phase+1), []*Stream{st, root}[phase]
		handles := make([]*Pending, window)
		for i := range handles {
			if handles[i], err = issuer.ReadAsync(vol, int64(i)*512, make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
			if handles[i].st != issuer {
				t.Fatalf("request issued on stream %d records stream %d", issuer.ID(), handles[i].st.ID())
			}
		}
		if len(root.sem) != 0 {
			t.Fatalf("phase %d: %d of the session's tokens left with %d requests in flight on stream %d",
				phase, len(root.sem), window, issuer.ID())
		}
		if _, err := blocked.ReadAsyncCtx(gone, vol, 0, make([]byte, 512)); !errors.Is(err, context.Canceled) {
			t.Fatalf("phase %d: submit on stream %d with the window held by stream %d: err=%v, want context.Canceled",
				phase, blocked.ID(), issuer.ID(), err)
		}
		if blocked != root && len(blocked.sem) != window {
			t.Fatalf("phase %d: the refused submit kept a token of stream %d (%d/%d back)",
				phase, blocked.ID(), len(blocked.sem), window)
		}
		held[phase].once.Do(func() { close(held[phase].open) })
		for i, h := range handles {
			if err := h.Wait(); err != nil {
				t.Fatalf("phase %d read %d: %v", phase, i, err)
			}
		}
		// Every token comes home (a completion publishes before it gives
		// them back, so take them rather than count them: a leak hangs here).
		for _, s := range []*Stream{root, st} {
			for i := 0; i < window; i++ {
				<-s.sem
			}
			for i := 0; i < window; i++ {
				s.sem <- struct{}{}
			}
		}
	}

	// The root is the session: it closes with the Client and not before.
	if err := root.Close(); err == nil {
		t.Fatal("closing the root stream alone succeeded")
	}
	if err := c.Read(1, 0, make([]byte, 512)); err != nil {
		t.Fatalf("read on the root after the refused close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().StreamsOpen; got != 0 {
		t.Fatalf("StreamsOpen = %d after closing the one opened stream", got)
	}
}

// TestServerRestartIsNotTransparent is the contract line "a flushed write
// survives any crash" at client scope. A write-behind server acks a write
// and dies before destaging it; a new server process comes up on the same
// address over the same store. Reconnection is the remedy for a failed
// link, not for this: a Flush outstanding across the restart must fail
// with ErrConnLost, not be replayed onto a server that never saw the write
// and answered OK.
func TestServerRestartIsNotTransparent(t *testing.T) {
	const size = 1 << 20
	disk := NewMemStore(size)
	dying := faultnet.NewStore(disk, faultnet.StoreConfig{}) // fails every write once the process "crashes"
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 64
	srv, addr := startTunedServer(t, cfg, parked, dying)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte{0xAB}, cacheBlockSize)
	if err := c.Write(1, 0, data); err != nil {
		t.Fatal(err)
	}
	// The acked write is a dirty cache block; the process dies with it.
	dying.FailAll(true)
	closeServer(t, srv)

	// The address is bound again at once but nobody accepts yet, so the
	// client's reconnect waits in its handshake while the Flush goes
	// outstanding; then the new process starts serving.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.FlushAsync(1)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newServer(cfg, parked)
	srv2.AddVolume(1, disk)
	serve(t, srv2, ln)

	if err := h.Wait(); !errors.Is(err, ErrConnLost) {
		got := make([]byte, len(data))
		rerr := c.Read(1, 0, got)
		t.Fatalf("flush err=%v reconnects=%d, read err=%v equal=%v; want ErrConnLost: the new server never saw the acked write",
			err, c.Reconnects(), rerr, bytes.Equal(got, data))
	}
	// The budget was not what ended the session: the client met the new
	// process, and hung up on it.
	if srv2.Sessions() == 0 {
		t.Fatal("the client failed without reaching the restarted server")
	}
	if err := c.Read(1, 0, make([]byte, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after the session ended: err=%v, want ErrClosed", err)
	}
}

// TestWriteSlotFieldIsIgnored speaks the wire protocol directly: a Write
// whose Slot names no buffer the server ever granted is served like any
// other — credit tokens are anonymous, the field is a leftover of the
// simulated transport — and the frame behind its payload decodes: a
// server that refused the write without draining its payload would parse
// the payload's bytes as the next control frame.
func TestWriteSlotFieldIsIgnored(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteTo(conn, &wire.Connect{}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if m, err := wire.ReadFrom(br); err != nil {
		t.Fatal(err)
	} else if cr, ok := m.(*wire.ConnectResp); !ok || cr.Status != wire.StatusOK {
		t.Fatalf("handshake: %+v", m)
	}
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	wr := &wire.Write{Header: wire.Header{Seq: 1}, ReqID: 1, Volume: 1, Offset: 8192,
		Length: uint32(len(payload)), Slot: 1 << 20}
	if err := wire.WriteTo(conn, wr); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadFrom(br)
	if err != nil {
		t.Fatal(err)
	}
	if wresp, ok := m.(*wire.WriteResp); !ok || wresp.ReqID != 1 || wresp.Status != wire.StatusOK {
		t.Fatalf("write with an out-of-range Slot: got %+v, want WriteResp OK", m)
	}
	rd := &wire.Read{Header: wire.Header{Seq: 2}, ReqID: 2, Volume: 1, Offset: 8192, Length: uint32(len(payload))}
	if err := wire.WriteTo(conn, rd); err != nil {
		t.Fatal(err)
	}
	if m, err = wire.ReadFrom(br); err != nil {
		t.Fatalf("frame after the write: %v", err)
	}
	rresp, ok := m.(*wire.ReadResp)
	if !ok || rresp.ReqID != 2 || rresp.Status != wire.StatusOK || int(rresp.Length) != len(payload) {
		t.Fatalf("frame after the write: got %+v, want ReadResp OK of %d bytes", m, len(payload))
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(br, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back of the written range differs")
	}
}
