// Package wire defines the V3 block protocol: the messages exchanged
// between a DSA client and a V3 storage server. The encoding is
// transport-independent and is used both by the simulated VI transport
// and by the real TCP transport in internal/netv3.
//
// Control messages are fixed-size (64 bytes, the paper's request size);
// bulk data travels out-of-band (RDMA in the paper, a framed body on
// TCP). Every message carries a connection-scoped sequence number used by
// the retransmission layer.
package wire

import (
	"errors"
	"fmt"
)

// Protocol constants.
const (
	Magic       = 0x5633 // "V3"
	Version     = 1
	ControlSize = 64 // every control message is exactly this many bytes
	HeaderSize  = 16
)

// MsgType identifies a protocol message.
type MsgType uint8

// Message types.
const (
	TConnect MsgType = iota + 1
	TConnectResp
	TRead
	TReadResp
	TWrite
	TWriteResp
	TCreditGrant
	TPing
	TPong
	TDisconnect
	TFlush
	TFlushResp
	// 13–15 are unassigned.
)

// Feature bits negotiated at session setup: the client advertises what it
// speaks in Connect.Features, the server answers with the intersection in
// ConnectResp.Features. Pre-feature peers encode zeros in the (formerly
// padding) feature fields, so the intersection with an old peer is always
// empty and both sides fall back to the original protocol. Bit 0 is
// unassigned.
//
// FeatureTrace: requests may carry a nonzero trace id in the header's
// Trace field and responses answer with a server-side span block (queue
// wait, service time). Both ride frame padding that pre-trace peers emit
// as zeros and never read, so a zero intersection falls back to untraced
// frames transparently.
const FeatureTrace uint32 = 1 << 1

// StreamBackground is the QoS class bit of a frame's stream id: set, the
// request rides the server's background lane; clear — on the root, stream
// 0, and on every foreground stream — the foreground one. The class travels
// on every request frame, so the server keeps no record of a stream.
const StreamBackground uint32 = 1 << 31

// String returns the wire name of the type.
func (t MsgType) String() string {
	switch t {
	case TConnect:
		return "Connect"
	case TConnectResp:
		return "ConnectResp"
	case TRead:
		return "Read"
	case TReadResp:
		return "ReadResp"
	case TWrite:
		return "Write"
	case TWriteResp:
		return "WriteResp"
	case TCreditGrant:
		return "CreditGrant"
	case TPing:
		return "Ping"
	case TPong:
		return "Pong"
	case TDisconnect:
		return "Disconnect"
	case TFlush:
		return "Flush"
	case TFlushResp:
		return "FlushResp"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Status codes carried by responses.
type Status uint8

// Response status codes.
const (
	StatusOK Status = iota
	StatusEIO
	StatusEInval
	StatusENoVolume
	StatusEAgain      // out of server resources; retry after credit grant
	StatusEOverloaded // admission control shed the request; honor RetryAfterMS
)

// String returns the symbolic name of the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusEIO:
		return "EIO"
	case StatusEInval:
		return "EINVAL"
	case StatusENoVolume:
		return "ENOVOLUME"
	case StatusEAgain:
		return "EAGAIN"
	case StatusEOverloaded:
		return "EOVERLOADED"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Err converts a non-OK status to an error (nil for StatusOK).
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return fmt.Errorf("wire: server status %s", s)
}

// Completion flags on read/write requests.
const (
	FlagPollCompletion uint8 = 1 << iota // server sets an RDMA completion flag; no response interrupt wanted
	FlagSync                             // synchronous request (latency-critical)
)

// Header prefixes every control message.
//
// Stream addresses a logical stream multiplexed over the connection, its
// top bit the stream's QoS class (StreamBackground). It is encoded in the
// frame's trailing padding (bytes 60..63), which every pre-stream peer
// emits as zeros and ignores on receipt — so stream 0 is the legacy/root
// session and old binaries interoperate unchanged.
//
// Trace carries the request's trace id in frame bytes 52..59 by the same
// padding trick (every payload ends by byte 48): zero means "untraced",
// which is exactly what pre-trace peers emit, so traced and legacy
// binaries interoperate without a version bump. Responses echo the
// request's trace id. Only meaningful after FeatureTrace is negotiated.
type Header struct {
	Type   MsgType
	Seq    uint64 // connection-scoped sequence number
	Ack    uint32 // cumulative ack of the peer's sequence numbers (low 32 bits)
	Stream uint32 // logical stream id, class bit included (0 = root session / pre-stream peer)
	Trace  uint64 // trace id (0 = untraced / pre-trace peer)
}

// Connect opens a session.
type Connect struct {
	Header
	ClientID  uint64
	WantCreds uint16 // requested flow-control credits
	Features  uint32 // feature bits the client speaks (0 from old clients)
}

// ConnectResp answers Connect.
type ConnectResp struct {
	Header
	Status    Status
	Credits   uint16 // granted credits == server buffer slots
	MaxXfer   uint32 // largest single transfer the server accepts
	SessionID uint64
	Features  uint32 // intersection of client and server feature bits
}

// Read asks the server to RDMA length bytes of volume vol at offset into
// the client buffer identified by BufAddr.
type Read struct {
	Header
	ReqID    uint64
	Volume   uint32
	Offset   uint64
	Length   uint32
	BufAddr  uint64 // client-side RDMA target (simulated address / opaque token)
	FlagBits uint8
}

// SrvSpan is the server-side span block a traced response carries back in
// frame bytes 36..43 — more padding every pre-trace peer emits as zeros
// (bytes 44..51, once two further spans, are zero padding again).
// Returning the spans in the response itself (instead of a scrape-side
// join) lets the client fold server time into its own stage table even
// against a remote server, and makes the old-server fallback free: zeros
// decode as "no span". Values are nanoseconds clamped to uint32 (~4.3 s,
// far beyond any request the keepalive layer would let live).
type SrvSpan struct {
	SrvQueueNS   uint32 // sched admission + lane queue wait
	SrvServiceNS uint32 // worker service time (handler start to response build)
}

// ReadResp completes a Read. On the VI transport the payload has already
// been RDMA-written to BufAddr; on TCP the body follows this message.
// Length is the byte count of that trailing body (0 on error statuses),
// so a receiver can keep the stream framed even when it cannot match the
// response to an outstanding request (e.g. a stale seq after
// reconnection) — it drains exactly Length bytes instead of desyncing.
type ReadResp struct {
	Header
	ReqID        uint64
	Status       Status
	Credits      uint16 // piggybacked credit grant
	Length       uint32 // bytes of payload following this frame on TCP
	RetryAfterMS uint16 // shed hint: ms to back off (StatusEOverloaded only)
	SrvSpan             // server-side spans (zeros from pre-trace servers)
}

// Write asks the server to commit length bytes to volume vol at offset.
// In the paper's VI protocol the payload is RDMA-written into the server
// buffer slot named Slot, granted by flow control (internal/flow models
// that accounting). On TCP the body follows this message and credits are
// anonymous: the field keeps its place in the frame, netv3 sends it as
// zero and does not read it.
type Write struct {
	Header
	ReqID    uint64
	Volume   uint32
	Offset   uint64
	Length   uint32
	Slot     uint32 // server buffer slot carrying the payload (unused on TCP)
	FlagBits uint8
}

// WriteResp completes a Write (payload is durable on disk when it is sent).
type WriteResp struct {
	Header
	ReqID        uint64
	Status       Status
	Credits      uint16
	RetryAfterMS uint16 // shed hint: ms to back off (StatusEOverloaded only)
	SrvSpan             // server-side spans (zeros from pre-trace servers)
}

// CreditGrant returns flow-control credits outside of a response.
type CreditGrant struct {
	Header
	Credits uint16
}

// Ping/Pong are liveness probes used by the reconnection layer.
type Ping struct{ Header }

// Pong answers Ping.
type Pong struct{ Header }

// Disconnect closes a session cleanly.
type Disconnect struct {
	Header
	Reason uint8
}

// Flush is the durability barrier for write-behind volumes: it asks the
// server to destage every dirty cache block of the volume and sync the
// backing store. When the FlushResp arrives, every write the client has
// already seen completed is durable.
type Flush struct {
	Header
	ReqID  uint64
	Volume uint32
}

// FlushResp completes a Flush.
type FlushResp struct {
	Header
	ReqID        uint64
	Status       Status
	Credits      uint16
	RetryAfterMS uint16 // shed hint: ms to back off (StatusEOverloaded only)
	SrvSpan             // server-side spans (zeros from pre-trace servers)
}

// Message is implemented by every protocol message.
type Message interface {
	// Hdr returns the embedded header.
	Hdr() *Header
	// kind returns the wire type tag.
	kind() MsgType
}

// Hdr implements Message.
func (h *Header) Hdr() *Header { return h }

func (*Connect) kind() MsgType     { return TConnect }
func (*ConnectResp) kind() MsgType { return TConnectResp }
func (*Read) kind() MsgType        { return TRead }
func (*ReadResp) kind() MsgType    { return TReadResp }
func (*Write) kind() MsgType       { return TWrite }
func (*WriteResp) kind() MsgType   { return TWriteResp }
func (*CreditGrant) kind() MsgType { return TCreditGrant }
func (*Ping) kind() MsgType        { return TPing }
func (*Pong) kind() MsgType        { return TPong }
func (*Disconnect) kind() MsgType  { return TDisconnect }
func (*Flush) kind() MsgType       { return TFlush }
func (*FlushResp) kind() MsgType   { return TFlushResp }

// TypeOf returns the wire type of m.
func TypeOf(m Message) MsgType { return m.kind() }

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrShort      = errors.New("wire: short message")
	ErrBadType    = errors.New("wire: unknown message type")
)
