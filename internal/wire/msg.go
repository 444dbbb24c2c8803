// Package wire defines the V3 block protocol as the TCP transport in
// internal/netv3 speaks it: the messages exchanged between a client and a
// V3 storage server. (The simulated VI transport in internal/core passes
// Go values, not these frames.)
//
// Control messages are fixed-size (64 bytes, the paper's request size);
// bulk data follows its frame on the stream: a write's payload its Write,
// a read's its Resp. TCP delivers in order and reliably, so the protocol
// carries none of the VI-era machinery — no sequence numbers or acks, no
// named buffer slots, no RDMA target addresses or completion flags. A
// request is matched to its one Resp by the 64-bit ReqID it echoes.
package wire

import (
	"errors"
	"fmt"
)

// Protocol constants.
const (
	Magic       = 0x5633 // "V3"
	Version     = 4
	ControlSize = 64 // every control message is exactly this many bytes
	HeaderSize  = 16
)

// MsgType identifies a protocol message.
type MsgType uint8

// Message types. 6, 7 and 12–15 are unassigned.
const (
	TConnect     MsgType = 1
	TConnectResp MsgType = 2
	TRead        MsgType = 3
	TResp        MsgType = 4
	TWrite       MsgType = 5
	TPing        MsgType = 8
	TPong        MsgType = 9
	TDisconnect  MsgType = 10
	TFlush       MsgType = 11
)

// StreamBackground is the QoS class bit of a frame's stream id: set, the
// request rides the server's background lane; clear — on the root, stream
// 0, and on every foreground stream — the foreground one. The class travels
// on every request frame, so the server keeps no record of a stream.
const StreamBackground uint32 = 1 << 31

var typeNames = [...]string{
	TConnect: "Connect", TConnectResp: "ConnectResp", TRead: "Read", TResp: "Resp",
	TWrite: "Write", TPing: "Ping", TPong: "Pong", TDisconnect: "Disconnect", TFlush: "Flush",
}

// String returns the wire name of the type.
func (t MsgType) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Status codes carried by responses.
type Status uint8

// Response status codes. 4 is unassigned.
const (
	StatusOK          Status = 0
	StatusEIO         Status = 1
	StatusEInval      Status = 2
	StatusENoVolume   Status = 3
	StatusEOverloaded Status = 5 // admission control shed the request; honor RetryAfterMS
)

var statusNames = [...]string{
	StatusOK: "OK", StatusEIO: "EIO", StatusEInval: "EINVAL",
	StatusENoVolume: "ENOVOLUME", StatusEOverloaded: "EOVERLOADED",
}

// String returns the symbolic name of the status.
func (s Status) String() string {
	if int(s) < len(statusNames) && statusNames[s] != "" {
		return statusNames[s]
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

// Header is what every control message carries besides its payload, in
// the frame's last twelve bytes.
//
// Stream addresses a logical stream multiplexed over the connection, its
// top bit the stream's QoS class (StreamBackground); 0 is the root
// session. Responses echo the request's stream.
//
// Trace carries the request's trace id: zero means "untraced". Responses
// echo a traced request's id and answer it with a server-side span block
// (queue wait, service time).
type Header struct {
	Stream uint32 // logical stream id, class bit included (0 = root session)
	Trace  uint64 // trace id (0 = untraced)
}

// Connect opens a session. ClientID names the client across its
// reconnections (0 is anonymous) and Incarnation counts its dials: the
// server admits incarnation n of an id only after every session of that id
// with a lower one has gone quiet, and refuses a lower one that arrives
// after a higher.
type Connect struct {
	Header
	ClientID    uint64
	Incarnation uint64
}

// ConnectResp answers Connect.
type ConnectResp struct {
	Header
	Status    Status
	Credits   uint16 // granted window: requests the client may have in flight
	MaxXfer   uint32 // largest single transfer the server accepts
	SessionID uint64
}

// Read asks the server for Length bytes of volume Volume at Offset; they
// follow the Resp.
type Read struct {
	Header
	ReqID  uint64
	Volume uint32
	Offset uint64
	Length uint32
}

// Write asks the server to commit Length bytes to volume Volume at Offset;
// the payload follows this frame.
type Write struct {
	Header
	ReqID  uint64
	Volume uint32
	Offset uint64
	Length uint32
}

// Flush is the durability barrier for write-behind volumes: it asks the
// server to destage every dirty cache block of the volume and sync the
// backing store. When its Resp arrives, every write the client has
// already seen completed is durable.
type Flush struct {
	Header
	ReqID  uint64
	Volume uint32
}

// SrvSpan is the server-side span block a traced response carries back in
// frame bytes 36..43. Returning the spans in the response itself (instead
// of a scrape-side join) lets the client fold server time into its own
// stage table even against a remote server. Values are nanoseconds clamped
// to uint32 (~4.3 s, far beyond any request the keepalive layer would let
// live).
type SrvSpan struct {
	SrvQueueNS   uint32 // sched admission + lane queue wait
	SrvServiceNS uint32 // worker service time (handler start to response build)
}

// Resp completes a Read, a Write or a Flush: the one response shape. Length
// is the byte count of the payload that follows it on the stream — a
// successful read's data, 0 for everything else — so a receiver that
// cannot match the response to an outstanding request (canceled, stale
// after a reconnect) still drains exactly Length bytes instead of
// desyncing.
type Resp struct {
	Header
	ReqID        uint64
	Status       Status
	Length       uint32 // bytes of payload following this frame
	RetryAfterMS uint16 // shed hint: ms to back off (StatusEOverloaded only)
	SrvSpan             // server-side spans (zeros when untraced)
}

// Ping/Pong are liveness probes used by the keepalive.
type Ping struct{ Header }

// Pong answers Ping.
type Pong struct{ Header }

// Disconnect closes a session cleanly.
type Disconnect struct{ Header }

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
func (*Resp) kind() MsgType        { return TResp }
func (*Write) kind() MsgType       { return TWrite }
func (*Ping) kind() MsgType        { return TPing }
func (*Pong) kind() MsgType        { return TPong }
func (*Disconnect) kind() MsgType  { return TDisconnect }
func (*Flush) kind() MsgType       { return TFlush }

// TypeOf returns the wire type of m.
func TypeOf(m Message) MsgType { return m.kind() }

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrShort      = errors.New("wire: short message")
	ErrBadType    = errors.New("wire: unknown message type")
)
