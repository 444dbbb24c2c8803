package wire

import (
	"encoding/binary"
	"io"
)

// Control-message layout (all integers big-endian):
//
//	off  size  field
//	0    2     magic
//	2    1     version
//	3    1     type
//	4    12    reserved (zero)
//	16   ..    type-specific payload: Connect 14 bytes, ConnectResp 19,
//	           Read/Write/Flush 24, Resp 17 plus its span block
//	36   8     server span block (Resp; zeros when untraced)
//	..         zero padding
//	52   8     trace id (0 = untraced)
//	60   4     stream id, top bit the class (0 = root session)
//
// The fixed 64-byte size mirrors the paper's 64-byte request messages and
// keeps the TCP stream trivially framed. Every byte the layout does not
// name, and every payload byte a type does not use, is encoded as zero.

// streamOff is the frame offset of the header's Stream field.
const streamOff = ControlSize - 4

// traceOff is the frame offset of the header's Trace field.
const traceOff = ControlSize - 12

// spanOff is the payload-relative offset of Resp's SrvSpan block (frame
// byte 36).
const spanOff = 20

func parseHeader(b []byte) (MsgType, Header, error) {
	if len(b) < HeaderSize {
		return 0, Header{}, ErrShort
	}
	if binary.BigEndian.Uint16(b[0:]) != Magic {
		return 0, Header{}, ErrBadMagic
	}
	if b[2] != Version {
		return 0, Header{}, ErrBadVersion
	}
	var h Header
	if len(b) >= ControlSize {
		h.Trace = binary.BigEndian.Uint64(b[traceOff:])
		h.Stream = binary.BigEndian.Uint32(b[streamOff:])
	}
	return MsgType(b[3]), h, nil
}

// putReq and parseReq encode the body Read, Write and Flush share; a Flush
// has no range and leaves off and n zero.
func putReq(p []byte, id uint64, vol uint32, off uint64, n uint32) {
	binary.BigEndian.PutUint64(p[0:], id)
	binary.BigEndian.PutUint32(p[8:], vol)
	binary.BigEndian.PutUint64(p[12:], off)
	binary.BigEndian.PutUint32(p[20:], n)
}

func parseReq(p []byte) (id uint64, vol uint32, off uint64, n uint32) {
	return binary.BigEndian.Uint64(p[0:]), binary.BigEndian.Uint32(p[8:]),
		binary.BigEndian.Uint64(p[12:]), binary.BigEndian.Uint32(p[20:])
}

// Marshal encodes m into a fresh ControlSize-byte buffer.
func Marshal(m Message) []byte {
	b := make([]byte, ControlSize)
	MarshalInto(b, m)
	return b
}

// MarshalInto encodes m into b, which must be at least ControlSize bytes
// (the frame region is fully overwritten, including padding). It lets
// hot paths reuse a scratch frame buffer instead of allocating per
// message.
func MarshalInto(b []byte, m Message) {
	_ = b[:ControlSize]
	clear(b[:ControlSize])
	binary.BigEndian.PutUint16(b[0:], Magic)
	b[2] = Version
	b[3] = byte(m.kind())
	h := m.Hdr()
	binary.BigEndian.PutUint64(b[traceOff:], h.Trace)
	binary.BigEndian.PutUint32(b[streamOff:], h.Stream)
	p := b[HeaderSize:]
	switch v := m.(type) {
	case *Connect:
		binary.BigEndian.PutUint64(p[0:], v.ClientID)
		binary.BigEndian.PutUint16(p[8:], v.WantCreds)
		binary.BigEndian.PutUint32(p[10:], v.Features)
	case *ConnectResp:
		p[0] = byte(v.Status)
		binary.BigEndian.PutUint16(p[1:], v.Credits)
		binary.BigEndian.PutUint32(p[3:], v.MaxXfer)
		binary.BigEndian.PutUint64(p[7:], v.SessionID)
		binary.BigEndian.PutUint32(p[15:], v.Features)
	case *Read:
		putReq(p, v.ReqID, v.Volume, v.Offset, v.Length)
	case *Write:
		putReq(p, v.ReqID, v.Volume, v.Offset, v.Length)
	case *Flush:
		putReq(p, v.ReqID, v.Volume, 0, 0)
	case *Resp:
		binary.BigEndian.PutUint64(p[0:], v.ReqID)
		p[8] = byte(v.Status)
		binary.BigEndian.PutUint32(p[11:], v.Length)
		binary.BigEndian.PutUint16(p[15:], v.RetryAfterMS)
		binary.BigEndian.PutUint32(p[spanOff:], v.SrvQueueNS)
		binary.BigEndian.PutUint32(p[spanOff+4:], v.SrvServiceNS)
	}
}

// Unmarshal decodes one control message from b (at least ControlSize
// bytes; extra bytes are ignored) into a freshly allocated struct.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < ControlSize {
		return nil, ErrShort
	}
	t, _, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	var m Message
	switch t {
	case TConnect:
		m = &Connect{}
	case TConnectResp:
		m = &ConnectResp{}
	case TRead:
		m = &Read{}
	case TResp:
		m = &Resp{}
	case TWrite:
		m = &Write{}
	case TPing:
		m = &Ping{}
	case TPong:
		m = &Pong{}
	case TDisconnect:
		m = &Disconnect{}
	case TFlush:
		m = &Flush{}
	default:
		return nil, ErrBadType
	}
	if err := UnmarshalInto(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto decodes the frame in b into the caller-owned m, whose
// concrete type must match the frame's type byte (ErrBadType otherwise).
// Together with ReadFrame it lets hot loops reuse one message struct per
// frame type instead of allocating per message.
func UnmarshalInto(b []byte, m Message) error {
	if len(b) < ControlSize {
		return ErrShort
	}
	t, h, err := parseHeader(b)
	if err != nil {
		return err
	}
	if t != m.kind() {
		return ErrBadType
	}
	*m.Hdr() = h
	p := b[HeaderSize:]
	switch v := m.(type) {
	case *Connect:
		v.ClientID = binary.BigEndian.Uint64(p[0:])
		v.WantCreds = binary.BigEndian.Uint16(p[8:])
		v.Features = binary.BigEndian.Uint32(p[10:])
	case *ConnectResp:
		v.Status = Status(p[0])
		v.Credits = binary.BigEndian.Uint16(p[1:])
		v.MaxXfer = binary.BigEndian.Uint32(p[3:])
		v.SessionID = binary.BigEndian.Uint64(p[7:])
		v.Features = binary.BigEndian.Uint32(p[15:])
	case *Read:
		v.ReqID, v.Volume, v.Offset, v.Length = parseReq(p)
	case *Write:
		v.ReqID, v.Volume, v.Offset, v.Length = parseReq(p)
	case *Flush:
		v.ReqID, v.Volume, _, _ = parseReq(p)
	case *Resp:
		v.ReqID = binary.BigEndian.Uint64(p[0:])
		v.Status = Status(p[8])
		v.Length = binary.BigEndian.Uint32(p[11:])
		v.RetryAfterMS = binary.BigEndian.Uint16(p[15:])
		v.SrvQueueNS = binary.BigEndian.Uint32(p[spanOff:])
		v.SrvServiceNS = binary.BigEndian.Uint32(p[spanOff+4:])
	}
	return nil
}

// WriteTo writes the encoded control message to w.
func WriteTo(w io.Writer, m Message) error {
	_, err := w.Write(Marshal(m))
	return err
}

// ReadFrom reads exactly one control message from r.
func ReadFrom(r io.Reader) (Message, error) {
	var b [ControlSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return nil, err
	}
	return Unmarshal(b[:])
}

// ReadFrame reads one control frame into b and returns its type, having
// checked magic and version, without decoding the payload. Hot loops pair
// it with UnmarshalInto to demultiplex frames with zero allocations.
func ReadFrame(r io.Reader, b *[ControlSize]byte) (MsgType, error) {
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	t, _, err := parseHeader(b[:])
	return t, err
}
