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
//	4    8     seq
//	12   4     ack
//	16   ..    type-specific payload
//	36   16    server span block (responses; zeros from pre-trace peers)
//	..   52    zero padding
//	52   8     trace id (0 = untraced; zeros from pre-trace peers)
//	60   4     stream id, top bit the class (0 = root session; zeros from pre-stream peers)
//
// The fixed 64-byte size mirrors the paper's 64-byte request messages and
// keeps the simulated and TCP transports trivially framed. The stream id
// lives in the frame's last four bytes — a region every pre-stream peer
// both emits as zeros and never reads — so stream-aware and legacy
// binaries interoperate without a version bump. The trace id and the
// response span block reuse the same trick one notch earlier: the largest
// payload (Read) ends at frame byte 48, every response payload by byte 33,
// so bytes 52..59 are free in all frames and bytes 36..51 are free in
// every response.

// streamOff is the frame offset of the header's Stream field.
const streamOff = ControlSize - 4

// traceOff is the frame offset of the header's Trace field.
const traceOff = ControlSize - 12

// spanOff is the payload-relative offset of the SrvSpan block carried by
// ReadResp/WriteResp/FlushResp (frame byte 36).
const spanOff = 20

func putHeader(b []byte, t MsgType, h *Header) {
	binary.BigEndian.PutUint16(b[0:], Magic)
	b[2] = Version
	b[3] = byte(t)
	binary.BigEndian.PutUint64(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[12:], h.Ack)
	binary.BigEndian.PutUint64(b[traceOff:], h.Trace)
	binary.BigEndian.PutUint32(b[streamOff:], h.Stream)
}

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
	t := MsgType(b[3])
	h := Header{
		Type: t,
		Seq:  binary.BigEndian.Uint64(b[4:]),
		Ack:  binary.BigEndian.Uint32(b[12:]),
	}
	if len(b) >= ControlSize {
		h.Trace = binary.BigEndian.Uint64(b[traceOff:])
		h.Stream = binary.BigEndian.Uint32(b[streamOff:])
	}
	return t, h, nil
}

func putSpan(p []byte, s *SrvSpan) {
	binary.BigEndian.PutUint32(p[spanOff:], s.SrvQueueNS)
	binary.BigEndian.PutUint32(p[spanOff+4:], s.SrvServiceNS)
}

func parseSpan(p []byte, s *SrvSpan) {
	s.SrvQueueNS = binary.BigEndian.Uint32(p[spanOff:])
	s.SrvServiceNS = binary.BigEndian.Uint32(p[spanOff+4:])
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
	t := TypeOf(m)
	putHeader(b, t, m.Hdr())
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
		binary.BigEndian.PutUint64(p[0:], v.ReqID)
		binary.BigEndian.PutUint32(p[8:], v.Volume)
		binary.BigEndian.PutUint64(p[12:], v.Offset)
		binary.BigEndian.PutUint32(p[20:], v.Length)
		binary.BigEndian.PutUint64(p[24:], v.BufAddr)
		p[32] = v.FlagBits
	case *ReadResp:
		binary.BigEndian.PutUint64(p[0:], v.ReqID)
		p[8] = byte(v.Status)
		binary.BigEndian.PutUint16(p[9:], v.Credits)
		binary.BigEndian.PutUint32(p[11:], v.Length)
		binary.BigEndian.PutUint16(p[15:], v.RetryAfterMS)
		putSpan(p, &v.SrvSpan)
	case *Write:
		binary.BigEndian.PutUint64(p[0:], v.ReqID)
		binary.BigEndian.PutUint32(p[8:], v.Volume)
		binary.BigEndian.PutUint64(p[12:], v.Offset)
		binary.BigEndian.PutUint32(p[20:], v.Length)
		binary.BigEndian.PutUint32(p[24:], v.Slot)
		p[28] = v.FlagBits
	case *WriteResp:
		binary.BigEndian.PutUint64(p[0:], v.ReqID)
		p[8] = byte(v.Status)
		binary.BigEndian.PutUint16(p[9:], v.Credits)
		binary.BigEndian.PutUint16(p[11:], v.RetryAfterMS)
		putSpan(p, &v.SrvSpan)
	case *CreditGrant:
		binary.BigEndian.PutUint16(p[0:], v.Credits)
	case *Ping, *Pong:
		// header only
	case *Disconnect:
		p[0] = v.Reason
	case *Flush:
		binary.BigEndian.PutUint64(p[0:], v.ReqID)
		binary.BigEndian.PutUint32(p[8:], v.Volume)
	case *FlushResp:
		binary.BigEndian.PutUint64(p[0:], v.ReqID)
		p[8] = byte(v.Status)
		binary.BigEndian.PutUint16(p[9:], v.Credits)
		binary.BigEndian.PutUint16(p[11:], v.RetryAfterMS)
		putSpan(p, &v.SrvSpan)
	default:
		panic("wire: Marshal of unknown message type")
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
	case TReadResp:
		m = &ReadResp{}
	case TWrite:
		m = &Write{}
	case TWriteResp:
		m = &WriteResp{}
	case TCreditGrant:
		m = &CreditGrant{}
	case TPing:
		m = &Ping{}
	case TPong:
		m = &Pong{}
	case TDisconnect:
		m = &Disconnect{}
	case TFlush:
		m = &Flush{}
	case TFlushResp:
		m = &FlushResp{}
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
	p := b[HeaderSize:]
	switch v := m.(type) {
	case *Connect:
		if t != TConnect {
			return ErrBadType
		}
		v.Header = h
		v.ClientID = binary.BigEndian.Uint64(p[0:])
		v.WantCreds = binary.BigEndian.Uint16(p[8:])
		v.Features = binary.BigEndian.Uint32(p[10:])
	case *ConnectResp:
		if t != TConnectResp {
			return ErrBadType
		}
		v.Header = h
		v.Status = Status(p[0])
		v.Credits = binary.BigEndian.Uint16(p[1:])
		v.MaxXfer = binary.BigEndian.Uint32(p[3:])
		v.SessionID = binary.BigEndian.Uint64(p[7:])
		v.Features = binary.BigEndian.Uint32(p[15:])
	case *Read:
		if t != TRead {
			return ErrBadType
		}
		v.Header = h
		v.ReqID = binary.BigEndian.Uint64(p[0:])
		v.Volume = binary.BigEndian.Uint32(p[8:])
		v.Offset = binary.BigEndian.Uint64(p[12:])
		v.Length = binary.BigEndian.Uint32(p[20:])
		v.BufAddr = binary.BigEndian.Uint64(p[24:])
		v.FlagBits = p[32]
	case *ReadResp:
		if t != TReadResp {
			return ErrBadType
		}
		v.Header = h
		v.ReqID = binary.BigEndian.Uint64(p[0:])
		v.Status = Status(p[8])
		v.Credits = binary.BigEndian.Uint16(p[9:])
		v.Length = binary.BigEndian.Uint32(p[11:])
		v.RetryAfterMS = binary.BigEndian.Uint16(p[15:])
		parseSpan(p, &v.SrvSpan)
	case *Write:
		if t != TWrite {
			return ErrBadType
		}
		v.Header = h
		v.ReqID = binary.BigEndian.Uint64(p[0:])
		v.Volume = binary.BigEndian.Uint32(p[8:])
		v.Offset = binary.BigEndian.Uint64(p[12:])
		v.Length = binary.BigEndian.Uint32(p[20:])
		v.Slot = binary.BigEndian.Uint32(p[24:])
		v.FlagBits = p[28]
	case *WriteResp:
		if t != TWriteResp {
			return ErrBadType
		}
		v.Header = h
		v.ReqID = binary.BigEndian.Uint64(p[0:])
		v.Status = Status(p[8])
		v.Credits = binary.BigEndian.Uint16(p[9:])
		v.RetryAfterMS = binary.BigEndian.Uint16(p[11:])
		parseSpan(p, &v.SrvSpan)
	case *CreditGrant:
		if t != TCreditGrant {
			return ErrBadType
		}
		v.Header = h
		v.Credits = binary.BigEndian.Uint16(p[0:])
	case *Ping:
		if t != TPing {
			return ErrBadType
		}
		v.Header = h
	case *Pong:
		if t != TPong {
			return ErrBadType
		}
		v.Header = h
	case *Disconnect:
		if t != TDisconnect {
			return ErrBadType
		}
		v.Header = h
		v.Reason = p[0]
	case *Flush:
		if t != TFlush {
			return ErrBadType
		}
		v.Header = h
		v.ReqID = binary.BigEndian.Uint64(p[0:])
		v.Volume = binary.BigEndian.Uint32(p[8:])
	case *FlushResp:
		if t != TFlushResp {
			return ErrBadType
		}
		v.Header = h
		v.ReqID = binary.BigEndian.Uint64(p[0:])
		v.Status = Status(p[8])
		v.Credits = binary.BigEndian.Uint16(p[9:])
		v.RetryAfterMS = binary.BigEndian.Uint16(p[11:])
		parseSpan(p, &v.SrvSpan)
	default:
		return ErrBadType
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

// ReadFrame reads one control frame into b and returns its validated
// type, without decoding the payload. Hot loops pair it with
// UnmarshalInto to demultiplex frames with zero allocations.
func ReadFrame(r io.Reader, b *[ControlSize]byte) (MsgType, error) {
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	t, _, err := parseHeader(b[:])
	return t, err
}
