// Package giop implements a General Inter-ORB Protocol (GIOP) style message
// layer with the ITDOS extensions described in the paper:
//
//   - every Request and Reply carries a strictly-increasing request
//     identifier used by voters to collate copies and match replies to
//     requests (paper §3.6);
//   - every Request carries the full interface repository name, which plain
//     GIOP omits, so that a process without an ORB (the Group Manager) can
//     unmarshal the body with the idl.Registry and vote on values
//     (paper §3.6).
//
// Messages are self-describing about byte order: the header flags carry the
// sender's endianness, so heterogeneous peers marshal in their native order.
package giop

import (
	"fmt"

	"itdos/internal/cdr"
)

// Magic is the 4-byte message prefix. ITDOS tunnels GIOP over its secure
// multicast, so the magic distinguishes middleware traffic from noise.
var Magic = [4]byte{'G', 'I', 'O', 'P'}

// Protocol version implemented by this package.
const (
	VersionMajor = 1
	VersionMinor = 2
)

// MsgType enumerates GIOP message types.
type MsgType byte

// GIOP message types used by ITDOS.
const (
	MsgRequest MsgType = iota + 1
	MsgReply
	MsgCancelRequest
	MsgCloseConnection
	MsgError
)

// String returns the GIOP name of the message type.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "Request"
	case MsgReply:
		return "Reply"
	case MsgCancelRequest:
		return "CancelRequest"
	case MsgCloseConnection:
		return "CloseConnection"
	case MsgError:
		return "MessageError"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// ReplyStatus reports the outcome of an invocation.
type ReplyStatus uint32

// Reply statuses, mirroring GIOP's reply_status enumeration.
const (
	StatusNoException ReplyStatus = iota
	StatusUserException
	StatusSystemException
)

// String returns the GIOP name of the status.
func (s ReplyStatus) String() string {
	switch s {
	case StatusNoException:
		return "NO_EXCEPTION"
	case StatusUserException:
		return "USER_EXCEPTION"
	case StatusSystemException:
		return "SYSTEM_EXCEPTION"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// Request is a GIOP Request with ITDOS extensions.
type Request struct {
	// RequestID is strictly increasing per connection; voters collate the
	// replicas' copies of a message by it.
	RequestID uint64

	// ObjectKey names the target object within the server process.
	ObjectKey string

	// Interface is the full interface repository name (ITDOS extension).
	Interface string

	// Operation is the operation name within the interface.
	Operation string

	// ResponseExpected is false for oneway operations.
	ResponseExpected bool

	// DigestOK marks a request whose sender accepts digest replies: the
	// designated responder returns the full reply, every other replica a
	// canonical-form digest (Castro–Liskov digest replies re-derived for
	// heterogeneous replicas). Carried in bit 1 of the response-flags octet,
	// which legacy encoders always wrote as 0 or 1 — so requests without the
	// flag are byte-identical to the pre-digest wire form.
	DigestOK bool

	// ReadOnly marks an invocation the client may multicast directly,
	// bypassing the ordering protocol (Castro–Liskov read-only
	// optimisation). Carried in bit 2 of the response-flags octet.
	ReadOnly bool

	// Body is the CDR-encoded input parameter list, marshalled in the byte
	// order of the enclosing message.
	Body []byte
}

// Request flag bits inside the response-flags octet. Bit 0 is the GIOP
// response_expected boolean; the upper bits are ITDOS extensions that
// legacy streams never set.
const (
	flagResponseExpected = 1 << 0
	flagDigestOK         = 1 << 1
	flagReadOnly         = 1 << 2
)

// flags packs the request's flag bits into the response-flags octet.
func (r *Request) flags() byte {
	var b byte
	if r.ResponseExpected {
		b |= flagResponseExpected
	}
	if r.DigestOK {
		b |= flagDigestOK
	}
	if r.ReadOnly {
		b |= flagReadOnly
	}
	return b
}

func (r *Request) setFlags(b byte) {
	r.ResponseExpected = b&flagResponseExpected != 0
	r.DigestOK = b&flagDigestOK != 0
	r.ReadOnly = b&flagReadOnly != 0
}

// Reply is a GIOP Reply with ITDOS extensions.
type Reply struct {
	// RequestID matches the Request this reply answers.
	RequestID uint64

	// Status is the invocation outcome.
	Status ReplyStatus

	// Exception carries the exception repository id / message when Status
	// is not StatusNoException.
	Exception string

	// Tentative marks a reply produced by speculative execution at the
	// prepared point of the ordering protocol (Castro–Liskov tentative
	// execution): the replica may still roll it back on a view change, so
	// clients only act on 2f+1 matching tentative replies. Carried in bit 1
	// of the header flags octet, which legacy encoders always wrote as the
	// byte-order bit alone — replies without the flag stay byte-identical.
	// Voters must not fold this bit into value comparison: a tentative and
	// a committed reply to the same request carry the same result.
	Tentative bool

	// Body is the CDR-encoded result list (empty on exception). A decoded
	// reply's Body aliases the decoded message.
	Body []byte

	// Results, when ResultsType is set, is the result list itself, in place
	// of Body: AppendReply marshals it once, at its final offset in the
	// message. A caller's protocol sets it on the reply it voted, so the
	// ORB takes the values the vote decoded, as a copy the caller may change
	// (cdr.CloneValue): the vote still compares late copies with its own.
	Results     cdr.Value
	ResultsType *cdr.TypeCode
}

// Message is a decoded GIOP message: exactly one of Request/Reply is
// non-nil depending on Type, except for bodyless control messages.
type Message struct {
	Type    MsgType
	Order   cdr.ByteOrder
	Request *Request
	Reply   *Reply

	// CancelID is the request id for MsgCancelRequest.
	CancelID uint64
}

const headerLen = 12

// Header flags octet bits. Bit 0 is the GIOP byte-order flag; bit 1 is the
// ITDOS tentative-reply extension (see Reply.Tentative), which legacy
// streams never set.
const (
	hdrFlagLittleEndian = 1 << 0
	hdrFlagTentative    = 1 << 1
)

// writeHeader fills a 12-byte header region in place:
// magic[4] | verMajor | verMinor | flags | msgType | size(u32)
// where flags bit0 is the byte-order flag, as in GIOP 1.1+.
func writeHeader(h []byte, order cdr.ByteOrder, flags byte, t MsgType, bodyLen int) {
	copy(h, Magic[:])
	h[4] = VersionMajor
	h[5] = VersionMinor
	h[6] = (byte(order) & 1) | flags
	h[7] = byte(t)
	// The size field is encoded in the sender's byte order, per GIOP.
	if order == cdr.LittleEndian {
		h[8] = byte(bodyLen)
		h[9] = byte(bodyLen >> 8)
		h[10] = byte(bodyLen >> 16)
		h[11] = byte(bodyLen >> 24)
	} else {
		h[8] = byte(bodyLen >> 24)
		h[9] = byte(bodyLen >> 16)
		h[10] = byte(bodyLen >> 8)
		h[11] = byte(bodyLen)
	}
}

// appendMessage reserves a header at the end of dst, runs body over the
// buffer (alignment relative to the body start), and patches the header —
// the zero-copy framing shared by every Append* encoder. A nil body
// appends a bodyless control message.
func appendMessage(dst []byte, order cdr.ByteOrder, flags byte, t MsgType, body func(e *cdr.Encoder)) []byte {
	hdr := len(dst)
	dst = append(dst, make([]byte, headerLen)...)
	e := cdr.NewEncoderOver(order, dst)
	if body != nil {
		body(e)
	}
	out := e.Bytes()
	writeHeader(out[hdr:hdr+headerLen], order, flags, t, e.Len())
	return out
}

// AppendRequest appends the encoded Request message to dst and returns the
// extended slice, encoding header and body in one pass with no
// intermediate copy. The output is byte-identical to EncodeRequest.
func AppendRequest(dst []byte, order cdr.ByteOrder, r *Request) []byte {
	return appendMessage(dst, order, 0, MsgRequest, func(e *cdr.Encoder) {
		e.WriteULongLong(r.RequestID)
		e.WriteString(r.ObjectKey)
		e.WriteString(r.Interface)
		e.WriteString(r.Operation)
		// The response-flags octet: bit 0 is response_expected (a plain CDR
		// boolean for legacy requests), bits 1-2 the ITDOS digest/read-only
		// extensions. A request without extensions encodes exactly as the old
		// WriteBoolean did.
		e.WriteOctet(r.flags())
		e.WriteOctets(r.Body)
	})
}

// AppendReply appends the encoded Reply message to dst and returns the
// extended slice; see AppendRequest. A reply with ResultsType set marshals
// Results straight into the message, where Body's octets would go; results
// that do not conform to ResultsType make it the SYSTEM_EXCEPTION reply
// "MARSHAL: <cause>" instead, as CORBA answers a reply it cannot marshal.
func AppendReply(dst []byte, order cdr.ByteOrder, r *Reply) []byte {
	var flags byte
	if r.Tentative {
		flags |= hdrFlagTentative
	}
	var err error
	out := appendMessage(dst, order, flags, MsgReply, func(e *cdr.Encoder) {
		e.WriteULongLong(r.RequestID)
		e.WriteULong(uint32(r.Status))
		e.WriteString(r.Exception)
		if r.ResultsType == nil {
			e.WriteOctets(r.Body)
			return
		}
		n := e.ReserveULong()
		start := e.Len()
		e.AppendVia(func(b []byte) []byte {
			body := cdr.NewEncoderOver(order, b)
			err = cdr.EncodeValue(body, r.ResultsType, r.Results)
			return body.Bytes()
		})
		e.PatchULong(n, uint32(e.Len()-start))
	})
	if err != nil {
		return AppendReply(out[:len(dst)], order, &Reply{RequestID: r.RequestID,
			Status: StatusSystemException, Exception: "MARSHAL: " + err.Error(), Tentative: r.Tentative})
	}
	return out
}

// EncodeRequest marshals a Request message in the given byte order.
func EncodeRequest(order cdr.ByteOrder, r *Request) []byte {
	return AppendRequest(nil, order, r)
}

// EncodeReply marshals a Reply message in the given byte order.
func EncodeReply(order cdr.ByteOrder, r *Reply) []byte {
	return AppendReply(nil, order, r)
}

// EncodeCancelRequest marshals a CancelRequest for the given request id.
func EncodeCancelRequest(order cdr.ByteOrder, requestID uint64) []byte {
	return appendMessage(nil, order, 0, MsgCancelRequest, func(e *cdr.Encoder) {
		e.WriteULongLong(requestID)
	})
}

// EncodeCloseConnection marshals a CloseConnection message.
func EncodeCloseConnection(order cdr.ByteOrder) []byte {
	return appendMessage(nil, order, 0, MsgCloseConnection, nil)
}

// Decode parses one GIOP message from buf. It rejects malformed input with
// a descriptive error; Byzantine senders reach this code path, so nothing
// here may panic. A request's or reply's Body aliases buf, which the caller
// owns and never writes again.
func Decode(buf []byte) (*Message, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("giop: message too short: %d bytes", len(buf))
	}
	if [4]byte(buf[:4]) != Magic {
		return nil, fmt.Errorf("giop: bad magic %q", buf[:4])
	}
	if buf[4] != VersionMajor || buf[5] > VersionMinor {
		return nil, fmt.Errorf("giop: unsupported version %d.%d", buf[4], buf[5])
	}
	order := cdr.ByteOrder(buf[6] & 1)
	t := MsgType(buf[7])
	var size uint32
	if order == cdr.LittleEndian {
		size = uint32(buf[8]) | uint32(buf[9])<<8 | uint32(buf[10])<<16 | uint32(buf[11])<<24
	} else {
		size = uint32(buf[8])<<24 | uint32(buf[9])<<16 | uint32(buf[10])<<8 | uint32(buf[11])
	}
	if int(size) != len(buf)-headerLen {
		return nil, fmt.Errorf("giop: size %d does not match body length %d",
			size, len(buf)-headerLen)
	}
	d := cdr.NewDecoder(buf[headerLen:], order)
	msg := &Message{Type: t, Order: order}
	switch t {
	case MsgRequest:
		req, err := decodeRequest(d)
		if err != nil {
			return nil, fmt.Errorf("giop: decode request: %w", err)
		}
		msg.Request = req
	case MsgReply:
		rep, err := decodeReply(d)
		if err != nil {
			return nil, fmt.Errorf("giop: decode reply: %w", err)
		}
		rep.Tentative = buf[6]&hdrFlagTentative != 0
		msg.Reply = rep
	case MsgCancelRequest:
		id, err := d.ReadULongLong()
		if err != nil {
			return nil, fmt.Errorf("giop: decode cancel: %w", err)
		}
		msg.CancelID = id
	case MsgCloseConnection, MsgError:
		// No body.
	default:
		return nil, fmt.Errorf("giop: unknown message type %d", byte(t))
	}
	return msg, nil
}

func decodeRequest(d *cdr.Decoder) (*Request, error) {
	var r Request
	var err error
	if r.RequestID, err = d.ReadULongLong(); err != nil {
		return nil, err
	}
	if r.ObjectKey, err = d.ReadString(); err != nil {
		return nil, err
	}
	if r.Interface, err = d.ReadString(); err != nil {
		return nil, err
	}
	if r.Operation, err = d.ReadString(); err != nil {
		return nil, err
	}
	flags, err := d.ReadOctet()
	if err != nil {
		return nil, err
	}
	r.setFlags(flags)
	if r.Body, err = d.ReadOctets(); err != nil {
		return nil, err
	}
	return &r, nil
}

func decodeReply(d *cdr.Decoder) (*Reply, error) {
	var r Reply
	id, err := d.ReadULongLong()
	if err != nil {
		return nil, err
	}
	r.RequestID = id
	status, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if status > uint32(StatusSystemException) {
		return nil, fmt.Errorf("invalid reply status %d", status)
	}
	r.Status = ReplyStatus(status)
	if r.Exception, err = d.ReadString(); err != nil {
		return nil, err
	}
	if r.Body, err = d.ReadOctets(); err != nil {
		return nil, err
	}
	return &r, nil
}
