// Package smiop implements the Secure Multicast Inter-ORB Protocol: the
// ITDOS protocol stack layer that provides virtual connection semantics
// ("ITDOS Sockets") on top of the totally-ordered secure reliable
// multicast (paper §3.3, Figure 2).
//
// A connection is an association between two replication domains (one of
// which may be a singleton client). GIOP requests travel inside sealed
// SMIOP envelopes: the envelope header (connection id, source member,
// request id) is cleartext so the receiving stack can route and collate,
// while the GIOP payload is encrypted under the connection's communication
// key, whose seal also authenticates the header. Each connection has a
// per-direction, per-sender cipher channel so replay windows stay
// consistent and nonces never collide.
package smiop

import (
	"fmt"

	"itdos/internal/cdr"
)

// Kind tags SMIOP envelope types.
type Kind byte

// SMIOP envelope kinds. Data envelopes carry sealed GIOP; the control
// kinds implement connection establishment and membership change
// (paper §3.3, Figure 3).
const (
	// KindData is a sealed GIOP Request/Reply.
	KindData Kind = iota + 1
	// KindOpenRequest asks the Group Manager to establish a connection
	// (step 1 of Figure 3).
	KindOpenRequest
	// KindOpenAck returns connection parameters to the requester.
	KindOpenAck
	// KindKeyShare carries one Group Manager element's DPRF key share to a
	// connection endpoint (steps 2 and 3 of Figure 3), sealed under the
	// pairwise key.
	KindKeyShare
	// KindChangeRequest asks the Group Manager to expel a faulty element,
	// with proof (paper §3.6).
	KindChangeRequest
	// KindClose tears down a connection.
	KindClose
	// KindDigest is a sealed canonical reply digest: a replica that is not
	// the designated responder for a digest-flagged request answers with
	// the digest of its reply's canonical re-marshalling instead of the
	// full sealed GIOP reply (Castro–Liskov digest replies, re-derived for
	// heterogeneous encodings). Only emitted when digest replies are
	// enabled, so legacy streams never carry it.
	KindDigest
	// KindRekeyRequest asks the Group Manager to move every connection a
	// domain participates in to a fresh era without expelling anyone. Only
	// the configured intrusion-tolerance controller may send it, so legacy
	// systems (no controller) never carry it.
	KindRekeyRequest
)

// String names the envelope kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindOpenRequest:
		return "OPEN_REQUEST"
	case KindOpenAck:
		return "OPEN_ACK"
	case KindKeyShare:
		return "KEY_SHARE"
	case KindChangeRequest:
		return "CHANGE_REQUEST"
	case KindClose:
		return "CLOSE"
	case KindDigest:
		return "DIGEST"
	case KindRekeyRequest:
		return "REKEY_REQUEST"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// Envelope is the SMIOP wire unit.
type Envelope struct {
	Kind Kind
	// ConnID identifies the virtual connection (0 for control envelopes
	// that precede one).
	ConnID uint64
	// SrcDomain and SrcMember identify the sending replication domain
	// element.
	SrcDomain string
	SrcMember uint32
	// RequestID collates copies of a message and matches replies to
	// requests; strictly increasing per connection direction (paper §3.6).
	RequestID uint64
	// Reply marks the payload as a GIOP reply (server→client direction).
	Reply bool
	// FragIndex/FragCount support large-message fragmentation (paper §4
	// future work): FragCount > 1 marks the payload as fragment FragIndex
	// of a larger sealed message. 0/0 means unfragmented.
	FragIndex uint32
	FragCount uint32
	// Payload is sealed GIOP for KindData, control content otherwise.
	Payload []byte

	// OrderedBy is not on the wire. The element that takes an envelope off
	// its totally-ordered queue sets it to the sender identity the ordering
	// layer authenticated; DecodeEnvelope never sets it, so a copy from a
	// direct channel carries none (see Stream.Deliver).
	OrderedBy string

	// Owned is not on the wire either. The receiver sets it when the buffer
	// the envelope was decoded from is its alone to write, as a direct-path
	// delivery is, so OpenData decrypts the payload in place. An envelope
	// taken off the ordered queue is never owned: the queue's window still
	// holds its bytes, and its hash chain covers them.
	Owned bool
}

// Encode serialises the envelope canonically (big-endian CDR).
func (env *Envelope) Encode() []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	env.writeHeader(e)
	e.WriteOctets(env.Payload)
	return e.Bytes()
}

// writeHeader writes every field before the payload: what a sealed
// envelope's seal authenticates as associated data.
func (env *Envelope) writeHeader(e *cdr.Encoder) {
	e.WriteOctet(byte(env.Kind))
	e.WriteULongLong(env.ConnID)
	e.WriteString(env.SrcDomain)
	e.WriteULong(env.SrcMember)
	e.WriteULongLong(env.RequestID)
	e.WriteBoolean(env.Reply)
	e.WriteULong(env.FragIndex)
	e.WriteULong(env.FragCount)
}

// DecodeEnvelope parses an envelope, rejecting malformed input without
// panicking (Byzantine senders reach this path). Payload aliases buf, which
// the caller must therefore own and never write again: a buffer a transport
// handed up is (see the package note in wire.go).
func DecodeEnvelope(buf []byte) (*Envelope, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	kind, err := d.ReadOctet()
	if err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	if kind == 0 || kind > byte(KindRekeyRequest) {
		return nil, fmt.Errorf("smiop: unknown envelope kind %d", kind)
	}
	env := &Envelope{Kind: Kind(kind)}
	if env.ConnID, err = d.ReadULongLong(); err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	if env.SrcDomain, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	if env.SrcMember, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	if env.RequestID, err = d.ReadULongLong(); err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	if env.Reply, err = d.ReadBoolean(); err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	if env.FragIndex, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	if env.FragCount, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	if env.Payload, err = d.ReadOctets(); err != nil {
		return nil, fmt.Errorf("smiop: envelope: %w", err)
	}
	return env, nil
}
