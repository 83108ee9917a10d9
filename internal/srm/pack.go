package srm

import (
	"bytes"
	"encoding/binary"

	"itdos/internal/pbft"
)

// A pack carries several payloads of one sender in one PBFT request, so a
// sender orders what it has ready — every fragment of a message, or whatever
// queued behind its request in flight — in one agreement round. Execute
// unpacks it: each payload becomes its own queue message, exactly as if it
// had been ordered alone.
//
// Encoding (big-endian, no padding):
//
//	packMarker | u16 count | count × (u32 len | len octets)
//
// An op is a pack only if it is well formed: the marker, a count in
// [1, MaxPackPayloads] and payloads that end exactly where the op does.
// Anything else — a lone payload — is one message, as before packs existed.
// A sender therefore sends a lone payload as it is, unless it begins with
// the marker: then it goes as a pack of one, so no payload is ever read as
// something it is not. Payloads are never unpacked twice: a pack inside a
// pack is one payload.
var packMarker = []byte("\x00SRM-PACK\x00")

// MaxPackBytes bounds a pack's encoding. Half a request's worth
// (pbft.MaxRequestBytes) leaves the other half for the request's own fields,
// so a full pack is a request every replica orders (TestPackBudget). A lone
// payload is not a pack and is bounded only by pbft.MaxRequestBytes.
const MaxPackBytes = pbft.MaxRequestBytes / 2

// MaxPackPayloads bounds the payloads of one pack: one request can displace
// at most a sixteenth of a default-size queue window.
const MaxPackPayloads = defaultQueueCapacity / 16

// defaultQueueCapacity is the retained window NewDomain gives a queue whose
// configuration names none.
const defaultQueueCapacity = 1024

// packHeaderLen and packEntryLen are the framing a pack adds: once, and per
// payload.
const (
	packHeaderLen = 2
	packEntryLen  = 4
)

// encodePack frames payloads as one pack.
func encodePack(payloads [][]byte) []byte {
	n := len(packMarker) + packHeaderLen
	for _, p := range payloads {
		n += packEntryLen + len(p)
	}
	b := make([]byte, 0, n)
	b = append(b, packMarker...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(payloads)))
	for _, p := range payloads {
		b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// decodePack splits op into its payloads, which alias op, or reports that
// op is not a well-formed pack (and so is one lone payload).
func decodePack(op []byte) ([][]byte, bool) {
	rest, ok := bytes.CutPrefix(op, packMarker)
	if !ok || len(rest) < packHeaderLen {
		return nil, false
	}
	count := int(binary.BigEndian.Uint16(rest))
	rest = rest[packHeaderLen:]
	// Every payload costs at least its length field, so a count the op
	// cannot hold is refused before anything is allocated for it.
	if count < 1 || count > MaxPackPayloads || count*packEntryLen > len(rest) {
		return nil, false
	}
	payloads := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < packEntryLen {
			return nil, false
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[packEntryLen:]
		if uint64(n) > uint64(len(rest)) {
			return nil, false
		}
		payloads = append(payloads, rest[:n:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, false
	}
	return payloads, true
}

// Payloads returns the messages an ordered op carries: the payloads of a
// well-formed pack, which alias op, else op itself. It is the one reading of
// an op that Execute, and anything inspecting ordered requests on the way to
// a domain, applies.
func Payloads(op []byte) [][]byte {
	if payloads, ok := decodePack(op); ok {
		return payloads
	}
	return [][]byte{op}
}

// packOp is what a sender hands the PBFT client for payloads sent together:
// a lone payload as it is (unless it would read as a pack), more as a pack.
func packOp(payloads [][]byte) []byte {
	if len(payloads) == 1 && !bytes.HasPrefix(payloads[0], packMarker) {
		return payloads[0]
	}
	return encodePack(payloads)
}
