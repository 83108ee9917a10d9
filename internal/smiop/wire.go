package smiop

import (
	"fmt"

	"itdos/internal/cdr"
	"itdos/internal/pool"
	"itdos/internal/seckey"
)

// The seal chain: marshal→sign→seal→fragment fused into single passes over
// pooled buffers. The GIOP message encodes directly at its final offset
// inside the staged signed payload, fragments are sliced (not copied) out
// of the staging buffer, and each fragment's envelope header, seal header,
// ciphertext and tag are produced in one pass into a pooled wire buffer:
// the only traversals of the payload bytes are the signature and the one
// AES-GCM pass that encrypts and authenticates them. All fragments of a
// message seal over the connection's cached key schedule (seckey.Channel) —
// one batch, no per-fragment key setup.
//
// Wire layout of one data frame, big-endian CDR (what DecodeEnvelope
// reads; pinned byte for byte by TestWireGolden):
//
//	octet      KindData
//	ulonglong  connection id
//	string     source domain
//	ulong      source member
//	ulonglong  request id
//	boolean    reply
//	ulong      fragment index
//	ulong      fragment count (0: the message is this one frame)
//	octets     seckey seal of this fragment's slice of the signed payload,
//	           authenticating every field above
//
// and the signed payload, before slicing, is octets(GIOP) ‖ octets(Sig)
// with Sig over DataSigningDigest (empty when the sender does not sign: a
// singleton caller's ordered request, vouched for by its PBFT Request).
//
// Ownership: every returned frame is a pool.Buffer holding exactly one
// reference, which the caller hands on: to transport.Send as the payload's
// owner (the transport releases it once written), to an ordered sender
// (srm.Sender.SendFrames), or back with Release on an abort path.
//
// On the receive side no decoder copies: DecodeEnvelope and
// DecodeSignedPayload return slices of the buffer they are given. That
// buffer is a transport delivery, opened in place when the receiver owns it
// (Envelope.Owned), an opened seal or a reassembled message — each memory
// its receiver owns and no one else writes — never a pooled frame, which is
// recycled on release.

// headSlack sizes a pooled buffer for the fields around domain in an
// envelope's cleartext header or in a signing context.
func headSlack(domain string) int { return 64 + len(domain) }

// sealEnvelope, the one writer of sealed data envelopes, encodes one —
// cleartext header, payload length, seal header, ciphertext, tag — into a
// pooled wire frame in a single pass, the seal authenticating the header as
// associated data. The sealed length is known
// before sealing (seckey.SealedLen), so seckey fills the reserved region in
// place, encrypting plaintext straight into the frame.
func (c *Connection) sealEnvelope(requestID uint64, reply bool,
	fragIndex, fragCount uint32, plaintext []byte) *pool.Buffer {

	hdr := Envelope{Kind: KindData, ConnID: c.ID, SrcDomain: c.Local.Name, SrcMember: uint32(c.LocalMember),
		RequestID: requestID, Reply: reply, FragIndex: fragIndex, FragCount: fragCount}
	wb := pool.Get(headSlack(c.Local.Name) + seckey.SealedLen(len(plaintext)))
	e := cdr.NewEncoderOver(cdr.BigEndian, wb.B)
	hdr.writeHeader(e)
	hdrLen := e.Len()
	e.WriteULong(uint32(seckey.SealedLen(len(plaintext))))
	off := e.ReserveRaw(seckey.SealedLen(len(plaintext)))
	wb.B = e.Bytes()
	c.send.SealTo(wb.B, off, plaintext, wb.B[:hdrLen])
	return wb
}

// SealGIOPWire signs and seals a GIOP message into ready-to-send wire
// frames. appendGIOP encodes the message directly into the staging buffer
// (e.g. a giop.AppendRequest closure), so the GIOP bytes are produced once,
// at their final payload offset. sign gets the message's 32-byte
// DataSigningDigest, hashed where the GIOP bytes lie, and returns the
// signature over it (pbft.SignDigest). A nil sign stages an empty Sig and
// hashes nothing: the payload is then admitted only on the ordering layer's
// authentication of its sender (Stream.vouched), which is how a singleton
// caller's ordered request travels. A signed payload larger than fragSize
// (0: DefaultFragmentSize) is split into chunks sealed one by one, a smaller
// one is a single frame with fragment count 0, and one over MaxMessageBytes
// is refused.
//
// Each returned frame holds one pool reference the caller must Release
// (or Detach) — see the package ownership note above.
func (c *Connection) SealGIOPWire(requestID uint64, reply bool,
	appendGIOP func(dst []byte) []byte,
	sign func(digest []byte) []byte, fragSize int) ([]*pool.Buffer, error) {

	sig := func([]byte) []byte { return nil }
	if sign != nil {
		sig = func(giopBytes []byte) []byte {
			d := DataSigningDigest(c.ID, requestID, c.Local.Name, uint32(c.LocalMember), reply, giopBytes)
			return sign(d[:])
		}
	}
	return c.sealData(requestID, reply, appendGIOP, sig, fragSize)
}

// SealSignedDataWire is SealGIOPWire over already-encoded GIOP bytes and
// their signature, plain or batched, made beforehand: it hashes nothing.
func (c *Connection) SealSignedDataWire(requestID uint64, reply bool, giopBytes, sig []byte,
	fragSize int) ([]*pool.Buffer, error) {

	return c.sealData(requestID, reply, func(dst []byte) []byte { return append(dst, giopBytes...) },
		func([]byte) []byte { return sig }, fragSize)
}

// sealData stages octets(GIOP) ‖ octets(sig(GIOP)) in a pooled scratch and
// seals slices of it, fragments, into wire frames.
func (c *Connection) sealData(requestID uint64, reply bool, appendGIOP func(dst []byte) []byte,
	sig func(giopBytes []byte) []byte, fragSize int) ([]*pool.Buffer, error) {

	if fragSize <= 0 {
		fragSize = DefaultFragmentSize
	}
	scratch := pool.Get(fragSize)
	defer scratch.Release()
	pe := cdr.NewEncoderOver(cdr.BigEndian, scratch.B)
	glen := pe.ReserveULong() // the WriteOctets(GIOP) length prefix
	gstart := pe.Len()
	pe.AppendVia(appendGIOP)
	gend := pe.Len()
	pe.PatchULong(glen, uint32(gend-gstart))
	pe.WriteOctets(sig(pe.Stream()[gstart:gend]))
	scratch.B = pe.Bytes()
	whole := scratch.B
	if len(whole) > MaxMessageBytes {
		return nil, fmt.Errorf("smiop: message of %d bytes exceeds %d", len(whole), MaxMessageBytes)
	}

	if len(whole) <= fragSize {
		return []*pool.Buffer{c.sealEnvelope(requestID, reply, 0, 0, whole)}, nil
	}
	count := (len(whole) + fragSize - 1) / fragSize
	if count > maxFragments {
		return nil, fmt.Errorf("smiop: message of %d bytes needs %d fragments (max %d)",
			len(whole), count, maxFragments)
	}
	frames := make([]*pool.Buffer, 0, count)
	for i := 0; i < count; i++ {
		lo := i * fragSize
		hi := min(lo+fragSize, len(whole))
		frames = append(frames, c.sealEnvelope(requestID, reply, uint32(i), uint32(count), whole[lo:hi]))
	}
	return frames, nil
}

// ReleaseFrames releases every frame of a batch (abort paths).
func ReleaseFrames(frames []*pool.Buffer) {
	for _, f := range frames {
		f.Release()
	}
}
