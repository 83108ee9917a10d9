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
//	octets     seckey seal of this fragment's slice of the signed payload
//
// and the signed payload, before slicing, is octets(GIOP) ‖ octets(Sig)
// with Sig over AppendDataSigningBytes (empty when the sender does not
// sign).
//
// Ownership: every returned frame is a pool.Buffer holding exactly one
// reference, which the caller hands on: to transport.Send as the payload's
// owner (the transport releases it once written), to an ordered sender
// (srm.Sender.SendFrames), or back with Release on an abort path.
//
// On the receive side no decoder copies: DecodeEnvelope, DecodeSignedPayload
// and DecodeDigestPayload return slices of the buffer they are given. That
// buffer is a transport delivery, opened in place when the receiver owns it
// (Envelope.Owned), an opened seal or a reassembled message — each memory
// its receiver owns and no one else writes — never a pooled frame, which is
// recycled on release.

// signingSlack covers the signing-context fields around the GIOP bytes in
// AppendDataSigningBytes when sizing a pooled scratch.
const signingSlack = 96

// envelopeSlack covers the cleartext envelope fields before the sealed
// payload when sizing a pooled wire buffer (kind, conn id, source domain
// string, member, request id, flags, fragment counters, payload length).
func envelopeSlack(c *Connection) int { return 64 + len(c.Local.Name) }

// AppendDataSigningBytes is DataSigningBytes appending into dst — used with
// a pooled scratch so the signing input costs no heap allocation. What it
// appends does not depend on what dst already holds.
func AppendDataSigningBytes(dst []byte, connID, requestID uint64, srcDomain string,
	srcMember uint32, reply bool, giopBytes []byte) []byte {

	dst = appendDataSigningHead(dst, connID, requestID, srcDomain, srcMember, reply, len(giopBytes))
	return append(dst, giopBytes...)
}

// appendDataSigningHead appends the data signing context up to the GIOP
// bytes: every field, then the GIOP length prefix.
func appendDataSigningHead(dst []byte, connID, requestID uint64, srcDomain string,
	srcMember uint32, reply bool, giopLen int) []byte {

	e := cdr.NewEncoderOver(cdr.BigEndian, dst)
	e.WriteString("smiop-data")
	e.WriteULongLong(connID)
	e.WriteULongLong(requestID)
	e.WriteString(srcDomain)
	e.WriteULong(srcMember)
	e.WriteBoolean(reply)
	e.WriteULong(uint32(giopLen))
	return e.Bytes()
}

// appendDataEnvelope encodes one complete sealed data envelope — cleartext
// header, payload length, seal header, ciphertext, tag — into dst in a
// single pass. The sealed payload length is known before sealing
// (seckey.SealedLen), so the envelope needs no patching: the seal region is
// reserved and seckey fills it in place, encrypting plaintext straight into
// the wire buffer.
func (c *Connection) appendDataEnvelope(dst []byte, requestID uint64, reply bool,
	fragIndex, fragCount uint32, plaintext []byte) []byte {

	e := cdr.NewEncoderOver(cdr.BigEndian, dst)
	e.WriteOctet(byte(KindData))
	e.WriteULongLong(c.ID)
	e.WriteString(c.Local.Name)
	e.WriteULong(uint32(c.LocalMember))
	e.WriteULongLong(requestID)
	e.WriteBoolean(reply)
	e.WriteULong(fragIndex)
	e.WriteULong(fragCount)
	e.WriteULong(uint32(seckey.SealedLen(len(plaintext))))
	off := e.ReserveRaw(seckey.SealedLen(len(plaintext)))
	out := e.Bytes()
	c.send.SealTo(out, off, plaintext)
	return out
}

// SealGIOPWire signs and seals a GIOP message into ready-to-send wire
// frames. appendGIOP encodes the message directly into the staging buffer
// (e.g. a giop.AppendRequest closure), so the GIOP bytes are produced once,
// at their final payload offset, with no intermediate buffer. One signature
// covers the whole message; a signed payload larger than fragSize (0:
// DefaultFragmentSize) is split into chunks sealed one by one, and a
// smaller one comes back as a single frame with fragment count 0. A signed
// payload over MaxMessageBytes is refused.
//
// Each returned frame holds one pool reference the caller must Release
// (or Detach) — see the package ownership note above.
func (c *Connection) SealGIOPWire(requestID uint64, reply bool,
	appendGIOP func(dst []byte) []byte,
	sign func(msg []byte) []byte, fragSize int) ([]*pool.Buffer, error) {

	if fragSize <= 0 {
		fragSize = DefaultFragmentSize
	}
	// Stage the signed payload (WriteOctets(GIOP) ++ WriteOctets(Sig)) in a
	// pooled scratch; fragments are sliced out of it without copying.
	scratch := pool.Get(fragSize)
	defer scratch.Release()
	pe := cdr.NewEncoderOver(cdr.BigEndian, scratch.B)
	glen := pe.ReserveULong() // the WriteOctets(GIOP) length prefix
	gstart := pe.Len()
	pe.AppendVia(appendGIOP)
	gend := pe.Len()
	pe.PatchULong(glen, uint32(gend-gstart))
	giopBytes := pe.Stream()[gstart:gend]
	sb := pool.Get(len(giopBytes) + signingSlack)
	sb.B = AppendDataSigningBytes(sb.B, c.ID, requestID, c.Local.Name,
		uint32(c.LocalMember), reply, giopBytes)
	sig := sign(sb.B)
	sb.Release()
	pe.WriteOctets(sig)
	scratch.B = pe.Bytes()
	whole := scratch.B
	if len(whole) > MaxMessageBytes {
		return nil, fmt.Errorf("smiop: message of %d bytes exceeds %d", len(whole), MaxMessageBytes)
	}

	if len(whole) <= fragSize {
		wb := pool.Get(envelopeSlack(c) + seckey.SealedLen(len(whole)))
		wb.B = c.appendDataEnvelope(wb.B, requestID, reply, 0, 0, whole)
		return []*pool.Buffer{wb}, nil
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
		wb := pool.Get(envelopeSlack(c) + seckey.SealedLen(hi-lo))
		wb.B = c.appendDataEnvelope(wb.B, requestID, reply, uint32(i), uint32(count), whole[lo:hi])
		frames = append(frames, wb)
	}
	return frames, nil
}

// SealSignedDataWire is SealGIOPWire over already-encoded GIOP bytes — for
// callers that must keep an owned copy of the message anyway (e.g. the
// element reply cache).
func (c *Connection) SealSignedDataWire(requestID uint64, reply bool, giopBytes []byte,
	sign func(msg []byte) []byte, fragSize int) ([]*pool.Buffer, error) {

	return c.SealGIOPWire(requestID, reply,
		func(dst []byte) []byte { return append(dst, giopBytes...) }, sign, fragSize)
}

// ReleaseFrames releases every frame of a batch (abort paths).
func ReleaseFrames(frames []*pool.Buffer) {
	for _, f := range frames {
		f.Release()
	}
}
