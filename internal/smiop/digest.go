package smiop

import (
	"crypto/sha256"
	"fmt"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/pool"
)

// Reply digests (Castro–Liskov digest replies, re-derived for ITDOS).
//
// For a digest-flagged request, one deterministic designated responder
// sends the full sealed GIOP reply; every other replica sends a short
// digest instead, cutting the reply channel from 3f+1 full replies to one
// full reply plus 3f digests. The digest cannot be a hash of the reply
// bytes: heterogeneous replicas marshal the same values into different
// byte streams (paper §3.6), so raw-byte digests would disagree exactly
// where the full-reply voter would agree. The digest is therefore computed
// over the *canonical CDR re-marshalling* of the unmarshalled reply values
// (cdr.CanonicalMarshal: fixed byte order, normalised NaN/-0), bound to
// the reply's identity fields so a digest for one operation cannot stand
// in for another.

// DigestSize is the length of a canonical reply digest (SHA-256).
const DigestSize = sha256.Size

// CanonicalReplyDigest computes the canonical digest of a reply: a hash
// over a domain separator, the reply's identity fields, and the canonical
// re-marshalling of its result values. Two replicas whose replies would
// vote equal under exact value voting produce the same digest, whatever
// their native encodings.
func CanonicalReplyDigest(iface, op string, status giop.ReplyStatus, exception string,
	tc *cdr.TypeCode, body cdr.Value) ([]byte, error) {

	canon, err := cdr.CanonicalMarshal(tc, body)
	if err != nil {
		return nil, fmt.Errorf("smiop: canonical digest %s.%s: %w", iface, op, err)
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("itdos-reply-digest")
	e.WriteString(iface)
	e.WriteString(op)
	e.WriteULong(uint32(status))
	e.WriteString(exception)
	e.WriteOctets(canon)
	sum := sha256.Sum256(e.Bytes())
	return sum[:], nil
}

// DigestPayload is the plaintext inside a sealed digest envelope: the
// canonical reply digest plus the sending element's signature over it in
// its transport context. The signature authenticates the digest but is
// *not* transferable fault evidence — a bare digest does not reveal the
// value it commits to, so digest votes never file change_requests; the
// fallback's full-reply vote provides GM-verifiable evidence instead.
type DigestPayload struct {
	Digest []byte
	Sig    []byte
}

// Encode serialises the payload canonically.
func (p *DigestPayload) Encode() []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctets(p.Digest)
	e.WriteOctets(p.Sig)
	return e.Bytes()
}

// DecodeDigestPayload parses a digest payload, rejecting malformed input
// (trailing octets included) without panicking: Byzantine senders reach
// this path. Digest and Sig alias buf, like DecodeSignedPayload's fields.
func DecodeDigestPayload(buf []byte) (*DigestPayload, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	digest, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("smiop: digest payload: %w", err)
	}
	if len(digest) != DigestSize {
		return nil, fmt.Errorf("smiop: digest payload: digest is %d bytes, want %d",
			len(digest), DigestSize)
	}
	sig, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("smiop: digest payload: %w", err)
	}
	if n := d.Remaining(); n != 0 {
		return nil, fmt.Errorf("smiop: digest payload: %d trailing octets", n)
	}
	return &DigestPayload{Digest: digest, Sig: sig}, nil
}

// openDigestPayload authenticates the plaintext of a digest envelope and
// returns the canonical digest it carries. Digests never fragment.
func openDigestPayload(env *Envelope, plaintext []byte, verify VerifyFunc) ([]byte, error) {
	if env.FragCount > 1 {
		return nil, fmt.Errorf("smiop: conn %d: fragmented digest envelope", env.ConnID)
	}
	payload, err := DecodeDigestPayload(plaintext)
	if err != nil {
		return nil, err
	}
	d := DigestSigningDigest(env.ConnID, env.RequestID, env.SrcDomain, env.SrcMember, payload.Digest)
	if !verify(env.SrcDomain, env.SrcMember, d[:], payload.Sig) {
		return nil, fmt.Errorf("smiop: conn %d member %d: bad digest signature",
			env.ConnID, env.SrcMember)
	}
	return payload.Digest, nil
}

// DigestSigningDigest is what a digest message's signature covers: SHA-256
// of the digest in its transport context, streamed like DataSigningDigest.
func DigestSigningDigest(connID, requestID uint64, srcDomain string, srcMember uint32,
	digest []byte) [32]byte {

	head := pool.Get(headSlack(srcDomain))
	defer head.Release()
	e := cdr.NewEncoderOver(cdr.BigEndian, head.B)
	e.WriteString("smiop-digest")
	e.WriteULongLong(connID)
	e.WriteULongLong(requestID)
	e.WriteString(srcDomain)
	e.WriteULong(srcMember)
	e.WriteULong(uint32(len(digest)))
	return contextDigest(e.Bytes(), digest)
}

// SealSignedDigest signs a canonical reply digest in the connection's
// digest context (sign gets its DigestSigningDigest) and seals it through
// the data envelopes' writer into one reply frame, owned as SealGIOPWire's
// are.
func (c *Connection) SealSignedDigest(requestID uint64, digest []byte,
	sign func(digest []byte) []byte) *pool.Buffer {

	d := DigestSigningDigest(c.ID, requestID, c.Local.Name, uint32(c.LocalMember), digest)
	plaintext := (&DigestPayload{Digest: digest, Sig: sign(d[:])}).Encode()
	return c.sealEnvelope(KindDigest, requestID, true, 0, 0, plaintext)
}

// DesignatedResponder maps a request id to the replica that must answer
// with the full reply: requestID mod n, skipping expelled/suspected
// members. Both connection endpoints evaluate it with their own expulsion
// view; the Group Manager's rekey protocol keeps those views converging,
// and a transient divergence at worst costs one fallback round.
func DesignatedResponder(requestID uint64, n int, expelled func(member int) bool) int {
	if n < 1 {
		return 0
	}
	start := int(requestID % uint64(n))
	for i := 0; i < n; i++ {
		m := (start + i) % n
		if expelled == nil || !expelled(m) {
			return m
		}
	}
	return start
}
