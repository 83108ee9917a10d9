package smiop

import (
	"crypto/sha256"
	"fmt"

	"itdos/internal/cdr"
	"itdos/internal/pool"
)

// SignedPayload is the plaintext inside a sealed data envelope: the GIOP
// message plus the sending element's signature over it. The signature is
// what makes fault evidence transferable: a client that detects a faulty
// value can hand the signed messages to the Group Manager as proof
// (paper §3.6 — "The proof is the set of signed messages through which the
// faulty value was detected"). A singleton caller's ordered request carries
// an empty Sig: its PBFT Request signature, by the same key, is its one
// signature, and Verify refuses it wherever that signature does not vouch.
type SignedPayload struct {
	GIOP []byte
	Sig  []byte
}

// DecodeSignedPayload parses a payload: WriteOctets(GIOP) then
// WriteOctets(Sig), big-endian CDR, as SealGIOPWire stages it, with zero
// padding and nothing after, so each signed copy has exactly one encoding.
// GIOP and Sig alias buf, which the caller owns and never writes again (an
// opened seal or a reassembled message is a fresh buffer).
func DecodeSignedPayload(buf []byte) (*SignedPayload, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	giopBytes, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("smiop: signed payload: %w", err)
	}
	sig, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("smiop: signed payload: %w", err)
	}
	if n := d.Remaining(); n != 0 {
		return nil, fmt.Errorf("smiop: signed payload: %d trailing octets", n)
	}
	// The decoder skips the alignment before Sig's length; zeros are its
	// one encoding.
	for _, b := range buf[4+len(giopBytes) : len(buf)-4-len(sig)] {
		if b != 0 {
			return nil, fmt.Errorf("smiop: signed payload: nonzero padding")
		}
	}
	return &SignedPayload{GIOP: giopBytes, Sig: sig}, nil
}

// VerifyFunc authenticates a sending element's signature, Ed25519 over the
// 32-byte digest of its data or digest context (DataSigningDigest,
// DigestSigningDigest), refusing a digest of any other length. It must not
// retain the digest.
type VerifyFunc func(srcDomain string, member uint32, digest, sig []byte) bool

// SigOutcome is how one signature check ended.
type SigOutcome int

const (
	SigRejected SigOutcome = iota
	// SigVerified: a signature verification ran and passed.
	SigVerified
	// SigRemembered: a memo of an earlier passing verification of the very
	// same signature answered, so none ran.
	SigRemembered
)

// CheckFunc is a VerifyFunc that also says whether a memo answered.
type CheckFunc func(srcDomain string, member uint32, digest, sig []byte) SigOutcome

// Verify checks the sender's signature over the payload in env's data
// context — the authentication step of every full data copy, whichever vote
// or channel it arrives on.
func (p *SignedPayload) Verify(env *Envelope, verify VerifyFunc) error {
	d := DataSigningDigest(env.ConnID, env.RequestID, env.SrcDomain, env.SrcMember,
		env.Reply, p.GIOP)
	if !verify(env.SrcDomain, env.SrcMember, d[:], p.Sig) {
		return fmt.Errorf("smiop: conn %d member %d: bad message signature",
			env.ConnID, env.SrcMember)
	}
	return nil
}

// DataSigningBytes binds GIOP bytes to their full transport context —
// connection, request id, direction and sender — so signed material cannot
// be replayed in another context, while remaining verifiable by a third
// party (the Group Manager) that holds only the cleartext proof. Signatures
// cover its SHA-256, which no one builds it for (DataSigningDigest); tests
// compare the two.
func DataSigningBytes(connID, requestID uint64, srcDomain string, srcMember uint32,
	reply bool, giopBytes []byte) []byte {

	return append(appendDataSigningHead(nil, connID, requestID, srcDomain, srcMember, reply,
		len(giopBytes)), giopBytes...)
}

// DataSigningDigest is SHA-256 of DataSigningBytes, hashed as it streams:
// the context fields encode into a pooled scratch, the GIOP bytes are hashed
// where they lie. It is also a reply's leaf in a batch tree.
func DataSigningDigest(connID, requestID uint64, srcDomain string, srcMember uint32,
	reply bool, giopBytes []byte) [32]byte {

	head := pool.Get(headSlack(srcDomain))
	defer head.Release()
	return contextDigest(appendDataSigningHead(head.B, connID, requestID, srcDomain, srcMember,
		reply, len(giopBytes)), giopBytes)
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

// contextDigest is SHA-256 of head ‖ body, hashed where both lie.
func contextDigest(head, body []byte) (sum [32]byte) {
	h := sha256.New()
	for _, b := range [][]byte{head, body} {
		if _, err := h.Write(b); err != nil {
			panic("smiop: SHA-256 write: " + err.Error()) // hash.Hash's Write never fails
		}
	}
	h.Sum(sum[:0])
	return sum
}
