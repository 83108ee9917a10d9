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
// faulty value was detected").
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

// VerifyFunc authenticates a sending element's signature over the signing
// bytes of its data or digest context. The signing bytes may live in a pooled
// buffer reused once the call returns: a VerifyFunc must not retain them.
type VerifyFunc func(srcDomain string, member uint32, signingBytes, sig []byte) bool

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
type CheckFunc func(srcDomain string, member uint32, signingBytes, sig []byte) SigOutcome

// Verify checks the sender's signature over the payload in env's data
// context — the authentication step of every full data copy, whichever vote
// or channel it arrives on.
func (p *SignedPayload) Verify(env *Envelope, verify VerifyFunc) error {
	sb := pool.Get(len(p.GIOP) + signingSlack)
	sb.B = AppendDataSigningBytes(sb.B, env.ConnID, env.RequestID, env.SrcDomain,
		env.SrcMember, env.Reply, p.GIOP)
	ok := verify(env.SrcDomain, env.SrcMember, sb.B, p.Sig)
	sb.Release()
	if !ok {
		return fmt.Errorf("smiop: conn %d member %d: bad message signature",
			env.ConnID, env.SrcMember)
	}
	return nil
}

// DataSigningBytes builds the byte string a data message's signature
// covers. It binds the GIOP bytes to their full transport context —
// connection, request id, direction and sender — so signed material cannot
// be replayed in another context, while remaining verifiable by a third
// party (the Group Manager) that holds only the cleartext proof.
func DataSigningBytes(connID, requestID uint64, srcDomain string, srcMember uint32,
	reply bool, giopBytes []byte) []byte {

	return AppendDataSigningBytes(nil, connID, requestID, srcDomain, srcMember, reply, giopBytes)
}

// DataSigningDigest is SHA-256 of DataSigningBytes, hashed as it streams:
// the context fields encode into a small scratch and the GIOP bytes are
// hashed where they lie. It is the leaf a reply enters a batch tree as
// (ReplyLeaf of its preimage), without building the preimage.
func DataSigningDigest(connID, requestID uint64, srcDomain string, srcMember uint32,
	reply bool, giopBytes []byte) [32]byte {

	var scratch [signingSlack]byte
	head := appendDataSigningHead(scratch[:0], connID, requestID, srcDomain, srcMember,
		reply, len(giopBytes))
	h := sha256.New()
	for _, b := range [][]byte{head, giopBytes} {
		if _, err := h.Write(b); err != nil {
			panic("smiop: SHA-256 write: " + err.Error()) // hash.Hash's Write never fails
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}
