package smiop

import (
	"fmt"

	"itdos/internal/cdr"
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
	return &SignedPayload{
		GIOP: append([]byte(nil), giopBytes...),
		Sig:  append([]byte(nil), sig...),
	}, nil
}

// VerifyFunc authenticates a sending element's signature over the signing
// bytes of its data or digest context.
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
	signing := DataSigningBytes(env.ConnID, env.RequestID, env.SrcDomain,
		env.SrcMember, env.Reply, p.GIOP)
	if !verify(env.SrcDomain, env.SrcMember, signing, p.Sig) {
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
