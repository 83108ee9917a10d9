package pbft

import (
	"bytes"
	"crypto/hmac"
	"crypto/subtle"
)

// Negative fixtures: the sanctioned constant-time comparators, plus a
// bytes.Equal on material whose naming carries no authenticator meaning
// (the heuristic must not fire on plain payload equality).

func verifyMACConstantTime(gotMAC, wantMAC []byte) bool {
	return hmac.Equal(gotMAC, wantMAC)
}

func verifyTagConstantTime(computedTag, msgTag []byte) bool {
	return subtle.ConstantTimeCompare(computedTag, msgTag) == 1
}

func samePayload(a, b []byte) bool {
	return bytes.Equal(a, b)
}

// A public digest — SHA-256 of a message every replica holds — is not keyed
// material, and neither is a signature anyone can check.
var nullDigest [32]byte

func isNullDigest(d [32]byte) bool {
	return d == nullDigest
}

func sameSignature(sigA, sigB []byte) bool {
	return bytes.Equal(sigA, sigB)
}

// a justified suppression: a known-answer self-test has no secret to leak.
func knownAnswer(tag, vector []byte) bool {
	return bytes.Equal(tag, vector) //itdos:nolint ct-mac -- fixture: published test vector, no key involved
}
