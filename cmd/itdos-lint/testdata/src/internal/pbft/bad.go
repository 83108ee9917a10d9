// Package pbft holds fixtures for the ct-mac check.
package pbft

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
)

func verifyMAC(gotMAC, wantMAC []byte) bool {
	return bytes.Equal(gotMAC, wantMAC) // want:ct-mac
}

func verifyTag(computedTag, msgTag []byte) bool {
	return bytes.Compare(computedTag, msgTag) == 0 // want:ct-mac
}

func verifyAgainst(tag, want []byte) bool {
	return bytes.Equal(tag, want) // want:ct-mac
}

func tagMatch(aTag, bTag [16]byte) bool {
	return aTag == bTag // want:ct-mac
}

type ed25519Auth struct{ pairs map[string][]byte }

func tagOf(key, msg []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return mac.Sum(nil)[:16]
}

// VerifyMAC is the keep-test row: pbft.Ed25519Auth.VerifyMAC with its
// hmac.Equal tag check swapped for bytes.Equal, which no test can tell apart.
func (a *ed25519Auth) VerifyMAC(peer string, msg, tag []byte) bool {
	key := a.pairs[peer]
	return key != nil && bytes.Equal(tag, tagOf(key, msg)) // want:ct-mac
}
