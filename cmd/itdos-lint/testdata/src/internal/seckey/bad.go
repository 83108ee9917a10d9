// Package seckey holds fixtures for the ct-mac check.
package seckey

import "bytes"

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

type channel struct{ sum []byte }

// open is the keep-test row: seckey.Channel.Open with its hmac.Equal tag
// check swapped for bytes.Equal, which no test can tell apart.
func (c *channel) open(wantMAC []byte) bool {
	return !bytes.Equal(c.sum, wantMAC) // want:ct-mac
}
