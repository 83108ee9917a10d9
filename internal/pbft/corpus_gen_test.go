//go:build corpusgen

package pbft

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenMACCorpus writes the committed seed corpus for
// FuzzMACAuthenticator: a commit and a reply with good tags, then the same
// messages with authenticators of hostile lengths — empty, one byte either
// side of a tag and of a full vector, a signature where tags belong, a vector
// for a larger group — and length fields that promise more than the buffer
// holds. Regenerate with:
//
//	go test -tags corpusgen -run TestGenMACCorpus ./internal/pbft
func TestGenMACCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzMACAuthenticator")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	_, _, all := fuzzAuths(t)
	commit := &Commit{View: 2, Seq: 9, Digest: Digest{7}, Replica: 2}
	signIn(all["replica:2"], commit, fuzzIDs)
	reply := &Reply{View: 2, ClientID: "client:x", ClientSeq: 5, Replica: 3, Result: []byte("ack")}
	SignMessage(all["replica:3"], reply)
	seeds := [][]byte{Encode(commit), Encode(reply)}
	vector, tag := commit.Sig, reply.Sig
	for _, n := range []int{0, 1, MACSize - 1, MACSize, MACSize + 1, 4*MACSize - 1, 4*MACSize + 1, 7 * MACSize, 4096} {
		c := *commit
		c.Sig = bytes.Repeat(vector, n/len(vector)+1)[:n]
		seeds = append(seeds, Encode(&c))
	}
	for _, n := range []int{0, 1, MACSize - 1, MACSize + 1, 4 * MACSize, 4096} {
		r := *reply
		r.Sig = bytes.Repeat(tag, n/len(tag)+1)[:n]
		seeds = append(seeds, Encode(&r))
	}
	signed := *commit
	signed.Sig = all["replica:2"].Sign(signingDigest(commit))
	seeds = append(seeds, Encode(&signed))
	// The authenticator is the trailing ULong-counted octets: claim 2 GiB.
	for _, good := range [][]byte{Encode(commit), Encode(reply)} {
		sigLen := len(good) - len(vector) - 4
		if good[0] == byte(MTReply) {
			sigLen = len(good) - len(tag) - 4
		}
		lie := append([]byte(nil), good...)
		copy(lie[sigLen:], []byte{0x7F, 0xFF, 0xFF, 0xFF})
		seeds = append(seeds, lie)
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
