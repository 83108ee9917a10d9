package smiop

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// batchKey signs like pbft.SignDigest: Ed25519 over the digest handed in.
var batchKey = ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))

func batchSign(digest []byte) []byte { return ed25519.Sign(batchKey, digest) }

func batchVerifies(root [32]byte, sig []byte) bool {
	d := sha256.Sum256(append([]byte(rootContext), root[:]...))
	return ed25519.Verify(batchKey.Public().(ed25519.PublicKey), d[:], sig)
}

func testLeaves(n int) [][32]byte {
	leaves := make([][32]byte, n)
	for i := range leaves {
		leaves[i] = sha256.Sum256([]byte(fmt.Sprintf("preimage %d", i)))
	}
	return leaves
}

// mth is RFC 6962's Merkle tree hash written out from its definition, the
// reference SignReplyBatch's tree must reproduce.
func mth(leaves [][32]byte) [32]byte {
	if len(leaves) == 1 {
		return sha256.Sum256(append([]byte{0}, leaves[0][:]...))
	}
	k := 1
	for 2*k < len(leaves) {
		k *= 2
	}
	l, r := mth(leaves[:k]), mth(leaves[k:])
	return sha256.Sum256(append(append([]byte{1}, l[:]...), r[:]...))
}

// TestSigningDigests: each digest a signature covers, hashed as it streams,
// is SHA-256 of its context's from-definition layout — data (the leaf a
// reply enters a batch as), digest and reply root — whatever the domain
// name's alignment and length (past the scratch the context encodes into
// included) and the payload's length.
func TestSigningDigests(t *testing.T) {
	for _, domain := range []string{"", "a", "bank", "bank-x", strings.Repeat("d", 200)} {
		for _, n := range []int{0, 1, 3, 7, 32, 16 << 10} {
			body := bytes.Repeat([]byte{0xA5}, n)
			var root [32]byte
			copy(root[:], body)
			for _, c := range []struct {
				name      string
				streamed  [32]byte
				reference []byte
			}{
				{"data request", DataSigningDigest(11, 42, domain, 3, false, body),
					DataSigningBytes(11, 42, domain, 3, false, body)},
				{"data reply", DataSigningDigest(11, 42, domain, 3, true, body),
					DataSigningBytes(11, 42, domain, 3, true, body)},
				{"digest", DigestSigningDigest(11, 42, domain, 3, body),
					DigestSigningBytes(11, 42, domain, 3, body)},
				{"root", RootDigest(root), append([]byte(rootContext), root[:]...)},
			} {
				if c.streamed != sha256.Sum256(c.reference) {
					t.Errorf("%s, domain %d octets, payload %d: streamed digest differs from its layout's",
						c.name, len(domain), n)
				}
			}
		}
	}
}

// TestReplyBatchRoundTrip: for every batch size 2..16 and every leaf, the
// batched Sig parses, carries at most four siblings, recomputes the RFC 6962
// root, and its root signature verifies over rootContext ‖ root.
func TestReplyBatchRoundTrip(t *testing.T) {
	for n := 2; n <= MaxReplyLeaves; n++ {
		leaves := testLeaves(n)
		sigs, err := SignReplyBatch(leaves, batchSign)
		if err != nil {
			t.Fatal(err)
		}
		want := mth(leaves)
		for i, sig := range sigs {
			b, err := ParseBatchedSig(sig)
			if err != nil {
				t.Fatalf("n=%d leaf %d: %v", n, i, err)
			}
			if b.Index != i || b.Count != n || len(b.Siblings) > 4 {
				t.Fatalf("n=%d leaf %d: parsed leaf %d of %d, %d siblings", n, i, b.Index, b.Count, len(b.Siblings))
			}
			if root := b.Root(leaves[i]); root != want {
				t.Fatalf("n=%d leaf %d: root %x, RFC 6962 gives %x", n, i, root, want)
			}
			if !batchVerifies(want, b.Sig) {
				t.Fatalf("n=%d leaf %d: root signature does not verify", n, i)
			}
			if other := b.Root(leaves[(i+1)%n]); other == want {
				t.Fatalf("n=%d leaf %d: another leaf recomputes the same root", n, i)
			}
		}
	}
	for _, n := range []int{0, 1, MaxReplyLeaves + 1} {
		if _, err := SignReplyBatch(testLeaves(n), batchSign); err == nil {
			t.Errorf("a batch of %d signed", n)
		}
	}
}

// TestParseBatchedSigRefuses: a plain signature, a count outside 2..16, an
// index outside the tree, a missing or extra sibling, and a truncated path
// do not parse.
func TestParseBatchedSigRefuses(t *testing.T) {
	sigs, err := SignReplyBatch(testLeaves(5), batchSign)
	if err != nil {
		t.Fatal(err)
	}
	good := sigs[2] // three siblings
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"plain signature": good[:SignatureSize],
		"no count":        good[:SignatureSize+1],
		"count 0":         edit(func(b []byte) []byte { b[SignatureSize+1] = 0; return b }),
		"count 1":         edit(func(b []byte) []byte { b[SignatureSize], b[SignatureSize+1] = 0, 1; return b[:SignatureSize+2] }),
		"count 17":        edit(func(b []byte) []byte { b[SignatureSize+1] = 17; return b }),
		"index = count":   edit(func(b []byte) []byte { b[SignatureSize] = 5; return b }),
		"missing sibling": good[:len(good)-32],
		"extra sibling":   append(append([]byte(nil), good...), good[len(good)-32:]...),
		"truncated path":  good[:len(good)-1],
		"wrong shape":     edit(func(b []byte) []byte { b[SignatureSize] = 4; return b }), // leaf 4 of 5 has one sibling
	}
	for name, sig := range cases {
		if _, err := ParseBatchedSig(sig); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

// TestPayloadDecodersRefuseTrailingOctets: each signed copy and each digest
// payload has exactly one encoding; one octet more is refused, and so is a
// signed payload's nonzero padding.
func TestPayloadDecodersRefuseTrailingOctets(t *testing.T) {
	conn := wireConn(t)
	frames, err := sealSigned(conn, 1, true, []byte("giop"), testSign, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrames(frames)
	env, err := DecodeEnvelope(frames[0].B)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewConnection(11, PeerInfo{Name: "client", N: 1}, 0, PeerInfo{Name: "bank", N: 4, F: 1}, testKey(3))
	if err != nil {
		t.Fatal(err)
	}
	signed, err := peer.OpenData(env)
	if err != nil {
		t.Fatal(err)
	}
	digest := (&DigestPayload{Digest: make([]byte, DigestSize), Sig: []byte("sig")}).Encode()
	for _, tc := range []struct {
		name   string
		buf    []byte
		decode func([]byte) error
	}{
		{"signed payload", signed, func(b []byte) error { _, err := DecodeSignedPayload(b); return err }},
		{"digest payload", digest, func(b []byte) error { _, err := DecodeDigestPayload(b); return err }},
	} {
		if err := tc.decode(tc.buf); err != nil {
			t.Fatalf("%s: exact encoding refused: %v", tc.name, err)
		}
		if err := tc.decode(append(append([]byte(nil), tc.buf...), 0)); err == nil {
			t.Errorf("%s: one trailing octet accepted", tc.name)
		}
	}
	padded := signedPayloadBytes([]byte("giop!"), []byte("sig")) // three octets of padding
	padded[4+5] = 1
	if _, err := DecodeSignedPayload(padded); err == nil {
		t.Error("signed payload: nonzero padding accepted")
	}
}
