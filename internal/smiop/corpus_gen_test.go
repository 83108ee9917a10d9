//go:build corpusgen

package smiop

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
)

// TestGenDigestCorpus writes the committed seed corpus for
// FuzzReplyDigestDecode: well-formed payloads (with and without a
// signature), both digest-length violations, and a truncation. Regenerate
// with:
//
//	go test -tags corpusgen -run TestGenDigestCorpus ./internal/smiop
func TestGenDigestCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReplyDigestDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	digest := make([]byte, DigestSize)
	for i := range digest {
		digest[i] = byte(i)
	}
	signed := (&DigestPayload{Digest: digest, Sig: []byte("itdos-signature-bytes")}).Encode()
	// Oversize length fields (the payload is big-endian CDR: ULong length +
	// octets, twice): a digest length claiming 4 GiB from an 8-byte buffer,
	// and a well-formed digest followed by a signature length claiming 2 GiB.
	oversizeDigestLen := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}
	unsigned := (&DigestPayload{Digest: digest}).Encode()
	oversizeSigLen := append(unsigned[:len(unsigned)-4], 0x7F, 0xFF, 0xFF, 0xFF)
	seeds := [][]byte{
		signed,
		(&DigestPayload{Digest: digest}).Encode(),
		(&DigestPayload{Digest: digest[:DigestSize-1]}).Encode(),
		(&DigestPayload{Digest: append(digest, 0xFF)}).Encode(),
		signed[:len(signed)-5],
		oversizeDigestLen,
		oversizeSigLen,
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// chunk renders one fragment record in FuzzSMIOPReassemble's input format:
// member(1) | fragIndex(1) | fragCount(1) | flags(1) | len(1) | payload.
func chunk(member, idx, count, flags byte, payload []byte) []byte {
	out := []byte{member, idx, count, flags, byte(len(payload))}
	return append(out, payload...)
}

// TestGenSMIOPCorpus writes the committed seed corpus for
// FuzzSMIOPReassemble: complete in-order and out-of-order reassemblies,
// interleaved senders, a context switch that replaces a half-full buffer,
// and fragment coordinates a Byzantine sender would forge. Regenerate with:
//
//	go test -tags corpusgen -run TestGenSMIOPCorpus ./internal/smiop
func TestGenSMIOPCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSMIOPReassemble")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var inOrder []byte
	for i, part := range [][]byte{[]byte("frag-one|"), []byte("frag-two|"), []byte("frag-three")} {
		inOrder = append(inOrder, chunk(0, byte(i), 3, 2, part)...)
	}
	outOfOrder := append(chunk(1, 1, 2, 4, []byte("tail")), chunk(1, 0, 2, 4, []byte("head"))...)
	interleaved := append(chunk(0, 0, 2, 0, []byte("a0")),
		append(chunk(1, 0, 2, 0, []byte("b0")),
			append(chunk(0, 1, 2, 0, []byte("a1")),
				chunk(1, 1, 2, 0, []byte("b1"))...)...)...)
	// Half a message, then the same member switches request context.
	replaced := append(chunk(2, 0, 3, 0, []byte("old")), chunk(2, 0, 2, 6, []byte("new"))...)
	// Pooled-aliasing seeds: the fuzz harness stages every fragment in a
	// pooled arena buffer and poisons it once a message completes, so
	// these shapes prove reassembly copies out of pooled backing arrays.
	// Back-to-back completions from one member recycle that member's
	// arena class while the second message is in flight; a completion
	// racing another member's half-done message poisons fragments the
	// reassembler still holds for the slower sender.
	var backToBack []byte
	for _, msg := range [][]byte{[]byte("first|msg"), []byte("second|msg")} {
		backToBack = append(backToBack, chunk(0, 0, 2, 8, msg[:5])...)
		backToBack = append(backToBack, chunk(0, 1, 2, 8, msg[5:])...)
	}
	completeOverHalfDone := append(chunk(2, 0, 3, 0, []byte("slow-head")),
		append(chunk(3, 0, 2, 0, []byte("fast-head")),
			append(chunk(3, 1, 2, 0, []byte("fast-tail")),
				append(chunk(2, 1, 3, 0, []byte("slow-mid")),
					chunk(2, 2, 3, 0, []byte("slow-tail"))...)...)...)...)
	duplicated := append(chunk(1, 0, 2, 10, []byte("dup")),
		append(chunk(1, 0, 2, 10, []byte("dup")),
			chunk(1, 1, 2, 10, []byte("end"))...)...)
	seeds := [][]byte{
		chunk(0, 0, 0, 0, []byte("unfragmented giop payload")),
		inOrder,
		outOfOrder,
		interleaved,
		replaced,
		chunk(3, 9, 4, 0, []byte("index past count")),
		chunk(3, 1, 2, 0, nil), // empty fragment payload
		backToBack,
		completeOverHalfDone,
		duplicated,
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenSignedPayloadCorpus writes the committed seed corpus for
// FuzzSignedPayloadDecode beside its in-code seeds: a singleton caller's
// ordered request as it is staged, a GIOP request and an empty signature.
// Regenerate with:
//
//	go test -tags corpusgen -run TestGenSignedPayloadCorpus ./internal/smiop
func TestGenSignedPayloadCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSignedPayloadDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	req := giop.AppendRequest(nil, cdr.BigEndian, &giop.Request{RequestID: 7, ObjectKey: "calc",
		Interface: "IDL:itdos/Calc:1.0", Operation: "add", ResponseExpected: true,
		Body: []byte{0, 0, 0, 2, 0, 0, 0, 3}})
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", signedPayloadBytes(req, nil))
	if err := os.WriteFile(filepath.Join(dir, "ordered-unsigned"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
