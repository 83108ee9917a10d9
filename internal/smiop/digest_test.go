package smiop

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"testing/quick"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/seckey"
)

func TestDigestPayloadRoundTrip(t *testing.T) {
	p := &DigestPayload{Digest: bytes.Repeat([]byte{0xAB}, DigestSize), Sig: []byte("sig-bytes")}
	got, err := DecodeDigestPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Digest, p.Digest) || !bytes.Equal(got.Sig, p.Sig) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestDigestPayloadRejectsMalformed(t *testing.T) {
	good := (&DigestPayload{Digest: make([]byte, DigestSize), Sig: []byte("s")}).Encode()
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    good[:len(good)-3],
		"short digest": (&DigestPayload{Digest: make([]byte, DigestSize-1)}).Encode(),
		"long digest":  (&DigestPayload{Digest: make([]byte, DigestSize+1)}).Encode(),
	}
	for name, buf := range cases {
		if _, err := DecodeDigestPayload(buf); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}
	prop := func(b []byte) bool {
		_, _ = DecodeDigestPayload(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalReplyDigestCrossOrder(t *testing.T) {
	// The digest is over the canonical re-marshalling, so replicas that
	// natively encode in different byte orders agree on it.
	tc := cdr.StructOf("res", cdr.Member{Name: "sum", Type: cdr.Double})
	val := []cdr.Value{41.5}
	var digests [][]byte
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		wire, err := cdr.Marshal(tc, val, order)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := cdr.Unmarshal(tc, wire, order)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := CanonicalReplyDigest("IDL:Calc:1.0", "add", giop.StatusNoException, "", tc, decoded)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, dg)
	}
	if !bytes.Equal(digests[0], digests[1]) {
		t.Fatalf("digest differs across native byte orders:\n%x\n%x", digests[0], digests[1])
	}
	if len(digests[0]) != DigestSize {
		t.Fatalf("digest is %d bytes, want %d", len(digests[0]), DigestSize)
	}
}

func TestCanonicalReplyDigestBindsIdentity(t *testing.T) {
	// A digest for one (iface, op, status, exception, value) must not stand
	// in for any other.
	tc := cdr.StructOf("res", cdr.Member{Name: "sum", Type: cdr.Double})
	base := func() ([]byte, error) {
		return CanonicalReplyDigest("IDL:Calc:1.0", "add", giop.StatusNoException, "", tc, []cdr.Value{1.0})
	}
	ref, err := base()
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func() ([]byte, error){
		"iface": func() ([]byte, error) {
			return CanonicalReplyDigest("IDL:Other:1.0", "add", giop.StatusNoException, "", tc, []cdr.Value{1.0})
		},
		"op": func() ([]byte, error) {
			return CanonicalReplyDigest("IDL:Calc:1.0", "sub", giop.StatusNoException, "", tc, []cdr.Value{1.0})
		},
		"status": func() ([]byte, error) {
			return CanonicalReplyDigest("IDL:Calc:1.0", "add", giop.StatusUserException, "", tc, []cdr.Value{1.0})
		},
		"exception": func() ([]byte, error) {
			return CanonicalReplyDigest("IDL:Calc:1.0", "add", giop.StatusNoException, "IDL:Overdrawn:1.0", tc, []cdr.Value{1.0})
		},
		"value": func() ([]byte, error) {
			return CanonicalReplyDigest("IDL:Calc:1.0", "add", giop.StatusNoException, "", tc, []cdr.Value{2.0})
		},
	}
	for name, fn := range variants {
		dg, err := fn()
		if err != nil {
			t.Fatalf("%s variant: %v", name, err)
		}
		if bytes.Equal(dg, ref) {
			t.Errorf("digest did not bind %s", name)
		}
	}
	// Determinism: same inputs, same digest.
	again, _ := base()
	if !bytes.Equal(again, ref) {
		t.Error("digest not deterministic")
	}
}

// DigestSigningBytes is the digest signing context written out from its
// definition: the byte string whose SHA-256 DigestSigningDigest streams.
func DigestSigningBytes(connID, requestID uint64, srcDomain string, srcMember uint32,
	digest []byte) []byte {

	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("smiop-digest")
	e.WriteULongLong(connID)
	e.WriteULongLong(requestID)
	e.WriteString(srcDomain)
	e.WriteULong(srcMember)
	e.WriteOctets(digest)
	return e.Bytes()
}

// TestDigestEnvelopeOneWriter: SealSignedDigest writes, in one pass, the
// very bytes Envelope.Encode builds around a Channel.SealTo seal of the same
// signed digest payload with the envelope's header as associated data, over
// several seals (the sequence number is in the nonce).
func TestDigestEnvelopeOneWriter(t *testing.T) {
	_, server := connPair(t)
	_, ref := connPair(t)
	digest := bytes.Repeat([]byte{0x5C}, DigestSize)
	for reqID := uint64(1); reqID <= 3; reqID++ {
		frame := server.SealSignedDigest(reqID, digest, testSign)
		d := DigestSigningDigest(ref.ID, reqID, "bank", 2, digest)
		plaintext := (&DigestPayload{Digest: digest, Sig: testSign(d[:])}).Encode()
		env := &Envelope{Kind: KindDigest, ConnID: ref.ID, SrcDomain: "bank", SrcMember: 2,
			RequestID: reqID, Reply: true, Payload: make([]byte, seckey.SealedLen(len(plaintext)))}
		head := cdr.NewEncoder(cdr.BigEndian)
		env.writeHeader(head)
		ref.send.SealTo(env.Payload, 0, plaintext, head.Bytes())
		if want := env.Encode(); !bytes.Equal(frame.B, want) {
			t.Fatalf("request %d: one-pass digest envelope differs from SealTo + Encode:\n%x\n%x",
				reqID, frame.B, want)
		}
		frame.Release()
	}
}

func TestSealSignedDigestRoundTrip(t *testing.T) {
	client, server := connPair(t)
	digest := bytes.Repeat([]byte{0x5C}, DigestSize)
	frame := server.SealSignedDigest(3, digest, func(d []byte) []byte {
		return append([]byte("signed:"), d[:4]...)
	})
	env, err := DecodeEnvelope(bytes.Clone(frame.B))
	frame.Release()
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != KindDigest || !env.Reply || env.RequestID != 3 {
		t.Fatalf("digest envelope header: %+v", env)
	}
	if bytes.Contains(env.Payload, digest) {
		t.Fatal("digest payload not encrypted")
	}
	pt, err := client.OpenData(env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeDigestPayload(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Digest, digest) {
		t.Fatalf("digest = %x, want %x", p.Digest, digest)
	}
	// The signature covers the transport context the receiver reconstructs.
	signing := sha256.Sum256(DigestSigningBytes(server.ID, 3, "bank", 2, digest))
	want := append([]byte("signed:"), signing[:4]...)
	if !bytes.Equal(p.Sig, want) {
		t.Fatalf("sig = %x, want %x", p.Sig, want)
	}
}

func TestDigestSigningBytesBindContext(t *testing.T) {
	dg := make([]byte, DigestSize)
	ref := DigestSigningBytes(7, 3, "bank", 2, dg)
	for name, got := range map[string][]byte{
		"conn":   DigestSigningBytes(8, 3, "bank", 2, dg),
		"req":    DigestSigningBytes(7, 4, "bank", 2, dg),
		"domain": DigestSigningBytes(7, 3, "corp", 2, dg),
		"member": DigestSigningBytes(7, 3, "bank", 1, dg),
	} {
		if bytes.Equal(got, ref) {
			t.Errorf("signing bytes did not bind %s", name)
		}
	}
}

func TestDesignatedResponder(t *testing.T) {
	if got := DesignatedResponder(6, 4, nil); got != 2 {
		t.Fatalf("responder(6, 4) = %d, want 2", got)
	}
	// Expelled members are skipped, wrapping around the ring.
	expelled := func(m int) bool { return m == 3 || m == 0 }
	if got := DesignatedResponder(3, 4, expelled); got != 1 {
		t.Fatalf("responder skipping {3,0} from 3 = %d, want 1", got)
	}
	// Degenerate inputs never panic or go out of range.
	if got := DesignatedResponder(5, 0, nil); got != 0 {
		t.Fatalf("responder with n=0 = %d", got)
	}
	all := func(int) bool { return true }
	if got := DesignatedResponder(5, 4, all); got != 1 {
		t.Fatalf("responder with all expelled = %d, want start index 1", got)
	}
	// Deterministic across callers — both endpoints agree.
	for id := uint64(0); id < 20; id++ {
		a := DesignatedResponder(id, 4, expelled)
		b := DesignatedResponder(id, 4, expelled)
		if a != b || expelled(a) {
			t.Fatalf("responder(%d) = %d/%d, expelled=%v", id, a, b, expelled(a))
		}
	}
}
