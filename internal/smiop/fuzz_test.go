package smiop

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/pool"
)

// signedPayloadBytes stages a signed payload as SealGIOPWire does:
// octets(GIOP) then octets(Sig).
func signedPayloadBytes(giopBytes, sig []byte) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctets(giopBytes)
	e.WriteOctets(sig)
	return e.Bytes()
}

// FuzzSignedPayloadDecode drives the signed-payload decoder, the batched
// signature parser and the root recomputation with arbitrary bytes: an
// element's payload is Byzantine-controlled once opened. None may panic; a
// payload decodes only from its one encoding; a batched signature parses
// only with 2..MaxReplyLeaves leaves, an index inside the tree and exactly
// the siblings its shape needs, and a truncated path never parses. Seeds are
// the payloads of the wire golden cases, the batched one included.
func FuzzSignedPayloadDecode(f *testing.F) {
	for _, tc := range wireGoldenCases {
		giopBytes := bytes.Repeat([]byte{0x5A}, min(tc.size, 1<<10))
		d := DataSigningDigest(11, 1, "bank", 2, !tc.request, giopBytes)
		f.Add(signedPayloadBytes(giopBytes, tc.sig(d)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		p, err := DecodeSignedPayload(data)
		if !bytes.Equal(data, in) {
			t.Fatal("DecodeSignedPayload wrote its input, which GIOP and Sig alias")
		}
		if err != nil {
			return
		}
		if !bytes.Equal(signedPayloadBytes(p.GIOP, p.Sig), data) {
			t.Fatal("payload decoded from other than its one encoding")
		}
		b, err := ParseBatchedSig(p.Sig)
		if err != nil {
			return
		}
		if b.Count < 2 || b.Count > MaxReplyLeaves || b.Index >= b.Count {
			t.Fatalf("parsed leaf %d of %d", b.Index, b.Count)
		}
		if len(b.Siblings) != pathLen(b.Index, b.Count) || len(p.Sig) != SignatureSize+2+32*len(b.Siblings) {
			t.Fatalf("leaf %d of %d parsed with %d siblings from %d octets", b.Index, b.Count, len(b.Siblings), len(p.Sig))
		}
		if _, err := ParseBatchedSig(p.Sig[:len(p.Sig)-1]); err == nil {
			t.Fatal("truncated path parsed")
		}
		if leaf := sha256.Sum256(p.GIOP); b.Root(leaf) != b.Root(leaf) {
			t.Fatal("root recomputation is not a function of its input")
		}
	})
}

// FuzzEnvelopeDecode drives the envelope decoder, the first parser every
// SMIOP byte meets, with arbitrary bytes. It must never panic and never
// write its input, which a decoded Payload aliases, and an envelope it
// accepts must survive an encode → decode round trip. Seeds are one
// envelope of every kind and the sealed frames of a fragmented message.
func FuzzEnvelopeDecode(f *testing.F) {
	for k := KindData; k <= KindRekeyRequest; k++ {
		f.Add((&Envelope{Kind: k, ConnID: 9, SrcDomain: "bank", SrcMember: 2,
			RequestID: 41, Reply: true, Payload: []byte("payload")}).Encode())
	}
	frames, err := sealSigned(wireConn(f), 1, true, bytes.Repeat([]byte{0x5A}, 3000), testSign, 1024)
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range frames {
		f.Add(bytes.Clone(fr.B))
	}
	ReleaseFrames(frames)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		env, err := DecodeEnvelope(data)
		if !bytes.Equal(data, in) {
			t.Fatal("DecodeEnvelope wrote its input, which Payload aliases")
		}
		if err != nil {
			return
		}
		back, err := DecodeEnvelope(env.Encode())
		if err != nil || !reflect.DeepEqual(back, env) {
			t.Fatalf("accepted envelope does not round-trip (%v): %+v vs %+v", err, back, env)
		}
	})
}

// FuzzReplyDigestDecode drives the digest-payload parser with arbitrary
// bytes. Digest payloads arrive inside sealed envelopes but their contents
// are Byzantine-controlled plaintext after opening, so the parser must
// never panic, must only accept digests of exactly DigestSize bytes, and
// anything it accepts must survive an encode → decode round trip.
func FuzzReplyDigestDecode(f *testing.F) {
	f.Add((&DigestPayload{Digest: make([]byte, DigestSize), Sig: []byte("sig")}).Encode())
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		p, err := DecodeDigestPayload(data)
		if !bytes.Equal(data, in) {
			t.Fatal("DecodeDigestPayload wrote its input, which Digest and Sig alias")
		}
		if err != nil {
			return
		}
		if len(p.Digest) != DigestSize {
			t.Fatalf("accepted digest of %d bytes, want %d", len(p.Digest), DigestSize)
		}
		p2, err := DecodeDigestPayload(p.Encode())
		if err != nil {
			t.Fatalf("accepted payload does not round-trip: %v", err)
		}
		if !bytes.Equal(p2.Digest, p.Digest) || !bytes.Equal(p2.Sig, p.Sig) {
			t.Fatalf("round trip changed payload: %+v vs %+v", p2, p)
		}
	})
}

// FuzzSMIOPReassemble drives the fragment reassembler with an arbitrary
// stream of fragments decoded from the fuzz input. Fragment headers come
// from envelope cleartext, so a Byzantine sender controls every field the
// loop below derives; the reassembler must never panic, must reject fragment
// coordinates that lie outside the declared count, and a message it
// completes must be exactly its accepted fragments in index order — every
// one but the last of one length, and the whole within MaxMessageBytes. A
// plain per-member model of the accepted fragments is the reference. A
// record with a count below 2 is skipped: Stream.Deliver takes such an
// envelope as a whole message.
//
// Every fragment payload is staged in a pooled arena buffer with
// release-time poisoning on and handed over as it stands, as an owned
// delivery's in-place open hands over a slice of its frame, which the
// reassembler then holds. A completed message must be a buffer of its own:
// releasing (and poisoning) every frame its member sent must not alter it,
// while other members' half-done messages keep holding theirs. Run under
// -race; any retained alias shows up as poisoned output here and as a
// read-after-recycle race there.
//
// Input format, repeated until exhausted:
//
//	member(1) | fragIndex(1) | fragCount(1) | flags(1) | len(1) | payload
func FuzzSMIOPReassemble(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 1, 'a', 0, 1, 2, 0, 1, 'b'})
	f.Add([]byte{1, 5, 3, 0, 0})
	f.Add([]byte{0, 2, 3, 0, 1, 'c', 0, 0, 3, 0, 2, 'a', 'a', 0, 1, 3, 0, 2, 'b', 'b'})
	pool.SetPoison(true)
	f.Cleanup(func() { pool.SetPoison(false) })
	type model struct {
		requestID uint64
		reply     bool
		count     uint32
		parts     map[uint32][]byte
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newReassembler()
		want := map[uint32]*model{}
		frames := map[uint32][]*pool.Buffer{} // per member: frames the reassembler may hold
		release := func(member uint32) {
			for _, pb := range frames[member] {
				pb.Release()
			}
			delete(frames, member)
		}
		defer func() {
			for member := range frames {
				release(member)
			}
		}()
		for len(data) >= 5 {
			env := &Envelope{
				Kind:      KindData,
				SrcMember: uint32(data[0] & 3),
				FragIndex: uint32(data[1]),
				FragCount: uint32(data[2]),
				Reply:     data[3]&1 == 1,
				RequestID: uint64(data[3] >> 1),
			}
			n := int(data[4])
			data = data[5:]
			if n > len(data) {
				n = len(data)
			}
			pb := pool.Get(n)
			pb.B = append(pb.B, data[:n]...)
			payload := pb.B
			frames[env.SrcMember] = append(frames[env.SrcMember], pb)
			data = data[n:]
			if env.FragCount < 2 {
				continue
			}

			whole, _, err := addFragment(r, env, payload, false)
			if env.FragIndex >= env.FragCount {
				if err == nil {
					t.Fatalf("accepted fragment %d/%d", env.FragIndex, env.FragCount)
				}
				continue
			}
			if err != nil {
				continue
			}
			m := want[env.SrcMember]
			if m == nil || m.requestID != env.RequestID || m.reply != env.Reply || m.count != env.FragCount {
				m = &model{requestID: env.RequestID, reply: env.Reply, count: env.FragCount,
					parts: map[uint32][]byte{}}
				want[env.SrcMember] = m
			}
			m.parts[env.FragIndex] = bytes.Clone(payload)
			if whole == nil {
				if uint32(len(m.parts)) == m.count {
					t.Fatalf("all %d fragments in and no message", m.count)
				}
				continue
			}
			var expect []byte
			for i := uint32(0); i < m.count; i++ {
				p, ok := m.parts[i]
				if !ok {
					t.Fatalf("message completed without fragment %d/%d", i, m.count)
				}
				if i < m.count-1 && len(p) != len(m.parts[0]) || i == m.count-1 && len(p) > len(m.parts[0]) {
					t.Fatalf("fragment %d/%d of %d bytes accepted beside a first of %d",
						i, m.count, len(p), len(m.parts[0]))
				}
				expect = append(expect, p...)
			}
			if !bytes.Equal(whole, expect) || len(whole) > MaxMessageBytes {
				t.Fatalf("reassembled %q, fragments were %q", whole, expect)
			}
			delete(want, env.SrcMember)
			if r.byMember[env.SrcMember] != nil {
				t.Fatal("completed buffer not released")
			}
			// The reassembled message must not alias its member's frames:
			// poison every one of them and require the bytes to survive
			// unchanged.
			snap := bytes.Clone(whole)
			release(env.SrcMember)
			if !bytes.Equal(whole, snap) {
				t.Fatalf("reassembled message aliases a released frame:\n%q !=\n%q", whole, snap)
			}
		}
		r.reset()
		if len(r.byMember) != 0 {
			t.Fatal("reset left reassembly state behind")
		}
	})
}
