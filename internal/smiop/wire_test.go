package smiop

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"itdos/internal/pool"
	"itdos/internal/seckey"
)

// wireConn is the sender every golden vector was sealed on, and the one
// the seal-chain benchmarks run on: fixed identity and key, so with
// sequence-number nonces and testSign the frames repeat byte for byte.
func wireConn(t testing.TB) *Connection {
	t.Helper()
	conn, err := NewConnection(11, PeerInfo{Name: "bank", N: 4, F: 1}, 2,
		PeerInfo{Name: "client", N: 1, F: 0}, testKey(3))
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// testSign's signature is the digest it is handed: the SHA-256 of the
// signing context, as a real signature's Ed25519 input is.
func testSign(digest []byte) []byte { return digest }

// testVerify accepts exactly testSign's signatures.
func testVerify(_ string, _ uint32, digest, sig []byte) bool {
	return bytes.Equal(sig, testSign(digest))
}

// sealSigned seals already-encoded GIOP bytes through SealGIOPWire, signed
// by sign over their data context's digest.
func sealSigned(c *Connection, requestID uint64, reply bool, giopBytes []byte,
	sign func([]byte) []byte, fragSize int) ([]*pool.Buffer, error) {

	return c.SealGIOPWire(requestID, reply, func(dst []byte) []byte { return append(dst, giopBytes...) },
		sign, fragSize)
}

const wireGoldenPath = "testdata/wire_golden.json"

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/wire_golden.json with the frames the wire path seals now")

// goldenFrame is one sealed frame as the golden file keeps it.
type goldenFrame struct {
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

// wireGoldenCase is one message shape TestWireGolden seals.
type wireGoldenCase struct {
	name     string
	size     int
	fragSize int
	sign     func([]byte) []byte // nil: SealGIOPWire neither hashes nor signs
	request  bool                // sealed as a request; the others are replies
}

// sig is the case's signature over digest d.
func (tc wireGoldenCase) sig(d [32]byte) []byte {
	if tc.sign == nil {
		return nil
	}
	return tc.sign(d[:])
}

// wireGoldenCases are TestWireGolden's shapes, and FuzzSignedPayloadDecode's
// seeds. small-batched signs its reply as leaf 0 of a batch of three;
// ordered-unsigned is a singleton caller's ordered request.
var wireGoldenCases = []wireGoldenCase{
	{"small-unsigned", 100, 0, func([]byte) []byte { return nil }, false}, // an empty signature field
	{"small-signed", 100, 0, testSign, false},
	{"exact-boundary", 16<<10 - 200, 16 << 10, testSign, false},
	{"fragmented", 70 << 10, 16 << 10, testSign, false},
	{"default-fragmented", 70 << 10, DefaultFragmentSize, testSign, false},
	{"tiny-frags", 4 << 10, 512, testSign, false},
	{"small-batched", 100, 0, func(leaf []byte) []byte {
		sigs, err := SignReplyBatch([][32]byte{[32]byte(leaf),
			sha256.Sum256([]byte("golden filler 1")), sha256.Sum256([]byte("golden filler 2"))}, batchSign)
		if err != nil {
			panic(err)
		}
		return sigs[0]
	}, false},
	{"ordered-unsigned", 100, 0, nil, true},
}

// TestWireGolden pins the wire format: SealSignedDataWire, handed a
// signature made beforehand over the message's digest, and SealGIOPWire,
// which hashes and signs itself, must each produce, byte for byte, the
// frames recorded in testdata/wire_golden.json — case name → request ids
// 1–3 → frames — for unfragmented and fragmented messages, signed and
// unsigned. The vectors were generated at 4aeb63d from the copying chain
// the wire path replaced (SignedPayload.Encode, one seal per fragment,
// Envelope.Encode), which is what makes them an independent witness;
// small-batched, the Merkle-batched reply form, was added later, and the
// tags moved when the envelope header became the seal's associated data;
// ordered-unsigned, sealed with a nil signer, was added after that. Each
// case names the fragment size it seals at: exact-boundary and fragmented
// keep the 16 KiB of their vectors, and default-fragmented, added when
// DefaultFragmentSize became the ordering layer's bound, cuts at that.
// Regenerate with -update-wire-golden only for a deliberate format change.
func TestWireGolden(t *testing.T) {
	cases := wireGoldenCases
	golden := make(map[string][][]goldenFrame)
	if !*updateWireGolden {
		raw, err := os.ReadFile(wireGoldenPath)
		if err != nil {
			t.Fatalf("no committed vectors (run with -update-wire-golden): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, whole := wireConn(t), wireConn(t)
			giopBytes := bytes.Repeat([]byte{0x5A}, tc.size)
			var got [][]goldenFrame
			for reqID := uint64(1); reqID <= 3; reqID++ { // several seals: the sequence number is in the nonce
				reply := !tc.request
				d := DataSigningDigest(conn.ID, reqID, conn.Local.Name, uint32(conn.LocalMember), reply, giopBytes)
				frames, err := conn.SealSignedDataWire(reqID, reply, giopBytes, tc.sig(d), tc.fragSize)
				if err != nil {
					t.Fatal(err)
				}
				again, err := sealSigned(whole, reqID, reply, giopBytes, tc.sign, tc.fragSize)
				if err != nil {
					t.Fatal(err)
				}
				if len(again) != len(frames) {
					t.Fatalf("request %d: %d frames, SealGIOPWire %d", reqID, len(frames), len(again))
				}
				sealed := make([]goldenFrame, len(frames))
				for i, f := range frames {
					if !bytes.Equal(f.B, again[i].B) {
						t.Fatalf("request %d frame %d: SealGIOPWire differs from SealSignedDataWire", reqID, i)
					}
					sum := sha256.Sum256(f.B)
					sealed[i] = goldenFrame{len(f.B), hex.EncodeToString(sum[:])}
				}
				ReleaseFrames(frames)
				ReleaseFrames(again)
				got = append(got, sealed)
			}
			if *updateWireGolden {
				golden[tc.name] = got
			} else if !reflect.DeepEqual(got, golden[tc.name]) {
				t.Fatalf("wire frames differ from the committed vectors:\n got %v\nwant %v", got, golden[tc.name])
			}
		})
	}
	if *updateWireGolden {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
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
	giopBytes := bytes.Repeat([]byte{0xC3}, 5*DefaultFragmentSize/2)
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
		if whole, _, err = r.add(env, pt, false); err != nil {
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
	signing := sha256.Sum256(DataSigningBytes(21, 9, "bank", 1, true, giopBytes))
	if !bytes.Equal(sp.Sig, testSign(signing[:])) {
		t.Fatal("signature does not verify against the digest of the canonical signing bytes")
	}
}

// TestDataSigningBytesLayout pins the signing context itself: the bytes a
// data signature covers the digest of are what a third party (the Group
// Manager, handed a change_request's proof) rebuilds from cleartext, so the
// layout is part of the protocol.
func TestDataSigningBytesLayout(t *testing.T) {
	giopBytes := []byte("giop-ish")
	want, err := hex.DecodeString(
		"0000000b" + "736d696f702d6461746100" + "00" + // "smiop-data", pad to 8
			"0000000000000007" + "0000000000000008" + // connection, request id
			"00000004" + "646f6d00" + // "dom"
			"00000003" + "00" + "000000" + // member, reply=false, pad to 4
			"00000008" + "67696f702d697368") // the GIOP bytes
	if err != nil {
		t.Fatal(err)
	}
	if got := DataSigningBytes(7, 8, "dom", 3, false, giopBytes); !bytes.Equal(got, want) {
		t.Fatalf("DataSigningBytes layout changed:\n%x\n%x", got, want)
	}
}

// TestWireSealedLenBudget: each frame fits its initial pooled class when
// the fragment size is at default — no mid-encode buffer growth, which
// would cost an extra allocation per frame on the hot path.
func TestWireSealedLenBudget(t *testing.T) {
	sender := wireConn(t)
	giopBytes := bytes.Repeat([]byte{1}, 4<<10)
	frames, err := sealSigned(sender, 1, false, giopBytes, testSign, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrames(frames)
	for i, f := range frames {
		if len(f.B) > cap(f.B) {
			t.Fatalf("frame %d overflowed", i)
		}
		want := headSlack(sender.Local.Name) + seckey.SealedLen(len(f.B))
		_ = want // sizing hint only; the real assertion is alloc counts in the benchmarks
	}
}

// TestSealReturnsEveryPoolBuffer checks the seal chain's pool ownership end
// to end: after the single-frame, fragmented and too-many-fragments paths,
// with every frame handed to a TCP transport that writes it to a socket and
// releases it, every pool.Get has its Put. The pool counters are
// process-wide, so this test must not run in parallel.
func TestSealReturnsEveryPoolBuffer(t *testing.T) {
	conn := wireConn(t)
	tr := sinkTransport(t)
	before := pool.ReadStats()
	for i, c := range []struct {
		size, fragSize int
		ok             bool
	}{
		{64, 0, true},                        // one frame
		{3000, 1024, true},                   // fragmented
		{(maxFragments + 2) * 16, 16, false}, // refused
	} {
		frames, err := sealSigned(conn, uint64(i+1), true, make([]byte, c.size), testSign, c.fragSize)
		if (err == nil) != c.ok {
			t.Fatalf("size %d: err = %v, want ok=%v", c.size, err, c.ok)
		}
		sendFrames(tr, frames)
	}
	if pool.ReadStats().Gets == before.Gets {
		t.Fatal("the seal chain took nothing from the pool")
	}
	awaitPuts(t, before)
}
