package tcp

import (
	"bytes"
	"testing"

	"itdos/internal/pool"
	"itdos/internal/transport"
)

// FuzzTCPFrameDecode drives the length-prefix frame decoder with arbitrary
// bodies. Frame bodies come straight off a socket a Byzantine peer
// controls, so the decoder must never panic, and anything it accepts must
// survive an encode → decode round trip byte-for-byte.
//
// Every body is staged in a pooled arena buffer with release-time
// poisoning on, mirroring a zero-copy receive path. The decoded payload
// aliases the body by contract, so the round-trip comparison snapshots it
// before release; the re-encoded frame must be a fresh copy — poisoning
// the input buffer must not alter it. Run under -race.
func FuzzTCPFrameDecode(f *testing.F) {
	seed, _ := AppendFrame(nil, "calc/r0", "alice/inbox", []byte("payload"))
	f.Add(seed[frameHeaderLen:])
	f.Add([]byte{0})
	f.Add([]byte{2, 'a'})
	pool.SetPoison(true)
	f.Cleanup(func() { pool.SetPoison(false) })
	f.Fuzz(func(t *testing.T, data []byte) {
		pb := pool.Get(len(data))
		pb.B = append(pb.B, data...)

		from, to, payload, err := DecodeFrame(pb.B)
		if !bytes.Equal(pb.B, data) {
			t.Fatal("DecodeFrame wrote its input, which the payload aliases")
		}
		if err != nil {
			pb.Release()
			return
		}
		if len(from) > 255 || len(to) > 255 {
			t.Fatalf("decoded identity longer than the u8 length prefix allows: %d/%d",
				len(from), len(to))
		}
		if len(from)+len(to)+len(payload)+2 != len(pb.B) {
			t.Fatalf("decoded fields cover %d bytes of a %d-byte body",
				len(from)+len(to)+len(payload)+2, len(pb.B))
		}
		reencoded, err := AppendFrame(nil, from, to, payload)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		// Snapshot the decode, then poison the pooled input: the re-encoded
		// frame must not alias the arena, so it must still decode
		// identically afterwards.
		wantFrom, wantTo := from, to
		wantPayload := append([]byte(nil), payload...)
		pb.Release()

		body := reencoded[frameHeaderLen:]
		from2, to2, payload2, err := DecodeFrame(body)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if from2 != wantFrom || to2 != wantTo || !bytes.Equal(payload2, wantPayload) {
			t.Fatalf("round trip changed frame after poisoning input: (%q,%q,%q) != (%q,%q,%q)",
				from2, to2, payload2, wantFrom, wantTo, wantPayload)
		}
		_ = transport.NodeID(from2)
	})
}
