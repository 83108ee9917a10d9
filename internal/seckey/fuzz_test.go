package seckey

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func fuzzChannelKey() Key {
	var k Key
	for i := range k {
		k[i] = byte(i)
	}
	return k
}

// openBothWays opens sealed on two fresh channels, with Open (a copying
// open) and in place (OpenTo over a copy of sealed's ciphertext span), and
// fails unless both give the same answer.
func openBothWays(t *testing.T, key Key, sealed []byte) ([]byte, error) {
	t.Helper()
	copied, errCopy := NewChannel(key, "fuzz").Open(sealed)
	frame := bytes.Clone(sealed)
	var inPlace []byte
	errInPlace := errors.New("too short to open in place")
	if len(frame) >= SealHeadLen {
		inPlace, errInPlace = NewChannel(key, "fuzz").OpenTo(frame[SealHeadLen:], frame, nil)
	}
	if (errCopy == nil) != (errInPlace == nil) || !bytes.Equal(copied, inPlace) {
		t.Fatalf("copying open gave %q, %v; in-place open %q, %v", copied, errCopy, inPlace, errInPlace)
	}
	return copied, errCopy
}

// FuzzSealedOpen exercises the authenticated-encryption boundary three ways:
// Open on raw attacker bytes must fail cleanly (no panic, no allocation from
// unvalidated lengths); Open(Seal(p)) must return p; and flipping any single
// byte of a sealed message must be rejected. A copying open and an in-place
// open must agree on every input. Fresh channels per attempt keep the replay
// window out of the way except where tested explicitly.
func FuzzSealedOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("attack at dawn"))
	key := fuzzChannelKey()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw bytes as a sealed message: anything accepted must at least be
		// self-consistent with its own length header.
		if pt, err := openBothWays(t, key, data); err == nil {
			if len(pt) != int(binary.BigEndian.Uint32(data[8:12])) {
				t.Fatalf("accepted message: plaintext %d bytes, header says %d",
					len(pt), binary.BigEndian.Uint32(data[8:12]))
			}
		}

		// Round trip: data as plaintext.
		sealed, err := NewChannel(key, "fuzz").Seal(data)
		if err != nil {
			t.Fatalf("seal: %v", err)
		}
		if _, err := openBothWays(t, key, sealed); err != nil {
			t.Fatalf("open of genuine sealed message: %v", err)
		}
		recv := NewChannel(key, "fuzz")
		pt, err := recv.Open(sealed)
		if err != nil {
			t.Fatalf("open of genuine sealed message: %v", err)
		}
		if !bytes.Equal(pt, data) {
			t.Fatalf("round trip changed plaintext: %q != %q", pt, data)
		}

		// Replay of the same sealed bytes on the same channel must fail.
		if _, err := recv.Open(sealed); err == nil {
			t.Fatal("replayed sealed message accepted")
		}

		// Any single-byte tamper must be rejected. The flip position is
		// derived from the input so the fuzzer explores header, ciphertext
		// and tag corruption.
		pos := len(data) % len(sealed)
		tampered := append([]byte(nil), sealed...)
		tampered[pos] ^= 0x41
		if _, err := openBothWays(t, key, tampered); err == nil {
			t.Fatalf("tampered byte %d accepted", pos)
		}
	})
}
