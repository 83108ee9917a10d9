package seckey

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func pair(t *testing.T) (*Channel, *Channel) {
	t.Helper()
	k := testKey(7)
	return NewChannel(k, "conn"), NewChannel(k, "conn")
}

func TestSealOpenRoundTrip(t *testing.T) {
	tx, rx := pair(t)
	for _, msg := range [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAA}, 4096)} {
		sealed, err := tx.Seal(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rx.Open(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip: got %d bytes, want %d", len(got), len(msg))
		}
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	tx, _ := pair(t)
	msg := bytes.Repeat([]byte("secret-content-"), 10)
	sealed, err := tx.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, []byte("secret-content-")) {
		t.Fatal("plaintext visible in sealed message")
	}
}

func TestTamperDetected(t *testing.T) {
	tx, _ := pair(t)
	sealed, err := tx.Seal([]byte("integrity matters"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sealed); i += 7 {
		rx2 := NewChannel(testKey(7), "conn")
		mut := append([]byte{}, sealed...)
		mut[i] ^= 0x01
		if _, err := rx2.Open(mut); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestWrongKeyRejected(t *testing.T) {
	tx := NewChannel(testKey(1), "conn")
	rx := NewChannel(testKey(2), "conn")
	sealed, _ := tx.Seal([]byte("x"))
	if _, err := rx.Open(sealed); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("wrong key: err = %v", err)
	}
}

func TestWrongContextRejected(t *testing.T) {
	tx := NewChannel(testKey(1), "connA")
	rx := NewChannel(testKey(1), "connB")
	sealed, _ := tx.Seal([]byte("x"))
	if _, err := rx.Open(sealed); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("cross-context message accepted: %v", err)
	}
}

func TestReplayRejected(t *testing.T) {
	tx, rx := pair(t)
	sealed, _ := tx.Seal([]byte("once"))
	if _, err := rx.Open(sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(sealed); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay accepted: %v", err)
	}
}

func TestOutOfOrderWithinWindowAccepted(t *testing.T) {
	tx, rx := pair(t)
	var sealed [][]byte
	for i := 0; i < 5; i++ {
		s, _ := tx.Seal([]byte{byte(i)})
		sealed = append(sealed, s)
	}
	for _, i := range []int{4, 1, 3, 0, 2} {
		if _, err := rx.Open(sealed[i]); err != nil {
			t.Fatalf("out-of-order message %d rejected: %v", i, err)
		}
	}
	// Every one of them is now a replay.
	for i := range sealed {
		if _, err := rx.Open(sealed[i]); !errors.Is(err, ErrReplay) {
			t.Fatalf("replay %d accepted", i)
		}
	}
}

func TestStaleBeyondWindowRejected(t *testing.T) {
	tx, rx := pair(t)
	old, _ := tx.Seal([]byte("old"))
	var last []byte
	for i := 0; i < 70; i++ {
		last, _ = tx.Seal([]byte("new"))
	}
	if _, err := rx.Open(last); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(old); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale message beyond window accepted: %v", err)
	}
}

func TestTruncatedRejected(t *testing.T) {
	tx, rx := pair(t)
	sealed, _ := tx.Seal([]byte("abcdefgh"))
	for cut := 0; cut < len(sealed); cut++ {
		if _, err := rx.Open(sealed[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestPairwiseKeysDistinctAndDeterministic(t *testing.T) {
	secret := []byte("config-secret")
	k1 := Pairwise(secret, "gm/0", "bank/1")
	k2 := Pairwise(secret, "gm/0", "bank/1")
	if k1 != k2 {
		t.Fatal("pairwise key not deterministic")
	}
	if Pairwise(secret, "gm/0", "bank/2") == k1 {
		t.Fatal("different elements share a pairwise key")
	}
	if Pairwise(secret, "gm/1", "bank/1") == k1 {
		t.Fatal("different GM elements share a pairwise key")
	}
	// Separator prevents concatenation ambiguity.
	if Pairwise(secret, "gm/0x", "y") == Pairwise(secret, "gm/0", "xy") {
		t.Fatal("ambiguous pairwise derivation")
	}
}

func TestKeyFromBytes(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, 16)); err == nil {
		t.Fatal("short key accepted")
	}
	b := bytes.Repeat([]byte{9}, KeySize)
	k, err := KeyFromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k[:], b) {
		t.Fatal("key bytes mismatch")
	}
}

func TestQuickSealOpenProperty(t *testing.T) {
	prop := func(msg []byte, keyByte byte, ctx string) bool {
		k := testKey(keyByte)
		tx := NewChannel(k, ctx)
		rx := NewChannel(k, ctx)
		sealed, err := tx.Seal(msg)
		if err != nil {
			return false
		}
		got, err := rx.Open(sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOpenGarbageNeverPanics(t *testing.T) {
	rx := NewChannel(testKey(3), "c")
	prop := func(b []byte) bool {
		_, _ = rx.Open(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSealToMatchesSeal pins the zero-copy sealing primitive: SealTo into
// a reserved region — whether the plaintext is staged in place in the
// region's ciphertext span or lives in a separate buffer — produces bytes
// identical to Seal from the same channel state.
func TestSealToMatchesSeal(t *testing.T) {
	var k Key
	copy(k[:], "0123456789abcdef0123456789abcdef")
	pt := []byte("the plaintext to protect, somewhat longer than a block")

	ref := NewChannel(k, "ctx")
	want, err := ref.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}

	// Encrypt-copy mode: plaintext in a separate buffer.
	c1 := NewChannel(k, "ctx")
	buf := append([]byte(nil), []byte("prefix")...)
	start := len(buf)
	buf = append(buf, make([]byte, SealedLen(len(pt)))...)
	c1.SealTo(buf, start, pt, nil)
	if !bytes.Equal(buf[start:], want) {
		t.Fatal("SealTo (copy mode) differs from Seal")
	}

	// In-place mode: plaintext staged in the region's ciphertext span.
	c2 := NewChannel(k, "ctx")
	buf2 := make([]byte, SealedLen(len(pt)))
	copy(buf2[SealHeadLen:], pt)
	c2.SealTo(buf2, 0, buf2[SealHeadLen:SealHeadLen+len(pt)], nil)
	if !bytes.Equal(buf2, want) {
		t.Fatal("SealTo (in-place mode) differs from Seal")
	}

	// Both open cleanly at the receiver.
	r := NewChannel(k, "ctx")
	got, err := r.Open(buf[start:])
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Open after SealTo: %v", err)
	}
}

// TestAssociatedData: a seal made with associated data opens only with the
// very same associated data — the one in front of the seal in the buffer
// included — and a refusal leaves the replay window where it was, so the
// message still opens with the right associated data afterwards.
func TestAssociatedData(t *testing.T) {
	var k Key
	copy(k[:], "0123456789abcdef0123456789abcdef")
	pt := []byte("fragment 1 of 3")
	ad := []byte("envelope header")
	buf := append(bytes.Clone(ad), make([]byte, SealedLen(len(pt)))...)
	NewChannel(k, "ctx").SealTo(buf, len(ad), pt, buf[:len(ad)])
	sealed := buf[len(ad):]
	rx := NewChannel(k, "ctx")
	for name, other := range map[string][]byte{
		"none":   nil,
		"edited": []byte("envelope headeR"),
		"longer": []byte("envelope header "),
	} {
		if _, err := rx.OpenTo(make([]byte, len(pt)), sealed, other); !errors.Is(err, ErrAuthentication) {
			t.Errorf("associated data %s: open = %v, want ErrAuthentication", name, err)
		}
	}
	got, err := rx.OpenTo(make([]byte, len(pt)), sealed, ad)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("open with the sealed associated data: %q, %v", got, err)
	}
}

// TestSealedLenConstants keeps the framing constants in lockstep with the
// wire layout.
func TestSealedLenConstants(t *testing.T) {
	var k Key
	c := NewChannel(k, "x")
	sealed, err := c.Seal(make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != SealedLen(100) {
		t.Fatalf("SealedLen(100) = %d, wire = %d", SealedLen(100), len(sealed))
	}
	if SealHeadLen != headerLen || SealTailLen != tagSize {
		t.Fatal("framing constants drifted from the wire layout")
	}
}

// TestOpenAdversarial is the refusal table of Open: a frame edited in any
// region, cut short or extended, a replayed or stale sequence number, and a
// genuine frame offered to the channel of another member, key era or
// direction of the same connection, under the same key. A frame refused for
// its bytes leaves the replay window as it was: the genuine frame still
// opens afterwards.
func TestOpenAdversarial(t *testing.T) {
	const ctx = "conn7|era0|bank|m1"
	k := testKey(7)
	msg := bytes.Repeat([]byte("payload-"), 8)
	// frames returns a fresh receiver and the first n frames one sender
	// seals on ctx.
	frames := func(n int) (*Channel, [][]byte) {
		tx := NewChannel(k, ctx)
		out := make([][]byte, n)
		for i := range out {
			out[i], _ = tx.Seal(msg)
		}
		return NewChannel(k, ctx), out
	}
	flip := func(at int) func([]byte) []byte {
		return func(b []byte) []byte {
			b = bytes.Clone(b)
			b[at] ^= 0x20
			return b
		}
	}
	end := SealedLen(len(msg))
	cases := []struct {
		name string
		want error // nil: any error
		edit func([]byte) []byte
		on   string // another context to open on; "" for ctx
	}{
		{"seq byte flipped", ErrAuthentication, flip(7), ""},
		{"length byte flipped", nil, flip(11), ""},
		{"first ciphertext byte flipped", ErrAuthentication, flip(SealHeadLen), ""},
		{"last ciphertext byte flipped", ErrAuthentication, flip(end - SealTailLen - 1), ""},
		{"first tag byte flipped", ErrAuthentication, flip(end - SealTailLen), ""},
		{"last tag byte flipped", ErrAuthentication, flip(end - 1), ""},
		{"tag cut off", nil, func(b []byte) []byte { return b[:end-SealTailLen] }, ""},
		{"one byte short", nil, func(b []byte) []byte { return b[:end-1] }, ""},
		{"one byte extra", nil, func(b []byte) []byte { return append(bytes.Clone(b), 0) }, ""},
		{"length and body extended", nil, func(b []byte) []byte {
			b = append(bytes.Clone(b), 0)
			b[11]++
			return b
		}, ""},
		{"header only", nil, func(b []byte) []byte { return b[:SealHeadLen] }, ""},
		{"another member's channel", ErrAuthentication, nil, "conn7|era0|bank|m2"},
		{"another era's channel", ErrAuthentication, nil, "conn7|era1|bank|m1"},
		{"the other direction's channel", ErrAuthentication, nil, "conn7|era0|client|m0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rx, fs := frames(1)
			if c.on != "" {
				rx = NewChannel(k, c.on)
			}
			frame := fs[0]
			if c.edit != nil {
				frame = c.edit(frame)
			}
			_, err := rx.Open(frame)
			if err == nil || c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("Open: %v, want %v", err, c.want)
			}
			if c.on == "" {
				if got, err := rx.Open(fs[0]); err != nil || !bytes.Equal(got, msg) {
					t.Fatalf("genuine frame after the refusal: %v", err)
				}
			}
		})
	}

	t.Run("replayed seq", func(t *testing.T) {
		rx, fs := frames(3)
		for _, i := range []int{0, 2, 1} {
			if _, err := rx.Open(fs[i]); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		for i := range fs {
			if _, err := rx.Open(fs[i]); !errors.Is(err, ErrReplay) {
				t.Fatalf("frame %d replayed: %v", i, err)
			}
		}
	})
	t.Run("stale seq", func(t *testing.T) {
		rx, fs := frames(66)
		if _, err := rx.Open(fs[65]); err != nil {
			t.Fatal(err)
		}
		if _, err := rx.Open(fs[1]); !errors.Is(err, ErrReplay) {
			t.Fatalf("frame 64 behind the newest: %v", err)
		}
		if _, err := rx.Open(fs[2]); err != nil {
			t.Fatalf("frame 63 behind the newest: %v", err)
		}
	})
	t.Run("seq rewritten to a fresh one", func(t *testing.T) {
		rx, fs := frames(2)
		if _, err := rx.Open(fs[0]); err != nil {
			t.Fatal(err)
		}
		// The replayed first frame relabelled as seq 2: the seq is the
		// nonce and part of the associated data, so the tag refuses it.
		forged := bytes.Clone(fs[0])
		forged[7] = 2
		if _, err := rx.Open(forged); !errors.Is(err, ErrAuthentication) {
			t.Fatalf("relabelled replay: %v", err)
		}
		if _, err := rx.Open(fs[1]); err != nil {
			t.Fatalf("genuine seq 2 after the forgery: %v", err)
		}
	})
}

// TestOpenToInPlace pins what an in-place open does to the frame it is
// given. A genuine frame decrypts over its own ciphertext. A replayed or
// stale sequence number is refused before anything is written, so that
// frame is left as it arrived. A frame that fails authentication — edited,
// or sealed under another key era — may have its ciphertext destroyed (AES-
// GCM clears the destination), so every receiver drops such a frame for
// good; it leaves the replay window as it was, and the genuine frame still
// opens afterwards.
func TestOpenToInPlace(t *testing.T) {
	const ctx = "conn7|era0|bank|m1"
	k := testKey(7)
	msg := bytes.Repeat([]byte("payload-"), 8)
	tx := NewChannel(k, ctx)
	first, _ := tx.Seal(msg)
	var later [][]byte
	for i := 0; i < 70; i++ {
		f, _ := tx.Seal(msg)
		later = append(later, f)
	}
	rx := NewChannel(k, ctx)
	inPlace := func(frame []byte) ([]byte, error) { return rx.OpenTo(frame[SealHeadLen:], frame, nil) }

	frame := bytes.Clone(first)
	pt, err := inPlace(frame)
	if err != nil || !bytes.Equal(pt, msg) || &pt[0] != &frame[SealHeadLen] {
		t.Fatalf("genuine frame: %q, %v, want %q decrypted over its ciphertext", pt, err, msg)
	}

	for name, sealed := range map[string][]byte{"replayed": first, "stale": later[2]} {
		if name == "stale" {
			for _, f := range later[3:] {
				if _, err := inPlace(bytes.Clone(f)); err != nil {
					t.Fatal(err)
				}
			}
		}
		frame := bytes.Clone(sealed)
		if _, err := inPlace(frame); !errors.Is(err, ErrReplay) {
			t.Fatalf("%s frame: err = %v, want ErrReplay", name, err)
		}
		if !bytes.Equal(frame, sealed) {
			t.Fatalf("%s frame was written by the refused open", name)
		}
	}

	rx = NewChannel(k, ctx)
	edited := bytes.Clone(first)
	edited[len(edited)-1] ^= 1
	if _, err := inPlace(edited); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("edited frame: err = %v, want ErrAuthentication", err)
	}
	otherEra, _ := NewChannel(k, "conn7|era1|bank|m1").Seal(msg)
	if _, err := inPlace(otherEra); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("frame of another era: err = %v, want ErrAuthentication", err)
	}
	if pt, err := inPlace(bytes.Clone(first)); err != nil || !bytes.Equal(pt, msg) {
		t.Fatalf("genuine frame after refusals: %q, %v", pt, err)
	}
}
