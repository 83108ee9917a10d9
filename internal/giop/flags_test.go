package giop

import (
	"bytes"
	"testing"

	"itdos/internal/cdr"
)

func TestRequestFlagsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ re, ro bool }{
		{false, false}, {true, false}, {true, true}, {false, true},
	} {
		req := &Request{
			RequestID: 5, ObjectKey: "k", Interface: "IDL:I:1.0", Operation: "op",
			ResponseExpected: tc.re, ReadOnly: tc.ro,
		}
		msg, err := Decode(EncodeRequest(cdr.BigEndian, req))
		if err != nil {
			t.Fatal(err)
		}
		got := msg.Request
		if got.ResponseExpected != tc.re || got.ReadOnly != tc.ro {
			t.Fatalf("flags %+v round-tripped as RE=%v ReadOnly=%v",
				tc, got.ResponseExpected, got.ReadOnly)
		}
	}
}

// TestFlagOctetBackwardCompatible pins the wire discipline the read-only
// fast path relies on: its flag lives in the octet that legacy encoders
// wrote as exactly 0 or 1 for response_expected, so with the flag clear the
// encoding is byte-identical to the legacy stream, and setting it changes
// exactly that one octet.
func TestFlagOctetBackwardCompatible(t *testing.T) {
	base := &Request{
		RequestID: 9, ObjectKey: "k", Interface: "IDL:I:1.0", Operation: "op",
		ResponseExpected: true, Body: []byte{1, 2, 3},
	}
	plain := EncodeRequest(cdr.LittleEndian, base)

	ro := *base
	ro.ReadOnly = true
	roBuf := EncodeRequest(cdr.LittleEndian, &ro)
	if len(roBuf) != len(plain) {
		t.Fatalf("flag changed message length: %d vs %d", len(roBuf), len(plain))
	}
	diff := -1
	for i := range plain {
		if plain[i] != roBuf[i] {
			if diff != -1 {
				t.Fatalf("flag changed more than one octet: %d and %d", diff, i)
			}
			diff = i
		}
	}
	if diff == -1 {
		t.Fatal("ReadOnly flag not encoded")
	}
	if plain[diff] != flagResponseExpected || roBuf[diff] != flagResponseExpected|flagReadOnly {
		t.Fatalf("flag octet %#x -> %#x, want %#x -> %#x",
			plain[diff], roBuf[diff], flagResponseExpected, flagResponseExpected|flagReadOnly)
	}
}

// TestUnassignedFlagBitsIgnored: a response-flags octet with any unassigned
// bit set (bit 1, bits 3–7) decodes as if the bit were clear and re-encodes
// without it.
func TestUnassignedFlagBitsIgnored(t *testing.T) {
	base := &Request{
		RequestID: 9, ObjectKey: "k", Interface: "IDL:I:1.0", Operation: "op",
		ResponseExpected: true, ReadOnly: true, Body: []byte{1, 2, 3},
	}
	plain := EncodeRequest(cdr.LittleEndian, base)
	// The flag octet is the last one holding its value before the body's
	// length prefix: only zero alignment padding lies between them.
	at := bytes.LastIndexByte(plain[:len(plain)-len(base.Body)-4], flagResponseExpected|flagReadOnly)
	for _, bit := range []byte{1 << 1, 1 << 3, 1 << 4, 1 << 5, 1 << 6, 1 << 7} {
		wire := bytes.Clone(plain)
		wire[at] |= bit
		msg, err := Decode(wire)
		if err != nil {
			t.Fatalf("bit %#x: %v", bit, err)
		}
		got := msg.Request
		if !got.ResponseExpected || !got.ReadOnly {
			t.Fatalf("bit %#x: flags decoded as RE=%v ReadOnly=%v", bit, got.ResponseExpected, got.ReadOnly)
		}
		if again := EncodeRequest(cdr.LittleEndian, got); !bytes.Equal(again, plain) {
			t.Fatalf("bit %#x survived a re-encode", bit)
		}
	}
}
