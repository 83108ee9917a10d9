package giop

import (
	"bytes"
	"testing"

	"itdos/internal/cdr"
)

// TestAppendMatchesEncode pins the zero-copy framing: AppendRequest/
// AppendReply into a dirty prefixed buffer produce exactly the bytes
// EncodeRequest/EncodeReply produce standalone.
func TestAppendMatchesEncode(t *testing.T) {
	req := &Request{
		RequestID: 42, ObjectKey: "calc", Interface: "IDL:x/Calc:1.0",
		Operation: "add", ResponseExpected: true, Body: []byte{1, 2, 3, 4, 5},
	}
	rep := &Reply{RequestID: 42, Status: StatusNoException, Body: []byte{9, 8, 7}}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		prefix := []byte{0xAA, 0xBB, 0xCC}
		got := AppendRequest(append([]byte(nil), prefix...), order, req)
		want := EncodeRequest(order, req)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("order %v: AppendRequest differs from EncodeRequest", order)
		}
		got = AppendReply(append([]byte(nil), prefix...), order, rep)
		want = EncodeReply(order, rep)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("order %v: AppendReply differs from EncodeReply", order)
		}
	}
}

// TestTentativeFlagRoundTrip: the tentative bit rides the header flags
// octet, round-trips through Decode, and changes nothing else — the body
// bytes (what canonical voting digests see) are identical either way.
func TestTentativeFlagRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		committed := EncodeReply(order, &Reply{RequestID: 7, Body: []byte("r")})
		tentative := EncodeReply(order, &Reply{RequestID: 7, Body: []byte("r"), Tentative: true})
		if bytes.Equal(committed, tentative) {
			t.Fatal("tentative flag not encoded")
		}
		if !bytes.Equal(committed[headerLen:], tentative[headerLen:]) {
			t.Fatal("tentative flag leaked into the body bytes")
		}
		if committed[6]&hdrFlagTentative != 0 {
			t.Fatal("legacy reply carries the tentative bit")
		}
		msg, err := Decode(tentative)
		if err != nil {
			t.Fatal(err)
		}
		if !msg.Reply.Tentative {
			t.Fatal("tentative bit lost in Decode")
		}
		msg, err = Decode(committed)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Reply.Tentative {
			t.Fatal("committed reply decoded as tentative")
		}
	}
}

// TestReplyResultsEncodeInPlace: a reply whose results are values encodes
// exactly the bytes of the same reply with the results marshalled first
// into Body, in both byte orders and behind a dirty prefix; results that do
// not conform to their TypeCode encode as the MARSHAL system exception the
// adapter used to answer with, tentative flag kept.
func TestReplyResultsEncodeInPlace(t *testing.T) {
	tc := cdr.StructOf("results",
		cdr.Member{Name: "s", Type: cdr.String}, cdr.Member{Name: "d", Type: cdr.Double})
	vals := []cdr.Value{"echo", 2.5}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		body, err := cdr.Marshal(tc, vals, order)
		if err != nil {
			t.Fatal(err)
		}
		want := EncodeReply(order, &Reply{RequestID: 9, Tentative: true, Body: body})
		prefix := []byte{0xAA, 0xBB}
		got := AppendReply(bytes.Clone(prefix), order,
			&Reply{RequestID: 9, Tentative: true, Results: vals, ResultsType: tc})
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Fatalf("order %v: results encoded in place differ from a marshalled body", order)
		}

		_, cause := cdr.Marshal(tc, []cdr.Value{"echo"}, order)
		want = EncodeReply(order, &Reply{RequestID: 9, Tentative: true,
			Status: StatusSystemException, Exception: "MARSHAL: " + cause.Error()})
		got = AppendReply(bytes.Clone(prefix), order,
			&Reply{RequestID: 9, Tentative: true, Results: []cdr.Value{"echo"}, ResultsType: tc})
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Fatalf("order %v: non-conforming results did not become the MARSHAL exception", order)
		}
	}
}
