package smiop

import (
	"bytes"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/vote"
)

func bigReplyBytes(t *testing.T, reqID uint64, size int) []byte {
	t.Helper()
	reg := testRegistry()
	op, err := reg.Lookup("IDL:Calc:1.0", "greet")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'x'}, size)
	body, err := cdr.Marshal(op.ResultsType(), []cdr.Value{string(payload)}, cdr.BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	return giop.EncodeReply(cdr.BigEndian, &giop.Reply{RequestID: reqID, Body: body})
}

func TestFragmentationRoundTrip(t *testing.T) {
	key := testKey(7)
	client, servers := serverEndpoints(t, key)
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	var got *MessageVal
	stream.OnMessage = func(val *MessageVal, dec *vote.Decision) { got = val }

	reqID := client.NextRequestID()
	if err := stream.ExpectReply(reqID, "IDL:Calc:1.0", "greet"); err != nil {
		t.Fatal(err)
	}
	const size = 200 << 10 // 200 KiB >> 16 KiB fragment size
	for m := 0; m < 2; m++ {
		giopBytes := bigReplyBytes(t, reqID, size)
		envs := sealEnvs(t, servers[m], reqID, true, giopBytes, testSign, 0)
		if len(envs) < 10 {
			t.Fatalf("expected many fragments, got %d", len(envs))
		}
		for _, env := range envs {
			if err := stream.Deliver(env); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got == nil {
		t.Fatal("fragmented message never voted")
	}
	if len(got.Body.([]cdr.Value)[0].(string)) != size {
		t.Fatalf("reassembled size = %d", len(got.Body.([]cdr.Value)[0].(string)))
	}
}

func TestFragmentsOutOfOrder(t *testing.T) {
	key := testKey(7)
	client, servers := serverEndpoints(t, key)
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	decided := false
	stream.OnMessage = func(*MessageVal, *vote.Decision) { decided = true }
	reqID := client.NextRequestID()
	stream.ExpectReply(reqID, "IDL:Calc:1.0", "greet")
	giopBytes := bigReplyBytes(t, reqID, 60<<10)
	// Two members must agree (f=1); scramble delivery order per member.
	for m := 0; m < 2; m++ {
		envs := sealEnvs(t, servers[m], reqID, true, giopBytes, testSign, 0)
		for i := len(envs) - 1; i >= 0; i-- { // reverse order
			if err := stream.Deliver(envs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !decided {
		t.Fatal("out-of-order fragments never reassembled")
	}
}

func TestSmallMessagesNotFragmented(t *testing.T) {
	key := testKey(7)
	_, servers := serverEndpoints(t, key)
	envs := sealEnvs(t, servers[0], 1, true, []byte("tiny"), testSign, 0)
	if len(envs) != 1 || envs[0].FragCount != 0 {
		t.Fatalf("small message fragmented: %d envs, count %d", len(envs), envs[0].FragCount)
	}
}

func TestFragmentBounds(t *testing.T) {
	key := testKey(7)
	_, servers := serverEndpoints(t, key)
	// A message that would need more than maxFragments chunks is refused.
	if _, err := servers[0].SealSignedDataWire(1, true,
		make([]byte, (maxFragments+2)*16), testSign, 16); err == nil {
		t.Fatal("oversized fragmentation accepted")
	}
}

func TestReassemblerRejectsBogusCounts(t *testing.T) {
	r := newReassembler()
	if _, _, err := r.add(&Envelope{FragIndex: 5, FragCount: 3, SrcMember: 0}, []byte("x"), false); err == nil {
		t.Fatal("index >= count accepted")
	}
	if _, _, err := r.add(&Envelope{FragIndex: 0, FragCount: maxFragments + 1, SrcMember: 0}, []byte("x"), false); err == nil {
		t.Fatal("huge count accepted")
	}
}

func TestReassemblerDuplicateFragmentIgnored(t *testing.T) {
	r := newReassembler()
	env := &Envelope{FragIndex: 0, FragCount: 2, SrcMember: 1, RequestID: 9}
	if out, _, err := r.add(env, []byte("a"), false); err != nil || out != nil {
		t.Fatalf("first fragment: %v, %v", out, err)
	}
	if out, _, err := r.add(env, []byte("A"), false); err != nil || out != nil {
		t.Fatalf("duplicate fragment: %v, %v", out, err)
	}
	out, _, err := r.add(&Envelope{FragIndex: 1, FragCount: 2, SrcMember: 1, RequestID: 9}, []byte("b"), false)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ab" {
		t.Fatalf("reassembled %q", out)
	}
}

func TestReassemblerContextSwitchDropsStale(t *testing.T) {
	r := newReassembler()
	r.add(&Envelope{FragIndex: 0, FragCount: 2, SrcMember: 1, RequestID: 1}, []byte("old"), false)
	// New request id from the same member: stale fragment buffer replaced.
	r.add(&Envelope{FragIndex: 0, FragCount: 2, SrcMember: 1, RequestID: 2}, []byte("n0"), false)
	out, _, err := r.add(&Envelope{FragIndex: 1, FragCount: 2, SrcMember: 1, RequestID: 2}, []byte("n1"), false)
	if err != nil || string(out) != "n0n1" {
		t.Fatalf("got %q, %v", out, err)
	}
}
