package smiop

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/obs"
	"itdos/internal/seckey"
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
	const size = 25 * DefaultFragmentSize / 2 // twelve and a half fragments
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
	giopBytes := bigReplyBytes(t, reqID, 15*DefaultFragmentSize/4)
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
	if _, err := sealSigned(servers[0], 1, true,
		make([]byte, (maxFragments+2)*16), testSign, 16); err == nil {
		t.Fatal("oversized fragmentation accepted")
	}
	// So is a message over MaxMessageBytes, which every receiver would
	// refuse: the call fails at its sender. One just under it seals.
	frames, err := sealSigned(servers[0], 2, true, make([]byte, MaxMessageBytes-256), testSign, 0)
	if err != nil {
		t.Fatalf("message just under MaxMessageBytes: %v", err)
	}
	ReleaseFrames(frames)
	for _, fragSize := range []int{0, 2 * MaxMessageBytes} {
		if _, err := sealSigned(servers[0], 3, true,
			make([]byte, MaxMessageBytes), testSign, fragSize); err == nil {
			t.Fatalf("message over MaxMessageBytes sealed (fragment size %d)", fragSize)
		}
	}
}

// addFragment takes fragment env with plaintext pt through the reassembler
// as Stream.Deliver does around the open: a fragment whose place is filled
// is ignored before it opens, and pt, the opened plaintext, is added.
func addFragment(r *reassembler, env *Envelope, pt []byte, vouched bool) ([]byte, bool, error) {
	if r.filled(env) {
		return nil, false, errDuplicateFragment
	}
	return r.add(env, pt, vouched)
}

func TestReassemblerRejectsBogusCounts(t *testing.T) {
	r := newReassembler()
	if _, _, err := addFragment(r, &Envelope{FragIndex: 5, FragCount: 3, SrcMember: 0}, []byte("x"), false); err == nil {
		t.Fatal("index >= count accepted")
	}
	if _, _, err := addFragment(r, &Envelope{FragIndex: 0, FragCount: maxFragments + 1, SrcMember: 0}, []byte("x"), false); err == nil {
		t.Fatal("huge count accepted")
	}
}

func TestReassemblerDuplicateFragmentIgnored(t *testing.T) {
	r := newReassembler()
	env := &Envelope{FragIndex: 0, FragCount: 2, SrcMember: 1, RequestID: 9}
	if out, _, err := addFragment(r, env, []byte("a"), false); err != nil || out != nil {
		t.Fatalf("first fragment: %v, %v", out, err)
	}
	if out, _, err := addFragment(r, env, []byte("A"), false); !errors.Is(err, errDuplicateFragment) || out != nil {
		t.Fatalf("duplicate fragment: %v, %v", out, err)
	}
	out, _, err := addFragment(r, &Envelope{FragIndex: 1, FragCount: 2, SrcMember: 1, RequestID: 9}, []byte("b"), false)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ab" {
		t.Fatalf("reassembled %q", out)
	}
}

func TestReassemblerContextSwitchDropsStale(t *testing.T) {
	r := newReassembler()
	addFragment(r, &Envelope{FragIndex: 0, FragCount: 2, SrcMember: 1, RequestID: 1}, []byte("old"), false)
	// New request id from the same member: stale fragment buffer replaced.
	addFragment(r, &Envelope{FragIndex: 0, FragCount: 2, SrcMember: 1, RequestID: 2}, []byte("n0"), false)
	out, _, err := addFragment(r, &Envelope{FragIndex: 1, FragCount: 2, SrcMember: 1, RequestID: 2}, []byte("n1"), false)
	if err != nil || string(out) != "n0n1" {
		t.Fatalf("got %q, %v", out, err)
	}
}

// byzantineFragment is what a member holding the connection key can send:
// a well-sealed fragment index/count of plaintext, owned by the receiver as
// a direct-path delivery is.
func byzantineFragment(t *testing.T, member *Connection, reqID uint64, index, count uint32, plaintext []byte) *Envelope {
	t.Helper()
	env, err := DecodeEnvelope(member.sealEnvelope(reqID, true, index, count, plaintext).Detach())
	if err != nil {
		t.Fatal(err)
	}
	env.Owned = true
	return env
}

// TestReassemblyByteBound: a member holding the connection key cannot make
// a caller hold more than MaxMessageBytes for one message. A fragment that
// claims maxFragments fragments, or fragments so large that their count
// exceeds the bound, is refused and counted, with nothing allocated for the
// message; so is a message whose first fragment declares more. A fragment
// that does not fit the layout its first fragment set is refused. The
// honest members' copies still decide.
func TestReassemblyByteBound(t *testing.T) {
	client, servers := serverEndpoints(t, testKey(7))
	reg := obs.NewRegistry()
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var got *MessageVal
	stream.OnMessage = func(val *MessageVal, _ *vote.Decision) { got = val }
	reqID := client.NextRequestID()
	if err := stream.ExpectReply(reqID, "IDL:Calc:1.0", "greet"); err != nil {
		t.Fatal(err)
	}
	evil := servers[3]
	chunk := bytes.Repeat([]byte{'e'}, DefaultFragmentSize)
	huge := make([]byte, 4) // a first fragment that declares 1 GiB of GIOP
	binary.BigEndian.PutUint32(huge, 1<<30)
	huge = append(huge, chunk[4:]...)
	for _, c := range []struct {
		name         string
		index, count uint32
		plaintext    []byte
		oversize     bool
	}{
		{"claims maxFragments fragments", 1, maxFragments, chunk, true},
		{"claims maxFragments, first fragment", 0, maxFragments, chunk, true},
		{"oversize fragments", 1, 8, bytes.Repeat([]byte{'e'}, MaxMessageBytes/4), true},
		{"first fragment declares 1 GiB", 0, 1 << 10, huge, true},
		{"fragment off the layout", 1, 3, chunk[:100], false},
	} {
		env := byzantineFragment(t, evil, reqID, c.index, c.count, c.plaintext)
		if c.name == "fragment off the layout" {
			// The first fragment sets fragments of DefaultFragmentSize; a
			// middle one of 100 bytes does not fit.
			first := byzantineFragment(t, evil, reqID, 0, 3, chunk)
			if err := stream.Deliver(first); err != nil {
				t.Fatalf("%s: first fragment: %v", c.name, err)
			}
		}
		dropped := stream.Dropped
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := stream.Deliver(env)
		runtime.ReadMemStats(&after)
		if err == nil || stream.Dropped != dropped+1 {
			t.Errorf("%s: Deliver = %v, dropped %d, want a refusal", c.name, err, stream.Dropped-dropped)
		}
		if c.oversize && !errors.Is(err, errOversize) {
			t.Errorf("%s: err = %v, want errOversize", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(c.plaintext))+64<<10 {
			t.Errorf("%s: refusal allocated %d bytes for a %d-byte fragment", c.name, grew, len(c.plaintext))
		}
	}
	if n := reg.Counter("smiop_oversize_total").Value(); n != 4 {
		t.Errorf("smiop_oversize_total = %d, want 4", n)
	}
	giopBytes := bigReplyBytes(t, reqID, 5*DefaultFragmentSize/2)
	for m := 0; m < 2; m++ {
		for _, env := range sealEnvs(t, servers[m], reqID, true, giopBytes, testSign, 0) {
			env.Owned = true
			if err := stream.Deliver(env); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got == nil {
		t.Fatal("honest copies did not decide beside the Byzantine member")
	}
}

// TestRefusedInPlaceOpenDropsTheFrame: an owned copy that fails its in-place
// open — edited in transit, replayed, or sealed under a key era the
// receiver has left — is dropped, and nothing of it reaches the vote: a
// fragment refused in place leaves its place in the reassembly buffer
// empty, and the genuine copy completes the message.
func TestRefusedInPlaceOpenDropsTheFrame(t *testing.T) {
	client, servers := serverEndpoints(t, testKey(7))
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	stream.OnMessage = func(*MessageVal, *vote.Decision) { decided++ }
	reqID := client.NextRequestID()
	if err := stream.ExpectReply(reqID, "IDL:Calc:1.0", "greet"); err != nil {
		t.Fatal(err)
	}
	giopBytes := bigReplyBytes(t, reqID, 5*DefaultFragmentSize/2)
	owned := func(member int) []*Envelope {
		envs := sealEnvs(t, servers[member], reqID, true, giopBytes, testSign, 0)
		for _, env := range envs {
			env.Owned = true
		}
		return envs
	}
	// Member 0: every fragment first arrives edited, then genuine.
	for _, env := range owned(0) {
		edited := *env
		edited.Payload = bytes.Clone(env.Payload)
		edited.Payload[len(edited.Payload)-1] ^= 1
		dropped := stream.Dropped
		if err := stream.Deliver(&edited); err == nil || stream.Dropped != dropped+1 {
			t.Fatalf("edited fragment %d: Deliver = %v", env.FragIndex, err)
		}
		if err := stream.Deliver(env); err != nil {
			t.Fatalf("genuine fragment %d after an edited one: %v", env.FragIndex, err)
		}
	}
	// Member 1: a replay of a fragment already opened is refused, and the
	// replayed frame is left as it arrived.
	envs := owned(1)
	sealed := bytes.Clone(envs[0].Payload)
	replay := *envs[0]
	replay.Payload = bytes.Clone(sealed)
	if err := stream.Deliver(envs[0]); err != nil {
		t.Fatal(err)
	}
	if err := stream.Deliver(&replay); err != nil {
		t.Fatalf("replayed fragment: %v", err) // a duplicate place: ignored
	}
	if !bytes.Equal(replay.Payload, sealed) {
		t.Fatal("the replayed frame was written")
	}
	for _, env := range envs[1:] {
		if err := stream.Deliver(env); err != nil {
			t.Fatal(err)
		}
	}
	if decided != 1 {
		t.Fatalf("%d decisions, want 1 from the two genuine copies", decided)
	}
	// A copy sealed under the era the receiver left is dropped.
	client.Rekey(1, testKey(8), nil)
	stale := owned(2)[0]
	dropped := stream.Dropped
	if err := stream.Deliver(stale); err == nil || stream.Dropped != dropped+1 {
		t.Fatalf("copy of a left era: Deliver = %v", err)
	}
}

// TestForgedFragmentsChangeNothing: a fragment sealed without the
// connection key changes no reassembly state, whatever its header claims —
// another fragment count or direction for a message a member is sending,
// a length off the layout, or a member the connection does not have. Each
// is dropped without a buffer started, replaced or sized for it, and the
// genuine copies still decide.
func TestForgedFragmentsChangeNothing(t *testing.T) {
	client, servers := serverEndpoints(t, testKey(7))
	_, forgers := serverEndpoints(t, testKey(9)) // the same connection and members, another key
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	stream.OnMessage = func(*MessageVal, *vote.Decision) { decided++ }
	reqID := client.NextRequestID()
	if err := stream.ExpectReply(reqID, "IDL:Calc:1.0", "greet"); err != nil {
		t.Fatal(err)
	}
	giopBytes := bigReplyBytes(t, reqID, 5*DefaultFragmentSize/2)
	owned := func(member int) []*Envelope {
		envs := sealEnvs(t, servers[member], reqID, true, giopBytes, testSign, 0)
		for _, env := range envs {
			env.Owned = true
		}
		return envs
	}
	honest0, honest1 := owned(0), owned(1)
	count := honest0[0].FragCount
	// Member 0's first fragment sets its message's layout.
	if err := stream.Deliver(honest0[0]); err != nil {
		t.Fatal(err)
	}
	fb := stream.frags.byMember[0]
	if fb == nil || fb.chunk == 0 {
		t.Fatal("member 0's first fragment set no layout")
	}
	set := *fb
	chunk := bytes.Repeat([]byte{'f'}, DefaultFragmentSize)
	asRequest := byzantineFragment(t, forgers[0], reqID, 1, count, chunk)
	asRequest.Reply = false
	stranger := byzantineFragment(t, forgers[2], reqID, 1, 256, chunk)
	stranger.SrcMember = 7
	for _, c := range []struct {
		name string
		env  *Envelope
	}{
		{"another count for member 0", byzantineFragment(t, forgers[0], reqID, 1, count+1, chunk)},
		{"member 0's message as a request", asRequest},
		{"off member 0's layout", byzantineFragment(t, forgers[0], reqID, 1, count, chunk[:100])},
		{"member 1's first fragment, off length", byzantineFragment(t, forgers[1], reqID, 1, count, chunk[:100])},
		{"an unknown member", stranger},
	} {
		dropped := stream.Dropped
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := stream.Deliver(c.env)
		runtime.ReadMemStats(&after)
		if err == nil || stream.Dropped != dropped+1 {
			t.Errorf("%s: Deliver = %v, dropped %d, want a refusal", c.name, err, stream.Dropped-dropped)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > DefaultFragmentSize/4 {
			t.Errorf("%s: refusal allocated %d bytes", c.name, grew)
		}
	}
	if len(stream.frags.byMember) != 1 || stream.frags.byMember[0] != fb {
		t.Fatalf("forged fragments changed who has a buffer: %v", stream.frags.byMember)
	}
	if len(fb.parts) != len(set.parts) || fb.chunk != set.chunk || fb.have != set.have {
		t.Fatalf("forged fragments changed member 0's buffer: count %d chunk %d have %d, was %d %d %d",
			len(fb.parts), fb.chunk, fb.have, len(set.parts), set.chunk, set.have)
	}
	for _, env := range append(honest0[1:], honest1...) {
		if err := stream.Deliver(env); err != nil {
			t.Fatal(err)
		}
	}
	if decided != 1 {
		t.Fatalf("%d decisions, want 1 from the two genuine copies", decided)
	}
}

// TestSealBindsEnvelopeHeader: a sealed envelope's cleartext header is
// associated data of its seal, so editing it in transit needs no key but
// breaks the seal. Genuine fragments of member 0 with an edited fragment
// index (swapped with its neighbour's), request id or direction are each
// refused at open and counted, and leave no reassembly state behind; the
// replay window is untouched, so member 0's unedited copy still opens and,
// with member 1's, decides.
func TestSealBindsEnvelopeHeader(t *testing.T) {
	client, servers := serverEndpoints(t, testKey(7))
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	stream.OnMessage = func(*MessageVal, *vote.Decision) { decided++ }
	reqID := client.NextRequestID()
	if err := stream.ExpectReply(reqID, "IDL:Calc:1.0", "greet"); err != nil {
		t.Fatal(err)
	}
	giopBytes := bigReplyBytes(t, reqID, 5*DefaultFragmentSize/2)
	other := sealEnvs(t, servers[0], reqID+1, true, bigReplyBytes(t, reqID+1, 5*DefaultFragmentSize/2), testSign, 0)
	honest0 := sealEnvs(t, servers[0], reqID, true, giopBytes, testSign, 0)
	honest1 := sealEnvs(t, servers[1], reqID, true, giopBytes, testSign, 0)
	if len(honest0) < 3 {
		t.Fatalf("reply sealed as %d frames, want at least 3", len(honest0))
	}
	edited := func(env *Envelope, edit func(*Envelope)) *Envelope {
		c := *env
		c.Payload = bytes.Clone(env.Payload)
		c.Owned = true
		edit(&c)
		return &c
	}
	for _, c := range []struct {
		name string
		env  *Envelope
	}{
		{"fragment 0 as fragment 1", edited(honest0[0], func(e *Envelope) { e.FragIndex = 1 })},
		{"fragment 1 as fragment 0", edited(honest0[1], func(e *Envelope) { e.FragIndex = 0 })},
		{"fragment 1 of the next request as this one's", edited(other[1], func(e *Envelope) { e.RequestID = reqID })},
		{"fragment 1 as a request", edited(honest0[1], func(e *Envelope) { e.Reply = false })},
	} {
		dropped := stream.Dropped
		err := stream.Deliver(c.env)
		if !errors.Is(err, seckey.ErrAuthentication) || stream.Dropped != dropped+1 {
			t.Errorf("%s: Deliver = %v, dropped %d, want a counted authentication failure",
				c.name, err, stream.Dropped-dropped)
		}
		if len(stream.frags.byMember) != 0 {
			t.Fatalf("%s: reassembly state left behind: %v", c.name, stream.frags.byMember)
		}
	}
	dropped := stream.Dropped
	for _, env := range append(honest0, honest1...) {
		if err := stream.Deliver(env); err != nil {
			t.Fatal(err)
		}
	}
	if decided != 1 || stream.Dropped != dropped {
		t.Fatalf("%d decisions and %d drops from the genuine copies, want 1 and 0",
			decided, stream.Dropped-dropped)
	}
}
