package smiop

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/seckey"
	"itdos/internal/vote"
)

func testRegistry() *idl.Registry {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface("IDL:Calc:1.0").
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}).
		Op("greet",
			[]idl.Param{{Name: "name", Type: cdr.String}},
			[]idl.Param{{Name: "msg", Type: cdr.String}}))
	return reg
}

func testKey(b byte) seckey.Key {
	var k seckey.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// connPair builds matching endpoints: a singleton client and one member of
// a 4-element server domain.
func connPair(t *testing.T) (client, server *Connection) {
	t.Helper()
	cInfo := PeerInfo{Name: "client", N: 1, F: 0}
	sInfo := PeerInfo{Name: "bank", N: 4, F: 1}
	k := testKey(9)
	var err error
	client, err = NewConnection(7, cInfo, 0, sInfo, k)
	if err != nil {
		t.Fatal(err)
	}
	server, err = NewConnection(7, sInfo, 2, cInfo, k)
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

// sealEnvs seals giopBytes on c the way every sender does (SealGIOPWire)
// and decodes the frames back into envelopes the way a
// receiver's transport does.
func sealEnvs(t testing.TB, c *Connection, id uint64, reply bool, giopBytes []byte,
	sign func([]byte) []byte, fragSize int) []*Envelope {
	t.Helper()
	frames, err := sealSigned(c, id, reply, giopBytes, sign, fragSize)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrames(frames)
	envs := make([]*Envelope, len(frames))
	for i, f := range frames {
		// Decode what a transport hands up, a copy: the envelopes alias it
		// and outlive the pooled frames.
		if envs[i], err = DecodeEnvelope(bytes.Clone(f.B)); err != nil {
			t.Fatal(err)
		}
	}
	return envs
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := &Envelope{
		Kind: KindData, ConnID: 9, SrcDomain: "bank", SrcMember: 2,
		RequestID: 41, Reply: true, Payload: []byte{1, 2, 3},
	}
	got, err := DecodeEnvelope(env.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != env.Kind || got.ConnID != env.ConnID || got.SrcDomain != env.SrcDomain ||
		got.SrcMember != env.SrcMember || got.RequestID != env.RequestID ||
		got.Reply != env.Reply || !bytes.Equal(got.Payload, env.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, env)
	}
}

// TestEnvelopeKindValues pins the kind octet of every envelope kind. 7, the
// retired digest reply, stays unassigned, so the kinds after it keep their
// values; an envelope of kind 7 still decodes, and OpenData refuses it.
func TestEnvelopeKindValues(t *testing.T) {
	for k, want := range map[Kind]byte{
		KindData: 1, KindOpenRequest: 2, KindOpenAck: 3, KindKeyShare: 4,
		KindChangeRequest: 5, KindClose: 6, KindRekeyRequest: 8,
	} {
		if byte(k) != want {
			t.Errorf("%s = %d, want %d", k, byte(k), want)
		}
	}
	if got := Kind(7).String(); got != "Kind(7)" {
		t.Errorf("Kind(7) names itself %q", got)
	}
	client, server := connPair(t)
	env := sealEnvs(t, server, 1, true, []byte("giop"), testSign, 0)[0]
	env.Kind = 7
	got, err := DecodeEnvelope(env.Encode())
	if err != nil {
		t.Fatalf("kind-7 envelope does not decode: %v", err)
	}
	if _, err := client.OpenData(got); err == nil {
		t.Fatal("OpenData opened a kind-7 envelope")
	}
}

func TestEnvelopeDecodeGarbageNeverPanics(t *testing.T) {
	prop := func(b []byte) bool {
		_, _ = DecodeEnvelope(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionSealOpen(t *testing.T) {
	client, server := connPair(t)
	id := client.NextRequestID()
	env := sealEnvs(t, client, id, false, []byte("giop-bytes"), testSign, 0)[0]
	if bytes.Contains(env.Payload, []byte("giop-bytes")) {
		t.Fatal("payload not encrypted")
	}
	pt, err := server.OpenData(env)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := DecodeSignedPayload(pt)
	if err != nil {
		t.Fatal(err)
	}
	if string(sp.GIOP) != "giop-bytes" {
		t.Fatalf("plaintext = %q", sp.GIOP)
	}
}

func TestConnectionRejectsCrossConnection(t *testing.T) {
	client, server := connPair(t)
	env := sealEnvs(t, client, 1, false, []byte("x"), testSign, 0)[0]
	env.ConnID = 8
	if _, err := server.OpenData(env); err == nil {
		t.Fatal("cross-connection envelope accepted")
	}
}

func TestConnectionRejectsReplay(t *testing.T) {
	client, server := connPair(t)
	env := sealEnvs(t, client, 1, false, []byte("x"), testSign, 0)[0]
	if _, err := server.OpenData(env); err != nil {
		t.Fatal(err)
	}
	if _, err := server.OpenData(env); err == nil {
		t.Fatal("replayed envelope accepted")
	}
}

func TestRekeyExcludesExpelledMember(t *testing.T) {
	client, server := connPair(t)
	// Server member 2 is expelled; client rekeys, marking it out.
	newKey := testKey(13)
	client.Rekey(1, newKey, []int{2})
	server.Rekey(1, newKey, nil)

	// The expelled member (this very server endpoint is member 2) can
	// still seal with the new key only if it got it — simulate a leaked
	// key: even then, the client refuses envelopes from member 2.
	env := sealEnvs(t, server, 1, true, []byte("from-expelled"), testSign, 0)[0]
	if _, err := client.OpenData(env); err == nil {
		t.Fatal("envelope from expelled member accepted")
	}
	if !client.Expelled(2) {
		t.Fatal("expelled flag not set")
	}
	if client.KeyEra() != 1 {
		t.Fatalf("key era = %d", client.KeyEra())
	}
}

func TestOldKeyFailsAfterRekey(t *testing.T) {
	client, server := connPair(t)
	env := sealEnvs(t, client, 1, false, []byte("old-era"), testSign, 0)[0]
	newKey := testKey(99)
	server.Rekey(1, newKey, nil)
	if _, err := server.OpenData(env); err == nil {
		t.Fatal("old-era envelope accepted after rekey")
	}
}

// buildReplyEnv seals a GIOP reply from server member m with the given
// result value.
func buildReplyEnv(t *testing.T, servers []*Connection, m int, reqID uint64,
	order cdr.ByteOrder, sum float64) *Envelope {
	t.Helper()
	reg := testRegistry()
	op, err := reg.Lookup("IDL:Calc:1.0", "add")
	if err != nil {
		t.Fatal(err)
	}
	body, err := cdr.Marshal(op.ResultsType(), []cdr.Value{sum}, order)
	if err != nil {
		t.Fatal(err)
	}
	rep := giop.EncodeReply(order, &giop.Reply{RequestID: reqID, Body: body})
	return sealEnvs(t, servers[m], reqID, true, rep, testSign, 0)[0]
}

// serverEndpoints builds the 4 server-side endpoints matching a client
// connection.
func serverEndpoints(t *testing.T, key seckey.Key) (client *Connection, servers []*Connection) {
	t.Helper()
	cInfo := PeerInfo{Name: "client", N: 1, F: 0}
	sInfo := PeerInfo{Name: "bank", N: 4, F: 1}
	var err error
	client, err = NewConnection(3, cInfo, 0, sInfo, key)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		sc, err := NewConnection(3, sInfo, m, cInfo, key)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, sc)
	}
	return client, servers
}

// TestStreamNeedsVerifier: no stream accepts copies without checking their
// signatures.
func TestStreamNeedsVerifier(t *testing.T) {
	client, _ := serverEndpoints(t, testKey(5))
	if _, err := NewStream(client, StreamConfig{Registry: testRegistry()}); err == nil {
		t.Fatal("stream without a signature verifier built")
	}
}

func TestStreamVotesHeterogeneousReplies(t *testing.T) {
	// Four server members reply with the same value marshalled in
	// different byte orders: the stream must vote them equivalent, and
	// decode each distinct encoding once.
	key := testKey(5)
	client, servers := serverEndpoints(t, key)
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	var got *MessageVal
	stream.OnMessage = func(val *MessageVal, dec *vote.Decision) { got = val }

	reqID := client.NextRequestID()
	if err := stream.ExpectReply(reqID, "IDL:Calc:1.0", "add"); err != nil {
		t.Fatal(err)
	}
	orders := []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian, cdr.BigEndian, cdr.LittleEndian}
	for m := 0; m < 4; m++ {
		env := buildReplyEnv(t, servers, m, reqID, orders[m], 42.5)
		if err := stream.Deliver(env); err != nil {
			t.Fatal(err)
		}
		if m >= 1 && got == nil {
			t.Fatalf("no decision after %d matching heterogeneous replies", m+1)
		}
	}
	if got == nil {
		t.Fatal("stream never decided")
	}
	if !got.IsReply || got.Body.([]cdr.Value)[0].(float64) != 42.5 {
		t.Fatalf("decided value = %+v", got)
	}
	// Copies with equal bytes share one decode: one per byte order.
	if len(stream.decoded) != 2 {
		t.Fatalf("%d decodes for copies in 2 distinct encodings", len(stream.decoded))
	}
}

func TestStreamMasksAndReportsFaultyReply(t *testing.T) {
	key := testKey(5)
	client, servers := serverEndpoints(t, key)
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	var got *MessageVal
	var faults []int
	stream.OnMessage = func(val *MessageVal, dec *vote.Decision) { got = val }
	stream.OnFault = func(member int, report vote.FaultReport) { faults = append(faults, member) }

	reqID := client.NextRequestID()
	stream.ExpectReply(reqID, "IDL:Calc:1.0", "add")
	// Member 1 lies; members 0, 2 tell the truth.
	stream.Deliver(buildReplyEnv(t, servers, 1, reqID, cdr.BigEndian, 666.0))
	stream.Deliver(buildReplyEnv(t, servers, 0, reqID, cdr.BigEndian, 42.5))
	stream.Deliver(buildReplyEnv(t, servers, 2, reqID, cdr.LittleEndian, 42.5))
	if got == nil {
		t.Fatal("no decision")
	}
	if got.Body.([]cdr.Value)[0].(float64) != 42.5 {
		t.Fatalf("faulty value decided: %+v", got)
	}
	if len(faults) != 1 || faults[0] != 1 {
		t.Fatalf("faults = %v, want [1]", faults)
	}
}

func TestStreamDiscardsMismatchedRequestID(t *testing.T) {
	key := testKey(5)
	client, servers := serverEndpoints(t, key)
	stream, _ := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	got := 0
	stream.OnMessage = func(*MessageVal, *vote.Decision) { got++ }
	r1 := client.NextRequestID()
	stream.ExpectReply(r1, "IDL:Calc:1.0", "add")
	// A late reply for an old request id (0) and a future one (99).
	stream.Deliver(buildReplyEnv(t, servers, 0, 99, cdr.BigEndian, 1.0))
	late := buildReplyEnv(t, servers, 1, r1, cdr.BigEndian, 2.0)
	late.RequestID = 0
	stream.Deliver(late)
	if got != 0 {
		t.Fatal("mismatched ids produced a decision")
	}
	if stream.Voter().Discarded != 2 {
		t.Fatalf("discarded = %d, want 2", stream.Voter().Discarded)
	}
}

func TestStreamByteVotingFailsUnderHeterogeneity(t *testing.T) {
	// Same scenario as TestStreamVotesHeterogeneousReplies but with
	// byte-by-byte voting: mixed byte orders prevent agreement among the
	// first f+1, demonstrating the paper's C2 claim.
	key := testKey(5)
	client, servers := serverEndpoints(t, key)
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), ByteVoting: true, VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	decided := false
	stream.OnMessage = func(*MessageVal, *vote.Decision) { decided = true }
	reqID := client.NextRequestID()
	stream.ExpectReply(reqID, "IDL:Calc:1.0", "add")
	stream.Deliver(buildReplyEnv(t, servers, 0, reqID, cdr.BigEndian, 42.5))
	stream.Deliver(buildReplyEnv(t, servers, 1, reqID, cdr.LittleEndian, 42.5))
	if decided {
		t.Fatal("byte voting decided across heterogeneous encodings")
	}
	// Two more with one matching order each: big-endian copies reach f+1.
	stream.Deliver(buildReplyEnv(t, servers, 2, reqID, cdr.BigEndian, 42.5))
	if !decided {
		t.Fatal("byte voting should decide once two identical encodings exist")
	}
}

func TestStreamInexactVoting(t *testing.T) {
	key := testKey(5)
	client, servers := serverEndpoints(t, key)
	stream, err := NewStream(client, StreamConfig{Registry: testRegistry(), Epsilon: 0.01, VerifySig: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	decided := false
	stream.OnMessage = func(*MessageVal, *vote.Decision) { decided = true }
	reqID := client.NextRequestID()
	stream.ExpectReply(reqID, "IDL:Calc:1.0", "add")
	stream.Deliver(buildReplyEnv(t, servers, 0, reqID, cdr.BigEndian, 42.500))
	stream.Deliver(buildReplyEnv(t, servers, 1, reqID, cdr.LittleEndian, 42.505))
	if !decided {
		t.Fatal("inexact voting should accept jittered values within ε")
	}
}

func TestStreamAutoAdvanceForInboundRequests(t *testing.T) {
	// Server side: a singleton client sends requests with increasing ids;
	// the stream votes (trivially, n=1) and advances automatically.
	key := testKey(5)
	cInfo := PeerInfo{Name: "client", N: 1, F: 0}
	sInfo := PeerInfo{Name: "bank", N: 4, F: 1}
	clientConn, err := NewConnection(3, cInfo, 0, sInfo, key)
	if err != nil {
		t.Fatal(err)
	}
	serverConn, err := NewConnection(3, sInfo, 0, cInfo, key)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewStream(serverConn, StreamConfig{
		Registry: testRegistry(), AutoAdvance: true, VerifySig: testVerify,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	stream.OnMessage = func(val *MessageVal, dec *vote.Decision) {
		ops = append(ops, val.Operation)
	}
	reg := testRegistry()
	addOp, _ := reg.Lookup("IDL:Calc:1.0", "add")
	for i := 0; i < 3; i++ {
		id := clientConn.NextRequestID()
		body, _ := cdr.Marshal(addOp.ParamsType(), []cdr.Value{1.0, 2.0}, cdr.LittleEndian)
		req := giop.EncodeRequest(cdr.LittleEndian, &giop.Request{
			RequestID: id, ObjectKey: "calc", Interface: "IDL:Calc:1.0",
			Operation: "add", ResponseExpected: true, Body: body,
		})
		if err := stream.Deliver(sealEnvs(t, clientConn, id, false, req, testSign, 0)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if len(ops) != 3 {
		t.Fatalf("delivered %d requests, want 3", len(ops))
	}
}

func TestStreamRejectsUnknownOperation(t *testing.T) {
	key := testKey(5)
	client, servers := serverEndpoints(t, key)
	stream, _ := NewStream(client, StreamConfig{Registry: testRegistry(), VerifySig: testVerify})
	reqID := client.NextRequestID()
	stream.ExpectReply(reqID, "IDL:Calc:1.0", "no-such-op")
	env := buildReplyEnv(t, servers, 0, reqID, cdr.BigEndian, 1.0)
	if err := stream.Deliver(env); err == nil || !strings.Contains(err.Error(), "no operation") {
		t.Fatalf("unknown op: err = %v", err)
	}
	if stream.Dropped != 1 {
		t.Fatalf("dropped = %d", stream.Dropped)
	}
}

func TestPeerInfoValidate(t *testing.T) {
	cases := []struct {
		p  PeerInfo
		ok bool
	}{
		{PeerInfo{Name: "x", N: 1, F: 0}, true},
		{PeerInfo{Name: "x", N: 4, F: 1}, true},
		{PeerInfo{Name: "", N: 1, F: 0}, false},
		{PeerInfo{Name: "x", N: 3, F: 1}, false},
		{PeerInfo{Name: "x", N: 0, F: 0}, false},
	}
	for i, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: %+v: err=%v", i, c.p, err)
		}
	}
}

// channelIV reads a seckey channel's IV, which seckey keeps unexported:
// nothing outside it needs the value but this test.
func channelIV(ch *seckey.Channel) string {
	v := reflect.ValueOf(ch).Elem().FieldByName("iv")
	iv := make([]byte, v.Len())
	for i := range iv {
		iv[i] = byte(v.Index(i).Uint())
	}
	return string(iv)
}

// TestConnectionChannelsNeverShareIV: every sending flow of a connection —
// each member of either domain, in each key era — seals under its own IV,
// even where the communication key is the same, and each receiving channel
// has the IV of the one flow it opens. A shared IV under one key would repeat
// GCM nonces between flows.
func TestConnectionChannelsNeverShareIV(t *testing.T) {
	cInfo := PeerInfo{Name: "client", N: 1}
	sInfo := PeerInfo{Name: "bank", N: 4, F: 1}
	k := testKey(9)
	conns := make(map[string]*Connection) // by domain and member
	for m := 0; m < sInfo.N; m++ {
		c, err := NewConnection(7, sInfo, m, cInfo, k)
		if err != nil {
			t.Fatal(err)
		}
		conns[fmt.Sprintf("bank/%d", m)] = c
	}
	client, err := NewConnection(7, cInfo, 0, sInfo, k)
	if err != nil {
		t.Fatal(err)
	}
	conns["client/0"] = client

	owner := make(map[string]string) // IV → the flow that seals under it
	for era := uint64(0); era < 3; era++ {
		if era > 0 {
			for _, c := range conns {
				c.Rekey(era, k, nil) // same key: only the context differs
			}
		}
		for name, c := range conns {
			flow := fmt.Sprintf("%s era %d", name, era)
			iv := channelIV(c.send)
			if prev, dup := owner[iv]; dup {
				t.Fatalf("%s seals under the IV of %s", flow, prev)
			}
			owner[iv] = flow
		}
		for name, c := range conns {
			for m, ch := range c.recv {
				want := fmt.Sprintf("%s/%d era %d", c.Peer.Name, m, era)
				if got := owner[channelIV(ch)]; got != want {
					t.Errorf("%s era %d: receiver for %s has the IV of %q", name, era, want, got)
				}
			}
		}
	}
}
