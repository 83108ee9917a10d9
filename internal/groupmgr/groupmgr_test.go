package groupmgr

import (
	"crypto/ed25519"
	"fmt"
	"strings"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/dprf"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/pbft"
	"itdos/internal/smiop"
)

type sentMsg struct {
	domain  string
	direct  bool
	payload []byte
}

type stubTransport struct {
	sent []sentMsg
}

func (t *stubTransport) SendOrdered(domain string, payload []byte) {
	t.sent = append(t.sent, sentMsg{domain: domain, payload: payload})
}

func (t *stubTransport) SendDirect(client string, payload []byte) {
	t.sent = append(t.sent, sentMsg{domain: client, direct: true, payload: payload})
}

type gmHarness struct {
	mgrs   []*Manager
	trans  []*stubTransport
	privs  map[string]ed25519.PrivateKey
	pubs   map[string]ed25519.PublicKey
	params dprf.Params
}

func calcRegistry() *idl.Registry {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface("IDL:Calc:1.0").
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}))
	return reg
}

func newGMHarness(t *testing.T) *gmHarness {
	t.Helper()
	h := &gmHarness{
		privs:  make(map[string]ed25519.PrivateKey),
		pubs:   make(map[string]ed25519.PublicKey),
		params: dprf.Params{N: 4, F: 1},
	}
	for _, id := range []string{"bank/r0", "bank/r1", "bank/r2", "bank/r3", "alice", "web/r0", "web/r1", "web/r2", "web/r3"} {
		pub, priv, err := ed25519.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		h.privs[id] = priv
		h.pubs[id] = pub
	}
	parties, err := dprf.Setup(h.params, []byte("master"))
	if err != nil {
		t.Fatal(err)
	}
	domains := map[string]smiop.PeerInfo{
		"bank":  {Name: "bank", N: 4, F: 1},
		"web":   {Name: "web", N: 4, F: 1},
		"alice": {Name: "alice", N: 1, F: 0},
	}
	for j := 0; j < 4; j++ {
		tr := &stubTransport{}
		mgr, err := New(Config{
			Index:      j,
			Params:     h.params,
			Party:      parties[j],
			CommonSeed: []byte("common"),
			Domains:    domains,
			Registry:   calcRegistry(),
			Transport:  tr,
			SealShare: func(recipient string, connID, era uint64, share []byte) ([]byte, error) {
				return append([]byte(recipient+"|"), share...), nil
			},
			Verify: func(identity string, digest, sig []byte) bool {
				pub, ok := h.pubs[identity]
				return ok && len(digest) == len(pbft.Digest{}) && pbft.VerifyDigest(pub, pbft.Digest(digest), sig)
			},
			Controller: "itc",
			MemberOf: func(identity string) (string, int, bool) {
				if identity == "alice" {
					return "alice", 0, true
				}
				if identity == "itc" {
					return "itc", 0, true
				}
				var d string
				var m int
				if n, _ := fmt.Sscanf(identity, "%s", &d); n == 1 && strings.Contains(identity, "/r") {
					parts := strings.SplitN(identity, "/r", 2)
					fmt.Sscanf(parts[1], "%d", &m)
					return parts[0], m, true
				}
				return "", 0, false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.mgrs = append(h.mgrs, mgr)
		h.trans = append(h.trans, tr)
	}
	return h
}

func openEnvelope(initiator, target, srcDomain string, member uint32) []byte {
	env := &smiop.Envelope{
		Kind:      smiop.KindOpenRequest,
		SrcDomain: srcDomain,
		SrcMember: member,
		Payload:   (&smiop.OpenRequest{Initiator: initiator, Target: target}).Encode(),
	}
	return env.Encode()
}

func TestOpenRequestDistributesSharesBothSides(t *testing.T) {
	h := newGMHarness(t)
	for _, mgr := range h.mgrs {
		mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
	}
	for j, tr := range h.trans {
		if len(tr.sent) != 2 {
			t.Fatalf("gm %d sent %d bundles, want 2", j, len(tr.sent))
		}
		var gotDirect, gotOrdered bool
		for _, s := range tr.sent {
			env, err := smiop.DecodeEnvelope(s.payload)
			if err != nil || env.Kind != smiop.KindKeyShare {
				t.Fatalf("gm %d sent non key-share", j)
			}
			b, err := smiop.DecodeShareBundle(env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if b.ConnID != 1 || b.Era != 0 || int(b.GMMember) != j {
				t.Fatalf("bundle meta: %+v", b)
			}
			if s.direct {
				gotDirect = true
				if s.domain != "alice" || len(b.Shares) != 1 {
					t.Fatalf("client bundle: %+v to %s", b, s.domain)
				}
			} else {
				gotOrdered = true
				if s.domain != "bank" || len(b.Shares) != 4 {
					t.Fatalf("domain bundle: %+v to %s", b, s.domain)
				}
			}
		}
		if !gotDirect || !gotOrdered {
			t.Fatalf("gm %d: direct=%v ordered=%v", j, gotDirect, gotOrdered)
		}
	}
}

func TestDuplicateOpenReusesConnection(t *testing.T) {
	h := newGMHarness(t)
	mgr := h.mgrs[0]
	mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
	mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
	if mgr.Connections() != 1 {
		t.Fatalf("connections = %d, want 1 (reuse)", mgr.Connections())
	}
	// Re-announcement still resends shares (retransmission).
	if len(h.trans[0].sent) != 4 {
		t.Fatalf("sent %d bundles, want 4", len(h.trans[0].sent))
	}
}

func TestOpenRequestValidation(t *testing.T) {
	h := newGMHarness(t)
	mgr := h.mgrs[0]
	cases := []struct {
		name string
		data []byte
		from string
	}{
		{"spoofed initiator", openEnvelope("bank", "web", "alice", 0), "alice"},
		{"unknown target", openEnvelope("alice", "nsa", "alice", 0), "alice"},
		{"self connection", openEnvelope("bank", "bank", "bank", 0), "bank/r0"},
		{"unknown sender", openEnvelope("mallory", "bank", "mallory", 0), "mallory"},
		{"garbage", []byte{1, 2, 3}, "alice"},
	}
	for _, c := range cases {
		mgr.HandleDelivery(c.from, c.data)
		if mgr.Connections() != 0 {
			t.Fatalf("%s: connection created", c.name)
		}
	}
}

func TestElementsAgreeOnConnIDsAndKeys(t *testing.T) {
	h := newGMHarness(t)
	for _, mgr := range h.mgrs {
		mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
		mgr.HandleDelivery("web/r0", openEnvelope("web", "bank", "web", 0))
	}
	// All elements allocated the same ids and drew the same common inputs.
	for j := 1; j < 4; j++ {
		if h.mgrs[j].Connections() != 2 {
			t.Fatalf("gm %d has %d connections", j, h.mgrs[j].Connections())
		}
		for id, rec := range h.mgrs[j].connsByID {
			ref := h.mgrs[0].connsByID[id]
			if ref == nil || ref.Initiator != rec.Initiator || ref.Target != rec.Target {
				t.Fatalf("gm %d conn %d mismatch", j, id)
			}
			if string(ref.X) != string(rec.X) {
				t.Fatalf("gm %d conn %d drew a different common input", j, id)
			}
		}
	}
}

// copyOf is what one bank member sent in a proof: the add() result (or its
// arguments, in a request proof), or an exception.
type copyOf struct {
	member    uint32
	val       float64
	exception string
	order     cdr.ByteOrder
}

// signedItems encodes and signs each copy for request reqID on connection
// connID, as replies or as add(val, 1) requests.
func (h *gmHarness) signedItems(t *testing.T, connID, reqID uint64, reply bool, copies ...copyOf) []smiop.ProofItem {
	t.Helper()
	op, err := calcRegistry().Lookup("IDL:Calc:1.0", "add")
	if err != nil {
		t.Fatal(err)
	}
	var items []smiop.ProofItem
	for _, c := range copies {
		var giopBytes []byte
		switch {
		case !reply:
			body, err := cdr.Marshal(op.ParamsType(), []cdr.Value{c.val, 1.0}, c.order)
			if err != nil {
				t.Fatal(err)
			}
			giopBytes = giop.EncodeRequest(c.order, &giop.Request{RequestID: reqID, ObjectKey: "calc",
				Interface: "IDL:Calc:1.0", Operation: "add", ResponseExpected: true, Body: body})
		case c.exception != "":
			giopBytes = giop.EncodeReply(c.order, &giop.Reply{RequestID: reqID,
				Status: giop.StatusUserException, Exception: c.exception})
		default:
			body, err := cdr.Marshal(op.ResultsType(), []cdr.Value{c.val}, c.order)
			if err != nil {
				t.Fatal(err)
			}
			giopBytes = giop.EncodeReply(c.order, &giop.Reply{RequestID: reqID, Body: body})
		}
		d := smiop.DataSigningDigest(connID, reqID, "bank", c.member, reply, giopBytes)
		sig := pbft.SignDigest(h.privs[fmt.Sprintf("bank/r%d", c.member)], d)
		items = append(items, smiop.ProofItem{Member: c.member, GIOP: giopBytes, Sig: sig})
	}
	return items
}

// buildProof creates a valid signed-message proof for a faulty reply.
func (h *gmHarness) buildProof(t *testing.T, connID, reqID uint64, accused uint32,
	goodVal, badVal float64) []smiop.ProofItem {
	t.Helper()
	return h.signedItems(t, connID, reqID, true,
		copyOf{member: accused, val: badVal, order: cdr.BigEndian},
		copyOf{member: (accused + 1) % 4, val: goodVal, order: cdr.BigEndian},
		copyOf{member: (accused + 2) % 4, val: goodVal, order: cdr.LittleEndian}, // heterogeneous proof
	)
}

func changeEnvelope(cr *smiop.ChangeRequest, srcDomain string, member uint32) []byte {
	env := &smiop.Envelope{
		Kind:      smiop.KindChangeRequest,
		SrcDomain: srcDomain,
		SrcMember: member,
		Payload:   cr.Encode(),
	}
	return env.Encode()
}

func TestValidProofExpelsAndRekeys(t *testing.T) {
	h := newGMHarness(t)
	mgr := h.mgrs[0]
	mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
	h.trans[0].sent = nil

	cr := &smiop.ChangeRequest{
		TargetDomain: "bank", Accused: 2, ConnID: 1, RequestID: 9, Reply: true,
		Interface: "IDL:Calc:1.0", Operation: "add",
		Proof: h.buildProof(t, 1, 9, 2, 42.0, 666.0),
	}
	mgr.HandleDelivery("alice", changeEnvelope(cr, "alice", 0))
	if !mgr.IsExpelled("bank", 2) {
		t.Fatal("valid proof did not expel")
	}
	if len(mgr.Expulsions) != 1 || !mgr.Expulsions[0].ByProof {
		t.Fatalf("expulsions = %+v", mgr.Expulsions)
	}
	// Rekey bundles went to both sides with era 1, no share for member 2.
	if len(h.trans[0].sent) != 2 {
		t.Fatalf("rekey sent %d bundles", len(h.trans[0].sent))
	}
	for _, s := range h.trans[0].sent {
		env, _ := smiop.DecodeEnvelope(s.payload)
		b, err := smiop.DecodeShareBundle(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if b.Era != 1 {
			t.Fatalf("era = %d", b.Era)
		}
		if s.domain == "bank" {
			if len(b.Shares[2]) != 0 {
				t.Fatal("expelled member received a share")
			}
			if len(b.Shares[0]) == 0 || len(b.Shares[1]) == 0 || len(b.Shares[3]) == 0 {
				t.Fatal("correct member missing a share")
			}
			if len(b.ExpelledTarget) != 1 || b.ExpelledTarget[0] != 2 {
				t.Fatalf("expelled list = %v", b.ExpelledTarget)
			}
		}
	}
}

func TestProofRejections(t *testing.T) {
	h := newGMHarness(t)
	mgr := h.mgrs[0]
	mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))

	good := func() *smiop.ChangeRequest {
		return &smiop.ChangeRequest{
			TargetDomain: "bank", Accused: 2, ConnID: 1, RequestID: 9, Reply: true,
			Interface: "IDL:Calc:1.0", Operation: "add",
			Proof: h.buildProof(t, 1, 9, 2, 42.0, 666.0),
		}
	}
	// validated: the request reaches proof validation, so its rejection is
	// counted; an unknown connection is turned away before that.
	cases := []struct {
		name      string
		validated bool
		mutate    func(*smiop.ChangeRequest)
	}{
		{"no proof", true, func(cr *smiop.ChangeRequest) { cr.Proof = nil }},
		{"too few items", true, func(cr *smiop.ChangeRequest) { cr.Proof = cr.Proof[:2] }},
		{"tampered value", true, func(cr *smiop.ChangeRequest) {
			cr.Proof[1].GIOP[len(cr.Proof[1].GIOP)-1] ^= 0xFF
		}},
		{"forged signature", true, func(cr *smiop.ChangeRequest) {
			cr.Proof[0].Sig[0] ^= 0xFF
		}},
		{"accused actually agrees", true, func(cr *smiop.ChangeRequest) {
			cr.Proof = h.buildProof(t, 1, 9, 2, 42.0, 42.0)
		}},
		{"accused message missing", true, func(cr *smiop.ChangeRequest) {
			cr.Proof = cr.Proof[1:]
		}},
		{"wrong request id", true, func(cr *smiop.ChangeRequest) { cr.RequestID = 10 }},
		{"unknown connection", false, func(cr *smiop.ChangeRequest) { cr.ConnID = 99 }},
		{"unknown op", true, func(cr *smiop.ChangeRequest) { cr.Operation = "mul" }},
		{"duplicate member", true, func(cr *smiop.ChangeRequest) {
			cr.Proof[1] = cr.Proof[0]
		}},
	}
	for _, c := range cases {
		cr := good()
		c.mutate(cr)
		before := mgr.RejectedProofs
		mgr.HandleDelivery("alice", changeEnvelope(cr, "alice", 0))
		if mgr.IsExpelled("bank", 2) {
			t.Fatalf("%s: expelled on invalid proof", c.name)
		}
		want := before
		if c.validated {
			want++
		}
		if mgr.RejectedProofs != want {
			t.Errorf("%s: RejectedProofs %d -> %d, want %d", c.name, before, mgr.RejectedProofs, want)
		}
	}
	// The genuine proof still works afterwards.
	mgr.HandleDelivery("alice", changeEnvelope(good(), "alice", 0))
	if !mgr.IsExpelled("bank", 2) {
		t.Fatal("valid proof rejected after invalid attempts")
	}
}

// TestProofRevote: the Group Manager re-votes a proof by the rule the
// accuser's stream votes with — the same unmarshaller, the same comparator at
// the configured ε, f+1 matching copies decide — and expels only when the
// accused's value does not match the decision.
func TestProofRevote(t *testing.T) {
	be, le := cdr.BigEndian, cdr.LittleEndian
	cases := []struct {
		name    string
		epsilon float64
		reply   bool
		copies  []copyOf // the accused, member 2, first unless noted
		expel   bool
	}{
		{"ε-tolerant majority, accused beyond ε", 1e-3, true, []copyOf{
			{member: 2, val: 42.002, order: be}, {member: 0, val: 42.0004, order: le}, {member: 3, val: 41.9997, order: be},
		}, true},
		{"ε-tolerant majority, accused within ε", 1e-3, true, []copyOf{
			{member: 2, val: 42.0009, order: be}, {member: 0, val: 42.0004, order: le}, {member: 3, val: 41.9997, order: be},
		}, false},
		{"exact vote, jittered majority scatters", 0, true, []copyOf{
			{member: 2, val: 666, order: be}, {member: 0, val: 42.0004, order: le}, {member: 3, val: 41.9997, order: be},
		}, false},
		{"exception reply against values", 0, true, []copyOf{
			{member: 2, exception: "IDL:Overflow:1.0", order: be}, {member: 0, val: 42, order: le}, {member: 3, val: 42, order: be},
		}, true},
		{"value against exception replies", 0, true, []copyOf{
			{member: 2, val: 42, order: be}, {member: 0, exception: "IDL:Overflow:1.0", order: le},
			{member: 3, exception: "IDL:Overflow:1.0", order: be},
		}, true},
		{"same exception everywhere", 0, true, []copyOf{
			{member: 2, exception: "IDL:Overflow:1.0", order: be}, {member: 0, exception: "IDL:Overflow:1.0", order: le},
			{member: 3, exception: "IDL:Overflow:1.0", order: be},
		}, false},
		{"request proof, accused's arguments differ", 0, false, []copyOf{
			{member: 2, val: 7, order: be}, {member: 0, val: 6, order: le}, {member: 3, val: 6, order: be},
		}, true},
		{"request proof, arguments agree", 0, false, []copyOf{
			{member: 2, val: 6, order: be}, {member: 0, val: 6, order: le}, {member: 3, val: 6, order: be},
		}, false},
		// Non-transitive ε: 42.000 ≈ 42.009 ≈ 42.018, but 42.000 !≈ 42.018.
		// The class representative decides what matches.
		{"ε chain, accused is the representative", 0.01, true, []copyOf{
			{member: 2, val: 42.000, order: be}, {member: 0, val: 42.009, order: le}, {member: 3, val: 42.018, order: be},
		}, false},
		{"ε chain, accused beyond the representative", 0.01, true, []copyOf{
			{member: 0, val: 42.000, order: le}, {member: 3, val: 42.009, order: be}, {member: 2, val: 42.018, order: be},
		}, true},
		// Two disjoint classes of f+1 signed copies (more than f liars, or ε
		// non-transitivity): like the accuser's vote, the class that reaches
		// f+1 first decides, and here that is the accused's.
		{"two f+1 classes, the accused's first", 0, true, []copyOf{
			{member: 2, val: 42, order: be}, {member: 0, val: 42, order: le},
			{member: 1, val: 44, order: be}, {member: 3, val: 44, order: le},
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newGMHarness(t)
			mgr := h.mgrs[0]
			mgr.cfg.Epsilon = c.epsilon
			mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
			cr := &smiop.ChangeRequest{
				TargetDomain: "bank", Accused: 2, ConnID: 1, RequestID: 9, Reply: c.reply,
				Interface: "IDL:Calc:1.0", Operation: "add",
				Proof: h.signedItems(t, 1, 9, c.reply, c.copies...),
			}
			mgr.HandleDelivery("alice", changeEnvelope(cr, "alice", 0))
			if got := mgr.IsExpelled("bank", 2); got != c.expel {
				t.Fatalf("expelled = %v, want %v", got, c.expel)
			}
			if want := map[bool]int{true: 0, false: 1}[c.expel]; mgr.RejectedProofs != want {
				t.Errorf("RejectedProofs = %d, want %d", mgr.RejectedProofs, want)
			}
		})
	}
}

func TestDomainAccusationNeedsFPlus1Members(t *testing.T) {
	h := newGMHarness(t)
	mgr := h.mgrs[0]
	mgr.HandleDelivery("web/r0", openEnvelope("web", "bank", "web", 0))

	cr := &smiop.ChangeRequest{
		TargetDomain: "bank", Accused: 1, ConnID: 1, RequestID: 3, Reply: true,
		Interface: "IDL:Calc:1.0", Operation: "add",
	}
	// One accuser is not enough (f_web = 1 → need 2).
	mgr.HandleDelivery("web/r0", changeEnvelope(cr, "web", 0))
	if mgr.IsExpelled("bank", 1) {
		t.Fatal("expelled after a single domain accusation")
	}
	// Same member repeating does not count twice.
	mgr.HandleDelivery("web/r0", changeEnvelope(cr, "web", 0))
	if mgr.IsExpelled("bank", 1) {
		t.Fatal("duplicate accusation counted twice")
	}
	mgr.HandleDelivery("web/r3", changeEnvelope(cr, "web", 3))
	if !mgr.IsExpelled("bank", 1) {
		t.Fatal("f+1 distinct accusers did not expel")
	}
	if len(mgr.Expulsions) != 1 || mgr.Expulsions[0].ByProof {
		t.Fatalf("expulsions = %+v", mgr.Expulsions)
	}
}

func TestChangeRequestFromUninvolvedDomainIgnored(t *testing.T) {
	h := newGMHarness(t)
	mgr := h.mgrs[0]
	mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
	cr := &smiop.ChangeRequest{
		TargetDomain: "bank", Accused: 1, ConnID: 1, RequestID: 3, Reply: true,
		Interface: "IDL:Calc:1.0", Operation: "add",
	}
	// web is not on connection 1.
	mgr.HandleDelivery("web/r0", changeEnvelope(cr, "web", 0))
	mgr.HandleDelivery("web/r1", changeEnvelope(cr, "web", 1))
	if mgr.IsExpelled("bank", 1) {
		t.Fatal("uninvolved domain expelled a member")
	}
}

func rekeyEnvelope(domain string) []byte {
	env := &smiop.Envelope{
		Kind:      smiop.KindRekeyRequest,
		SrcDomain: "itc",
		Payload:   (&smiop.RekeyRequest{Domain: domain}).Encode(),
	}
	return env.Encode()
}

// TestRekeyRacingExpulsionSameEpoch covers a controller rekey_request
// submitted concurrently with an expulsion change_request for the same
// domain in the same key epoch. The Group Manager's total order serialises
// the race one way or the other; under either serialisation every element
// must land on the same coherent outcome — identical expelled set, final
// era, and common input — and the expelled member must be keyed out of
// every era minted at or after its expulsion. The two interleavings run as
// parallel subtests so the race detector also sees concurrent Manager
// instances exercising the shared dprf/smiop code paths.
func TestRekeyRacingExpulsionSameEpoch(t *testing.T) {
	interleavings := []struct {
		name  string
		first string // which request the total order puts first
	}{
		{"rekey-then-expel", "rekey"},
		{"expel-then-rekey", "expel"},
	}
	for _, il := range interleavings {
		il := il
		t.Run(il.name, func(t *testing.T) {
			t.Parallel()
			h := newGMHarness(t)
			cr := &smiop.ChangeRequest{
				TargetDomain: "bank", Accused: 2, ConnID: 1, RequestID: 9, Reply: true,
				Interface: "IDL:Calc:1.0", Operation: "add",
				Proof: h.buildProof(t, 1, 9, 2, 42.0, 666.0),
			}
			msgs := [][2]interface{}{
				{"itc", rekeyEnvelope("bank")},
				{"alice", changeEnvelope(cr, "alice", 0)},
			}
			if il.first == "expel" {
				msgs[0], msgs[1] = msgs[1], msgs[0]
			}
			for _, mgr := range h.mgrs {
				mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
			}
			for j := range h.trans {
				h.trans[j].sent = nil
			}
			for _, m := range msgs {
				for _, mgr := range h.mgrs {
					mgr.HandleDelivery(m[0].(string), m[1].([]byte))
				}
			}
			// One coherent outcome on every element: member 2 expelled, the
			// connection advanced exactly two eras (one per request), and all
			// elements drew the same final common input.
			ref := h.mgrs[0].connsByID[1]
			if ref.Era != 2 {
				t.Fatalf("final era = %d, want 2", ref.Era)
			}
			for j, mgr := range h.mgrs {
				if !mgr.IsExpelled("bank", 2) {
					t.Fatalf("gm %d: member not expelled", j)
				}
				if len(mgr.Expulsions) != 1 {
					t.Fatalf("gm %d: expulsions = %+v", j, mgr.Expulsions)
				}
				rec := mgr.connsByID[1]
				if rec.Era != ref.Era || string(rec.X) != string(ref.X) {
					t.Fatalf("gm %d: era/common-input diverged (era %d vs %d)", j, rec.Era, ref.Era)
				}
			}
			// The expelled member holds no share for any era minted at or
			// after its expulsion; correct members hold every era's share.
			expelledFrom := uint64(1) // expel first: eras 1 and 2 exclude it
			if il.first == "rekey" {
				expelledFrom = 2 // rekey minted era 1 before the expulsion
			}
			for j, tr := range h.trans {
				for _, s := range tr.sent {
					if s.domain != "bank" {
						continue
					}
					env, _ := smiop.DecodeEnvelope(s.payload)
					b, err := smiop.DecodeShareBundle(env.Payload)
					if err != nil {
						t.Fatal(err)
					}
					if b.Era >= expelledFrom && len(b.Shares[2]) != 0 {
						t.Fatalf("gm %d: expelled member got a share for era %d", j, b.Era)
					}
					if b.Era < expelledFrom && len(b.Shares[2]) == 0 {
						t.Fatalf("gm %d: member keyed out before expulsion (era %d)", j, b.Era)
					}
					for _, m := range []int{0, 1, 3} {
						if len(b.Shares[m]) == 0 {
							t.Fatalf("gm %d: correct member %d missing era-%d share", j, m, b.Era)
						}
					}
				}
			}
		})
	}
}

func TestExpelledMemberAccusationsIgnoredAfterExpulsion(t *testing.T) {
	h := newGMHarness(t)
	mgr := h.mgrs[0]
	mgr.HandleDelivery("alice", openEnvelope("alice", "bank", "alice", 0))
	cr := &smiop.ChangeRequest{
		TargetDomain: "bank", Accused: 2, ConnID: 1, RequestID: 9, Reply: true,
		Interface: "IDL:Calc:1.0", Operation: "add",
		Proof: h.buildProof(t, 1, 9, 2, 42.0, 666.0),
	}
	mgr.HandleDelivery("alice", changeEnvelope(cr, "alice", 0))
	sent := len(h.trans[0].sent)
	// Second accusation of the same member: no double rekey.
	mgr.HandleDelivery("alice", changeEnvelope(cr, "alice", 0))
	if len(h.trans[0].sent) != sent {
		t.Fatal("duplicate expulsion triggered another rekey")
	}
	if len(mgr.Expulsions) != 1 {
		t.Fatalf("expulsions = %+v", mgr.Expulsions)
	}
}
