package replica

import (
	"crypto/sha256"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/obs"
	"itdos/internal/pbft"
	"itdos/internal/seckey"
	"itdos/internal/smiop"
)

// batchFixture is one system with an open alice→kv connection, and the
// means to sign kv replies to request reqID as any element, alone or inside
// a batch of fillers.
type batchFixture struct {
	t      *testing.T
	sys    *System
	connID uint64
}

const batchReqID = 1000

func newBatchFixture(t *testing.T) *batchFixture {
	ts := newKVSystem(t, 31, nil)
	if _, err := ts.sys.Client("alice").CallAndRun(kvRef, "add", []cdr.Value{1.0, 2.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	connID, ok := ts.sys.Client("alice").ConnTo("kv")
	if !ok {
		t.Fatal("no connection to kv")
	}
	return &batchFixture{t: t, sys: ts.sys, connID: connID}
}

// reply is the GIOP reply of add deciding sum.
func (f *batchFixture) reply(sum float64) []byte {
	op, err := f.sys.registry.Lookup(kvIface, "add")
	if err != nil {
		f.t.Fatal(err)
	}
	body, err := cdr.Marshal(op.ResultsType(), []cdr.Value{sum}, cdr.BigEndian)
	if err != nil {
		f.t.Fatal(err)
	}
	return giop.EncodeReply(cdr.BigEndian, &giop.Reply{RequestID: batchReqID, Body: body})
}

// leaf is the digest member's reply to reqID is signed over: its data
// context's DataSigningDigest.
func (f *batchFixture) leaf(member int, reqID uint64, giopBytes []byte) []byte {
	d := smiop.DataSigningDigest(f.connID, reqID, "kv", uint32(member), true, giopBytes)
	return d[:]
}

func (f *batchFixture) signer(member int) func([]byte) []byte {
	priv := f.sys.privs[ElementIdentity("kv", member)]
	return func(digest []byte) []byte { return pbft.SignDigest(priv, pbft.Digest(digest)) }
}

// batched returns the Sig of giopBytes as leaf at of count replies signed
// by signer as member's batch; the other leaves are replies to other
// requests, salted so that different salts give different roots.
func (f *batchFixture) batched(member, at, count, salt int, giopBytes []byte, signer func([]byte) []byte) []byte {
	leaves := make([][32]byte, count)
	for i := range leaves {
		leaf := f.leaf(member, uint64(batchReqID+100*salt+i+1), giopBytes)
		if i == at {
			leaf = f.leaf(member, batchReqID, giopBytes)
		}
		leaves[i] = [32]byte(leaf)
	}
	sigs, err := smiop.SignReplyBatch(leaves, signer)
	if err != nil {
		f.t.Fatal(err)
	}
	return sigs[at]
}

// streamOutcome delivers member's copy with sig to a fresh caller stream
// wired as installConn wires one, and reports how its check ended.
func (f *batchFixture) streamOutcome(member int, giopBytes, sig []byte) string {
	key, err := seckey.KeyFromBytes(make([]byte, 32))
	if err != nil {
		f.t.Fatal(err)
	}
	alice := smiop.PeerInfo{Name: "alice", N: 1}
	kv := smiop.PeerInfo{Name: "kv", N: 4, F: 1}
	recv, err := smiop.NewConnection(f.connID, alice, 0, kv, key)
	if err != nil {
		f.t.Fatal(err)
	}
	send, err := smiop.NewConnection(f.connID, kv, member, alice, key)
	if err != nil {
		f.t.Fatal(err)
	}
	reg := obs.NewRegistry()
	stream, err := smiop.NewStream(recv, smiop.StreamConfig{
		Registry: f.sys.registry, VerifySig: f.sys.verifyData, SignerOf: f.sys.dataSigner, Metrics: reg,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	stream.CheckSig = f.sys.checkData
	if err := stream.ExpectReply(batchReqID, kvIface, "add"); err != nil {
		f.t.Fatal(err)
	}
	frames, err := send.SealSignedDataWire(batchReqID, true, giopBytes, sig, 0)
	if err != nil {
		f.t.Fatal(err)
	}
	defer smiop.ReleaseFrames(frames)
	for _, fr := range frames {
		env, err := smiop.DecodeEnvelope(fr.B)
		if err != nil {
			f.t.Fatal(err)
		}
		_ = stream.Deliver(env)
	}
	for _, outcome := range []string{"verified", "memo", "rejected"} {
		if reg.Counter("smiop_sig_checks_total", "outcome="+outcome, "stream=initiator").Value() == 1 {
			return outcome
		}
	}
	return "none"
}

// proofRejected files a change_request accusing kv/r0 with member 1's copy
// signed by sig, next to a plain-signed accused copy and member 2's plain
// copy, and reports whether the Group Manager turned it down.
func (f *batchFixture) proofRejected(sig []byte) bool {
	good, bad := f.reply(3), f.reply(666)
	cr := &smiop.ChangeRequest{
		TargetDomain: "kv", Accused: 0, ConnID: f.connID, RequestID: batchReqID, Reply: true,
		Interface: kvIface, Operation: "add",
		Proof: []smiop.ProofItem{
			{Member: 0, GIOP: bad, Sig: f.signer(0)(f.leaf(0, batchReqID, bad))},
			{Member: 1, GIOP: good, Sig: sig},
			{Member: 2, GIOP: good, Sig: f.signer(2)(f.leaf(2, batchReqID, good))},
		},
	}
	env := &smiop.Envelope{Kind: smiop.KindChangeRequest, SrcDomain: "alice", Payload: cr.Encode()}
	mgr := f.sys.GMManagers[0]
	before := mgr.RejectedProofs
	mgr.HandleDelivery("alice", env.Encode())
	if expelled := mgr.IsExpelled("kv", 0); expelled == (mgr.RejectedProofs != before) {
		f.t.Fatalf("proof neither rejected nor acted on (rejected %d→%d, expelled %v)",
			before, mgr.RejectedProofs, expelled)
	}
	return mgr.RejectedProofs != before
}

// TestDigestLengthRefused: the signer and the verifier take only a 32-byte
// digest. Any other length signs nothing and verifies nothing, plain or
// batched, instead of being converted.
func TestDigestLengthRefused(t *testing.T) {
	f := newBatchFixture(t)
	good := f.reply(3)
	leaf := f.leaf(1, batchReqID, good)
	plain, batched := f.signer(1)(leaf), f.batched(1, 2, 5, 0, good, f.signer(1))
	el := f.sys.Domain("kv").Elements[1]
	for _, n := range []int{0, 31, 33, 64} {
		d := make([]byte, n)
		copy(d, leaf)
		if sig := el.sign(d); sig != nil {
			t.Errorf("%d-byte digest signed", n)
		}
		for name, sig := range map[string][]byte{"plain": plain, "batched": batched} {
			if got := f.sys.checkIdentity("kv/r1", d, sig); got != smiop.SigRejected {
				t.Errorf("%d-byte digest, %s signature: %v, want rejected", n, name, got)
			}
		}
	}
	if f.sys.checkIdentity("kv/r1", leaf, plain) != smiop.SigVerified {
		t.Fatal("the 32-byte digest's own signature refused")
	}
}

// TestBatchedReplyAdversarial: the caller's stream and the Group Manager's
// proof validation accept member 1's batched reply as it was signed, and
// refuse every bent variant of it — including one whose root the memo holds
// under a different signature, which only a memo keyed on all 64 signature
// octets refuses.
func TestBatchedReplyAdversarial(t *testing.T) {
	f := newBatchFixture(t)
	good := f.reply(3)
	const at, count = 2, 5 // leaf 2 of 5: a path of three siblings
	genuine := func() []byte { return f.batched(1, at, count, 0, good, f.signer(1)) }
	siblings := func(sig []byte) []byte { return sig[smiop.SignatureSize+2:] }
	cases := []struct {
		name string
		sig  func() []byte
		// memo warms the memo with the genuine copy first.
		memo bool
	}{
		{"wrong index", func() []byte {
			sig := genuine()
			sig[smiop.SignatureSize] = 3 // leaf 3 of 5 also has three siblings
			return sig
		}, false},
		{"swapped sibling", func() []byte {
			sig := genuine()
			s := siblings(sig)
			var first [32]byte
			copy(first[:], s[:32])
			copy(s[:32], s[32:64])
			copy(s[32:64], first[:])
			return sig
		}, false},
		{"path from another root", func() []byte {
			sig, other := genuine(), f.batched(1, at, count, 1, good, f.signer(1))
			return append(sig[:smiop.SignatureSize:smiop.SignatureSize], other[smiop.SignatureSize:]...)
		}, false},
		{"root signed by another member", func() []byte {
			return f.batched(1, at, count, 0, good, f.signer(2))
		}, false},
		{"truncated path", func() []byte {
			sig := genuine()
			return sig[:len(sig)-1]
		}, false},
		{"count 17", func() []byte {
			sig := genuine()
			sig[smiop.SignatureSize+1] = smiop.MaxReplyLeaves + 1
			return sig
		}, false},
		{"plain leaf signature dressed as batched", func() []byte {
			sig := genuine()
			copy(sig, f.signer(1)(f.leaf(1, batchReqID, good)))
			return sig
		}, false},
		{"root memoised under a different signature", func() []byte {
			sig := genuine()
			other := sha256.Sum256([]byte("some other statement"))
			copy(sig, f.signer(1)(other[:]))
			return sig
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.memo && !f.sys.verifyIdentity("kv/r1", f.leaf(1, batchReqID, good), genuine()) {
				t.Fatal("genuine copy refused")
			}
			if got := f.streamOutcome(1, good, tc.sig()); got != "rejected" {
				t.Errorf("caller stream: %s, want rejected", got)
			}
			if !f.proofRejected(tc.sig()) {
				t.Error("Group Manager accepted the proof")
			}
		})
	}
	// The genuine copy: verified once, then answered by the memo, and its
	// proof expels the accused.
	clear(f.sys.memo)
	if got := f.streamOutcome(1, good, genuine()); got != "verified" {
		t.Errorf("genuine copy on the caller stream: %s, want verified", got)
	}
	if got := f.streamOutcome(1, good, genuine()); got != "memo" {
		t.Errorf("genuine copy again: %s, want memo", got)
	}
	if f.proofRejected(genuine()) {
		t.Error("Group Manager refused the genuine proof")
	}
}

// TestLoneReplyKeepsPlainSignature: a reply an element produces alone in an
// upcall carries a plain signature, the bytes of an unbatched reply.
func TestLoneReplyKeepsPlainSignature(t *testing.T) {
	ts := newKVSystem(t, 32, nil)
	if _, err := ts.sys.Client("alice").CallAndRun(kvRef, "add", []cdr.Value{1.0, 2.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	h := ts.metrics.Histogram("smiop_reply_leaves", nil)
	if h.Count() != 4 || h.Sum() != 4 {
		t.Errorf("%d reply signatures over %v replies, want 4 over 4", h.Count(), h.Sum())
	}
}
