package pbft

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"itdos/internal/obs"
)

// tagged rebuilds req with its signature and tag vector passed through
// edit, uncached: its digests are those of the edited bytes.
func tagged(req *Request, editSig, editTags func([]byte) []byte) *Request {
	return &Request{ClientID: req.ClientID, ClientSeq: req.ClientSeq, Op: req.Op, ReplyTo: req.ReplyTo,
		Sig: editSig(bytes.Clone(req.Sig)), Tags: editTags(bytes.Clone(req.Tags))}
}

func keep(b []byte) []byte { return b }

// bend flips one bit of an authenticator's first octet.
func bend(b []byte) []byte {
	b[0] ^= 1
	return b
}

// TestRequestAdmissionTable: backup 1 of four receives the honest primary's
// pre-prepare of one client:x request in every hostile tag shape, each once
// under the client's good signature and once under a bent one. A request
// passes on its own valid tag without a signature check; any other vector —
// a bad slot, a tag transplanted from another request, client or slot, or a
// vector of the wrong length, which is not even tag-checked — falls back to
// the signature, so it is admitted exactly when the signature is good.
// Refused, the pre-prepare changes no state and sends nothing.
func TestRequestAdmissionTable(t *testing.T) {
	for _, kind := range authKinds {
		fx, _ := newPhaseFixtureAuth(t, kind.null)
		sign := func(req *Request) *Request {
			signIn(fx.auths[req.ClientID], req, fx.ids)
			return req
		}
		good := sign(&Request{ClientID: "client:x", ClientSeq: 1, Op: []byte("op"), ReplyTo: "client/x"})
		other := sign(&Request{ClientID: "client:x", ClientSeq: 2, Op: []byte("op"), ReplyTo: "client/x"})
		otherClient := sign(&Request{ClientID: "client:y", ClientSeq: 1, Op: []byte("op"), ReplyTo: "client/x"})
		rows := []struct {
			name     string
			crypto   bool // needs distinct keys to be told apart
			tags     func([]byte) []byte
			tagCheck bool // the replica's slot is checked at all
			byTag    bool // admitted on the tag, whatever the signature
		}{
			{"valid", false, keep, true, true},
			{"my slot flipped", false, func(v []byte) []byte {
				slot(v, 1)[MACSize-1] ^= 0x80
				return v
			}, true, false},
			{"my slot zeroed", false, func(v []byte) []byte {
				copy(slot(v, 1), make([]byte, MACSize))
				return v
			}, true, false},
			{"another replica's slot in mine", true, func(v []byte) []byte {
				copy(slot(v, 1), slot(v, 2))
				return v
			}, true, false},
			{"tags of the client's next request", true, func([]byte) []byte { return bytes.Clone(other.Tags) }, true, false},
			{"tags of another client's request", true, func([]byte) []byte { return bytes.Clone(otherClient.Tags) }, true, false},
			{"vector empty", false, func([]byte) []byte { return nil }, false, false},
			{"only my tag", false, func(v []byte) []byte { return slot(v, 1) }, false, false},
			{"vector one slot short", false, func(v []byte) []byte { return v[:3*MACSize] }, false, false},
			{"vector one byte short", false, func(v []byte) []byte { return v[:4*MACSize-1] }, false, false},
			{"vector one slot long", false, func(v []byte) []byte { return append(v, slot(v, 1)...) }, false, false},
		}
		for _, row := range rows {
			if row.crypto && kind.null {
				continue
			}
			for _, sigGood := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/signature good=%v", kind.name, row.name, sigGood)
				t.Run(name, func(t *testing.T) {
					editSig := keep
					if !sigGood {
						editSig = bend
					}
					req := tagged(good, editSig, row.tags)
					reqs := []*Request{req}
					env := &recEnv{}
					auth := &countingAuth{Authenticator: fx.auths[fx.ids[1]]}
					r, err := NewReplica(Config{N: 4, F: 1, ID: 1, Group: "grp", Auth: auth}, &logApp{}, env)
					if err != nil {
						t.Fatal(err)
					}
					state := dumpReplica(r)
					r.HandleMessage(fx.wire(&PrePrepare{Seq: 1, Digest: BatchDigest(reqs), Requests: reqs}, false))
					admitted := r.log[1] != nil && r.log[1].prePrepare != nil
					if want := row.byTag || sigGood; admitted != want {
						t.Fatalf("admitted %v, want %v", admitted, want)
					}
					if !admitted && (dumpReplica(r) != state || len(env.out) != 0) {
						t.Errorf("refused, but state or sends changed: sent %v", env.out)
					}
					wantVerifies := 2 // the pre-prepare's, then the request's
					if row.byTag {
						wantVerifies = 1
					}
					wantTagChecks := 0
					if row.tagCheck {
						wantTagChecks = 1
					}
					if auth.verifies != wantVerifies || auth.macChecks != wantTagChecks {
						t.Errorf("%d signature checks and %d tag checks, want %d and %d",
							auth.verifies, auth.macChecks, wantVerifies, wantTagChecks)
					}
				})
			}
		}
	}
}

// admissionGroup is an n=4 netsim group with an honest client, a faulty
// client whose requests the test builds, and a shared registry.
type admissionGroup struct {
	*harness
	metrics *obs.Registry
	evil    Authenticator
}

func newAdmissionGroup(t *testing.T, seed int64) *admissionGroup {
	t.Helper()
	reg := obs.NewRegistry()
	h := newHarnessWith(t, 4, 1, seed, reg)
	priv, err := DeriveIdentity("client:evil", testSeed, h.ring)
	if err != nil {
		t.Fatal(err)
	}
	return &admissionGroup{harness: h, metrics: reg, evil: NewEd25519Auth("client:evil", priv, h.ring)}
}

// evilRequest is a request of the faulty client with its signature bent and
// its tags good except at the replicas badTags names.
func (g *admissionGroup) evilRequest(seq uint64, op string, badTags ...int) *Request {
	req := &Request{ClientID: "client:evil", ClientSeq: seq, Op: []byte(op), ReplyTo: "client/evil"}
	signIn(g.evil, req, Identities("grp", 4))
	return tagged(req, bend, func(v []byte) []byte {
		for _, i := range badTags {
			slot(v, i)[0] ^= 1
		}
		return v
	})
}

// propose sends replica 0's signed pre-prepare of reqs at (view 0, seq) to
// the replicas to, as a faulty primary that sends nothing else would.
func (g *admissionGroup) propose(seq uint64, reqs []*Request, to ...int) {
	pp := &PrePrepare{Seq: seq, Digest: BatchDigest(reqs), Requests: reqs}
	signIn(g.group.Replicas[0].cfg.Auth, pp, Identities("grp", 4))
	for _, i := range to {
		g.net.Send(g.group.Addrs[0], g.group.Addrs[i], Encode(pp))
	}
}

func (g *admissionGroup) admissions(by string) uint64 {
	return g.metrics.Counter("pbft_request_admissions_total", "group=grp", "by="+by).Value()
}

// settle runs the network for several view timeouts: a wedge or a view
// change a request provoked would show by then.
func (g *admissionGroup) settle() { g.net.RunFor(5 * time.Second) }

// honest completes calls invocations of the honest client and checks that
// the replicas live names executed the same operations in the same order,
// each of them exactly once, and that every replica in live is in view.
func (g *admissionGroup) honest(t *testing.T, calls int, view uint64, live ...int) {
	t.Helper()
	for i := 0; i < calls; i++ {
		g.invoke(t, []byte(fmt.Sprintf("honest-%d", i)))
	}
	g.settle()
	first := g.apps[live[0]].ops
	for _, i := range live {
		ops := g.apps[i].ops
		if len(ops) != len(first) {
			t.Fatalf("replica %d executed %d operations, replica %d %d", i, len(ops), live[0], len(first))
		}
		for j := range ops {
			if !bytes.Equal(ops[j], first[j]) {
				t.Fatalf("replica %d diverges at %d: %q vs %q", i, j, ops[j], first[j])
			}
		}
		seen := make(map[string]bool)
		for _, op := range ops {
			if seen[string(op)] {
				t.Fatalf("replica %d executed %q twice", i, op)
			}
			seen[string(op)] = true
		}
		if rep := g.group.Replicas[i]; rep.View() != view || rep.InViewChange() {
			t.Errorf("replica %d: view %d (in view change %v), want %d", i, rep.View(), rep.InViewChange(), view)
		}
	}
}

// executed reports whether a replica in live executed op, and checks that
// either all of them did or none.
func (g *admissionGroup) executed(t *testing.T, op string, live ...int) bool {
	t.Helper()
	count := 0
	for _, i := range live {
		for _, o := range g.apps[i].ops {
			if string(o) == op {
				count++
			}
		}
	}
	if count != 0 && count != len(live) {
		t.Fatalf("%q executed at %d of %d replicas", op, count, len(live))
	}
	return count > 0
}

// TestRequestAdmissionAdversaries runs each hostile client, alone or with a
// faulty primary, against a group on netsim. Every row ends with an honest
// client's calls: each decides, and the correct replicas execute the same
// operations in the same order.
func TestRequestAdmissionAdversaries(t *testing.T) {
	t.Run("tags valid at a subset of backups", func(t *testing.T) {
		// The client's tag for replica 3 is bad: replica 3 admits its
		// requests on their signatures, the other backups on their tags.
		g := newAdmissionGroup(t, 61)
		g.client.cfg.Auth = &selectiveAuth{Authenticator: g.client.cfg.Auth, victim: "grp/r3"}
		const calls = 6
		g.honest(t, calls, 0, 0, 1, 2, 3)
		if sig, tag := g.admissions("signature"), g.admissions("tag"); sig != 2*calls || tag != 2*calls {
			t.Errorf("admitted %d on signatures and %d on tags, want %d each", sig, tag, 2*calls)
		}
	})

	t.Run("bad signature, good tags, faulty client alone", func(t *testing.T) {
		// The honest primary checks the signature and never proposes it.
		g := newAdmissionGroup(t, 62)
		g.net.Send("client/evil", g.group.Addrs[0], Encode(g.evilRequest(1, "evil")))
		g.settle()
		if g.group.Replicas[0].seq != 0 || len(g.group.Replicas[0].outstanding) != 0 {
			t.Fatal("the primary took a request whose signature is bad")
		}
		g.honest(t, 4, 0, 0, 1, 2, 3)
		if g.executed(t, "evil", 0, 1, 2, 3) {
			t.Error("a request with a bad signature was executed")
		}
	})

	t.Run("bad signature, good tags, client multicast", func(t *testing.T) {
		// A retransmission reaches every replica directly: each checks the
		// signature, so no backup forwards it or waits for it.
		g := newAdmissionGroup(t, 63)
		wire := Encode(g.evilRequest(1, "evil"))
		for _, addr := range g.group.Addrs {
			g.net.Send("client/evil", addr, wire)
		}
		g.net.Run(1_000_000)
		for i, rep := range g.group.Replicas {
			if rep.timerArmed || len(rep.outstanding) != 0 {
				t.Errorf("replica %d: timer armed %v, %d outstanding", i, rep.timerArmed, len(rep.outstanding))
			}
		}
		g.honest(t, 4, 0, 0, 1, 2, 3)
		if g.executed(t, "evil", 0, 1, 2, 3) {
			t.Error("a request with a bad signature was executed")
		}
	})

	t.Run("bad signature with a faulty primary, across a view change", func(t *testing.T) {
		// Replica 0 is faulty and silent but for proposing the faulty
		// client's request, whose tag is bad at replica 3. Replicas 1 and 2
		// prepare it on their tags and replica 3 refuses it; the commit
		// quorum never forms, and the view change carries it. Replica 3
		// admits it on the prepared certificate and executes it with the
		// others: no wedge where the tag was bad.
		g := newAdmissionGroup(t, 64)
		g.net.RemoveNode(g.group.Addrs[0])
		g.propose(1, []*Request{g.evilRequest(1, "evil", 3)}, 1, 2, 3)
		g.settle()
		if !g.executed(t, "evil", 1, 2, 3) {
			t.Fatal("the prepared request was not executed after the view change")
		}
		if g.admissions("certificate") == 0 {
			t.Error("no request was admitted on a certificate")
		}
		g.honest(t, 4, 1, 1, 2, 3)
	})

	t.Run("new primary re-drives a request it admitted on a tag", func(t *testing.T) {
		// Faulty replica 0 proposes at seq 1 one request to replica 1, the
		// next primary, and another to replica 2; neither prepares. After
		// the view change each holds a request admitted on its tag alone,
		// whose signature is bad: replica 1 must not order it, and replica 2
		// must not wait for it.
		g := newAdmissionGroup(t, 65)
		g.net.RemoveNode(g.group.Addrs[0])
		g.propose(1, []*Request{g.evilRequest(1, "evil-1", 3)}, 1)
		g.propose(1, []*Request{g.evilRequest(2, "evil-2", 3)}, 2)
		g.settle()
		g.honest(t, 4, 1, 1, 2, 3)
		if g.executed(t, "evil-1", 1, 2, 3) || g.executed(t, "evil-2", 1, 2, 3) {
			t.Error("a request with a bad signature was executed")
		}
		for i, rep := range g.group.Replicas[1:] {
			if len(rep.outstanding) != 0 {
				t.Errorf("replica %d still holds %d requests", i+1, len(rep.outstanding))
			}
		}
	})
}

// TestAdmissionCounter: on a steady run the primary admits each request on
// its signature and every backup on its tag; nothing is certified.
func TestAdmissionCounter(t *testing.T) {
	g := newAdmissionGroup(t, 66)
	const calls = 8
	g.honest(t, calls, 0, 0, 1, 2, 3)
	got := [3]uint64{g.admissions("signature"), g.admissions("tag"), g.admissions("certificate")}
	if want := [3]uint64{calls, 3 * calls, 0}; got != want {
		t.Errorf("admissions by signature, tag, certificate: %v, want %v", got, want)
	}
}
