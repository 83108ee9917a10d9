package pbft

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"itdos/internal/netsim"
)

// countingAuth counts the signature verifications a replica or client asks
// for.
type countingAuth struct {
	Authenticator
	verifies int
}

func (a *countingAuth) Verify(sender string, msg, sig []byte) bool {
	a.verifies++
	return a.Authenticator.Verify(sender, msg, sig)
}

// TestVerificationsPerOrderedRequest: at n=4 the client pays f+1 reply
// verifications per invocation, not n — the replies after the accepting
// quorum are dropped unread — and no replica pays more than the seven an
// unbatched round holds for it (backup: pre-prepare, request, 2 prepares,
// 3 commits; primary: request, 3 prepares, 3 commits), and the group less
// than four times seven, because the phase messages that arrive after an
// entry executed are dropped unread too.
func TestVerificationsPerOrderedRequest(t *testing.T) {
	const n, f, calls = 4, 1, 8
	net := netsim.NewNetwork(41, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
	ring := NewKeyring()
	// One checkpoint interval covers the run: only ordering is counted.
	group, err := NewSimGroup(net, "grp", Config{N: n, F: f, CheckpointInterval: 64}, ring,
		func(int) App { return &logApp{} })
	if err != nil {
		t.Fatal(err)
	}
	replicaAuths := make([]*countingAuth, n)
	for i, r := range group.Replicas {
		replicaAuths[i] = &countingAuth{Authenticator: r.cfg.Auth}
		r.cfg.Auth = replicaAuths[i]
	}
	priv, err := GenerateIdentity("client:count", ring)
	if err != nil {
		t.Fatal(err)
	}
	clientAuth := &countingAuth{Authenticator: NewEd25519Auth("client:count", priv, ring)}
	cli, err := group.NewSimClientWithAuth("client:count", "client/count", clientAuth, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	cli.OnResult = func(uint64, []byte) { results++ }

	for i := 0; i < calls; i++ {
		seq, err := cli.Invoke([]byte(fmt.Sprintf("op-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// A forged reply to the outstanding invocation is still checked,
			// and rejected.
			forged := &Reply{ClientID: "client:count", ClientSeq: seq, Replica: 2, Result: []byte("lie")}
			SignMessage(group.Replicas[2].cfg.Auth, forged)
			forged.Sig[0] ^= 1
			cli.HandleMessage(Encode(forged))
			if clientAuth.verifies != 1 || results != 0 {
				t.Fatalf("forged reply: %d verifications, %d results; want 1, 0", clientAuth.verifies, results)
			}
			clientAuth.verifies = 0
		}
		net.Run(1_000_000) // every replica's reply is delivered
	}
	if results != calls {
		t.Fatalf("%d of %d invocations completed", results, calls)
	}
	if want := calls * (f + 1); clientAuth.verifies != want {
		t.Errorf("client verified %d replies for %d invocations, want %d (f+1 each)", clientAuth.verifies, calls, want)
	}
	total := 0
	for i, a := range replicaAuths {
		if a.verifies > 7*calls {
			t.Errorf("replica %d: %d verifications for %d requests, want at most 7 each", i, a.verifies, calls)
		}
		total += a.verifies
	}
	if total >= n*7*calls {
		t.Errorf("group: %d verifications for %d requests: no late phase message was dropped unread", total, calls)
	}
}

// recEnv records everything a replica sends or arms.
type recEnv struct{ out []string }

func (e *recEnv) SendReplica(to ReplicaID, data []byte) {
	e.out = append(e.out, fmt.Sprintf("r%d %x", to, data))
}
func (e *recEnv) Broadcast(data []byte) { e.out = append(e.out, fmt.Sprintf("all %x", data)) }
func (e *recEnv) SendAddr(addr string, data []byte) {
	e.out = append(e.out, fmt.Sprintf("%s %x", addr, data))
}
func (e *recEnv) SetTimer(d time.Duration)      { e.out = append(e.out, fmt.Sprint("timer ", d)) }
func (e *recEnv) StopTimer()                    { e.out = append(e.out, "timer stop") }
func (e *recEnv) SetBatchTimer(d time.Duration) { e.out = append(e.out, fmt.Sprint("batch timer ", d)) }

// phaseFixture is backup 1 of an n=4 group driven by hand: the test signs
// messages in the other replicas' and the client's names.
type phaseFixture struct {
	auths map[string]Authenticator
	req   *Request
	d     Digest
}

func newPhaseFixture(t *testing.T) (*phaseFixture, *Keyring) {
	t.Helper()
	ring := NewKeyring()
	fx := &phaseFixture{auths: make(map[string]Authenticator)}
	for _, id := range []string{"replica:0", "replica:1", "replica:2", "replica:3", "client:x"} {
		priv, err := GenerateIdentity(id, ring)
		if err != nil {
			t.Fatal(err)
		}
		fx.auths[id] = NewEd25519Auth(id, priv, ring)
	}
	fx.req = &Request{ClientID: "client:x", ClientSeq: 1, Op: []byte("op"), ReplyTo: "client/x"}
	SignMessage(fx.auths["client:x"], fx.req)
	fx.d = BatchDigest([]*Request{fx.req})
	return fx, ring
}

// wire signs m in its sender's name and encodes it; forged flips one bit of
// the signature.
func (fx *phaseFixture) wire(m Message, forged bool) []byte {
	SignMessage(fx.auths[m.SenderKey()], m)
	if forged {
		(*m.sigRef())[0] ^= 1
	}
	return Encode(m)
}

// replica builds backup 1 and drives it to stage:
//
//	"prepared":   pre-prepare for seq 1, a prepare from 2, a commit from 0 —
//	              prepared, its own commit sent, one commit short of executing
//	"executed":   then a commit from 2 — seq 1 executed
//	"viewchange": "prepared", then its view timer fires
func (fx *phaseFixture) replica(t *testing.T, stage string) (*Replica, *recEnv, *countingAuth) {
	t.Helper()
	env := &recEnv{}
	auth := &countingAuth{Authenticator: fx.auths["replica:1"]}
	r, err := NewReplica(Config{N: 4, F: 1, ID: 1, Auth: auth}, &logApp{}, env)
	if err != nil {
		t.Fatal(err)
	}
	r.HandleMessage(fx.wire(&PrePrepare{Seq: 1, Digest: fx.d, Requests: []*Request{fx.req}}, false))
	r.HandleMessage(fx.wire(&Prepare{Seq: 1, Digest: fx.d, Replica: 2}, false))
	r.HandleMessage(fx.wire(&Commit{Seq: 1, Digest: fx.d, Replica: 0}, false))
	switch stage {
	case "executed":
		r.HandleMessage(fx.wire(&Commit{Seq: 1, Digest: fx.d, Replica: 2}, false))
		if r.LastExecuted() != 1 {
			t.Fatalf("fixture: seq 1 not executed")
		}
	case "viewchange":
		r.HandleTimer()
	}
	if stage != "executed" && r.LastExecuted() != 0 {
		t.Fatalf("fixture: seq 1 executed early")
	}
	return r, env, auth
}

// dumpReplica renders the ordering state a phase message could touch,
// signatures of the stored messages included.
func dumpReplica(r *Replica) string {
	var b strings.Builder
	fmt.Fprintf(&b, "view=%d vc=%v seq=%d exec=%d spec=%d low=%d timer=%v outstanding=%d views=%d\n",
		r.view, r.inViewChange, r.seq, r.lastExec, r.specExec, r.lowWater, r.timerArmed,
		len(r.outstanding), len(r.viewChanges))
	for _, seq := range r.logSeqs() {
		en := r.log[seq]
		fmt.Fprintf(&b, "%d: pp=%v sentCommit=%v executed=%v fetched=%v", seq,
			en.prePrepare != nil, en.sentCommit, en.executed, en.fetchedPP)
		var ids []int
		for id := range en.prepares {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, " p%d:%x", id, en.prepares[ReplicaID(id)].Sig)
		}
		ids = ids[:0]
		for id := range en.commits {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, " c%d:%x", id, en.commits[ReplicaID(id)].Sig)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDiscardedPhaseMessagesAreNeverVerified feeds each kind of phase message
// the replica drops unread once validly signed and once forged: neither costs
// a verification, neither changes state, neither sends anything — dropping
// before the signature check is not observable.
func TestDiscardedPhaseMessagesAreNeverVerified(t *testing.T) {
	fx, _ := newPhaseFixture(t)
	d := fx.d
	cases := []struct {
		name, stage string
		msg         func() Message
	}{
		{"duplicate prepare", "prepared", func() Message { return &Prepare{Seq: 1, Digest: d, Replica: 2} }},
		{"duplicate commit", "prepared", func() Message { return &Commit{Seq: 1, Digest: d, Replica: 0} }},
		{"duplicate prepare, other digest", "prepared", func() Message { return &Prepare{Seq: 1, Replica: 2} }},
		{"stale-view prepare", "prepared", func() Message { return &Prepare{View: 1, Seq: 1, Digest: d, Replica: 3} }},
		{"stale-view commit", "prepared", func() Message { return &Commit{View: 1, Seq: 1, Digest: d, Replica: 3} }},
		{"prepare above the window", "prepared", func() Message { return &Prepare{Seq: 65, Digest: d, Replica: 3} }},
		{"commit below the window", "prepared", func() Message { return &Commit{Seq: 0, Digest: d, Replica: 3} }},
		{"prepare in the primary's name", "prepared", func() Message { return &Prepare{Seq: 1, Digest: d, Replica: 0} }},
		{"post-execution prepare", "executed", func() Message { return &Prepare{Seq: 1, Digest: d, Replica: 3} }},
		{"post-execution commit", "executed", func() Message { return &Commit{Seq: 1, Digest: d, Replica: 3} }},
		{"prepare during view change", "viewchange", func() Message { return &Prepare{View: 1, Seq: 1, Digest: d, Replica: 3} }},
		{"commit during view change", "viewchange", func() Message { return &Commit{View: 1, Seq: 1, Digest: d, Replica: 3} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, forged := range []bool{false, true} {
				r, env, auth := fx.replica(t, tc.stage)
				state, sent, verified := dumpReplica(r), len(env.out), auth.verifies
				r.HandleMessage(fx.wire(tc.msg(), forged))
				if auth.verifies != verified {
					t.Errorf("forged=%v: %d verifications", forged, auth.verifies-verified)
				}
				if got := dumpReplica(r); got != state {
					t.Errorf("forged=%v: state changed\nbefore:\n%safter:\n%s", forged, state, got)
				}
				if len(env.out) != sent {
					t.Errorf("forged=%v: sent %v", forged, env.out[sent:])
				}
			}
		})
	}
}

// TestLivePhaseMessagesAreVerifiedFirst is the other half: a prepare or
// commit that would be recorded is verified, and a forged one changes
// nothing — not even the commit that would complete the quorum.
func TestLivePhaseMessagesAreVerifiedFirst(t *testing.T) {
	fx, _ := newPhaseFixture(t)
	for _, msg := range []func() Message{
		func() Message { return &Prepare{Seq: 1, Digest: fx.d, Replica: 3} },
		func() Message { return &Commit{Seq: 1, Digest: fx.d, Replica: 2} },
		func() Message { return &Commit{Seq: 2, Digest: fx.d, Replica: 2} }, // no entry yet
	} {
		r, env, auth := fx.replica(t, "prepared")
		state, sent, verified := dumpReplica(r), len(env.out), auth.verifies
		r.HandleMessage(fx.wire(msg(), true))
		if auth.verifies != verified+1 {
			t.Errorf("%T forged: %d verifications, want 1", msg(), auth.verifies-verified)
		}
		if got := dumpReplica(r); got != state || len(env.out) != sent {
			t.Errorf("%T forged: state or sends changed\nbefore:\n%safter:\n%ssent %v", msg(), state, got, env.out[sent:])
		}
		r.HandleMessage(fx.wire(msg(), false))
		if auth.verifies != verified+2 {
			t.Errorf("%T valid: %d verifications, want 1", msg(), auth.verifies-verified-1)
		}
		if dumpReplica(r) == state {
			t.Errorf("%T valid: not recorded", msg())
		}
	}
}
