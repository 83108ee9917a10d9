package pbft

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"itdos/internal/netsim"
)

// countingAuth counts what a replica or client asks of its authenticator:
// signatures made and verified, tags made and checked.
type countingAuth struct {
	Authenticator
	signs, verifies, macs, macChecks int
}

func (a *countingAuth) Sign(msg []byte) []byte {
	a.signs++
	return a.Authenticator.Sign(msg)
}

func (a *countingAuth) Verify(sender string, msg, sig []byte) bool {
	a.verifies++
	return a.Authenticator.Verify(sender, msg, sig)
}

func (a *countingAuth) MAC(peer string, msg []byte) []byte {
	a.macs++
	return a.Authenticator.MAC(peer, msg)
}

func (a *countingAuth) VerifyMAC(peer string, msg, tag []byte) bool {
	a.macChecks++
	return a.Authenticator.VerifyMAC(peer, msg, tag)
}

// checks is every authenticator an incoming message cost, of either kind.
func (a *countingAuth) checks() int { return a.verifies + a.macChecks }

// nullAuth is an authenticator without cryptography: every signature and
// every tag is the same constant, so only the structural checks around them
// (sender index, tag-vector length, the receiver's slot) can refuse.
type nullAuth struct{ id string }

var nullSig, nullTag = []byte{0xA5}, bytes.Repeat([]byte{0xA5}, MACSize)

func (nullAuth) Sign([]byte) []byte                   { return bytes.Clone(nullSig) }
func (nullAuth) Verify(_ string, _, sig []byte) bool  { return bytes.Equal(sig, nullSig) }
func (nullAuth) MAC(string, []byte) []byte            { return bytes.Clone(nullTag) }
func (nullAuth) VerifyMAC(_ string, _, t []byte) bool { return bytes.Equal(t, nullTag) }
func (a nullAuth) Identity() string                   { return a.id }

// countedGroup is an n=4 Ed25519 group on netsim whose replicas' and
// clients' authenticators count. One checkpoint interval covers a run: only
// ordering is counted.
type countedGroup struct {
	net      *netsim.Network
	group    *SimGroup
	replicas []*countingAuth
	clients  []*countingAuth
	cli      []*Client
	results  int
}

func newCountedGroup(t *testing.T, clients, maxBatch int) *countedGroup {
	t.Helper()
	cg := &countedGroup{net: netsim.NewNetwork(41, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))}
	var err error
	cg.group, err = NewSimGroup(cg.net, "grp", Config{N: 4, F: 1, CheckpointInterval: 1 << 20,
		WindowSize: 1 << 21, MaxBatch: maxBatch}, NewKeyring(), []byte("counted"), func(int) App { return &logApp{} })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cg.group.Replicas {
		ca := &countingAuth{Authenticator: r.cfg.Auth}
		r.cfg.Auth = ca
		cg.replicas = append(cg.replicas, ca)
	}
	for i := 0; i < clients; i++ {
		cli, err := cg.group.NewSimClient(fmt.Sprintf("client:count%d", i), fmt.Sprintf("client/count%d", i), 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ca := &countingAuth{Authenticator: cli.cfg.Auth}
		cli.cfg.Auth = ca
		cli.OnResult = func(uint64, []byte) { cg.results++ }
		cg.clients = append(cg.clients, ca)
		cg.cli = append(cg.cli, cli)
	}
	return cg
}

// TestVerificationsPerOrderedRequest: at n=4 the client verifies no
// signature for an acknowledged send and checks f+1 tags, not n — the
// replies after the accepting quorum are dropped unread. No replica verifies
// more than the four signatures an unbatched round holds for it (backup:
// pre-prepare, request, 2 prepares; primary: request, 3 prepares) and none
// for a commit, which costs it one tag check; the group checks fewer commit
// tags than it receives commits, because those that arrive after an entry
// executed are dropped unread too.
func TestVerificationsPerOrderedRequest(t *testing.T) {
	const n, f, calls = 4, 1, 8
	cg := newCountedGroup(t, 1, 1)
	net, group, cli, clientAuth := cg.net, cg.group, cg.cli[0], cg.clients[0]

	for i := 0; i < calls; i++ {
		seq, err := cli.Invoke([]byte(fmt.Sprintf("op-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// A forged reply to the outstanding invocation is still checked,
			// and rejected.
			forged := &Reply{ClientID: "client:count0", ClientSeq: seq, Replica: 2, Result: []byte("lie")}
			SignMessage(group.Replicas[2].cfg.Auth, forged)
			forged.Sig[0] ^= 1
			cli.HandleMessage(Encode(forged))
			if clientAuth.macChecks != 1 || cg.results != 0 {
				t.Fatalf("forged reply: %d tag checks, %d results; want 1, 0", clientAuth.macChecks, cg.results)
			}
			clientAuth.macChecks = 0
		}
		net.Run(1_000_000) // every replica's reply is delivered
	}
	if cg.results != calls {
		t.Fatalf("%d of %d invocations completed", cg.results, calls)
	}
	if want := calls * (f + 1); clientAuth.macChecks != want || clientAuth.verifies != 0 {
		t.Errorf("client checked %d tags and verified %d signatures for %d invocations, want %d (f+1 each) and 0",
			clientAuth.macChecks, clientAuth.verifies, calls, want)
	}
	commitChecks := 0
	for i, a := range cg.replicas {
		if a.verifies > 4*calls {
			t.Errorf("replica %d: %d signature verifications for %d requests, want at most 4 each", i, a.verifies, calls)
		}
		if a.macChecks > (n-1)*calls {
			t.Errorf("replica %d: %d tag checks for %d requests, want at most one per peer's commit", i, a.macChecks, calls)
		}
		commitChecks += a.macChecks
	}
	if commitChecks >= n*(n-1)*calls {
		t.Errorf("group: %d commit tags checked for %d requests: no late commit was dropped unread", commitChecks, calls)
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

// phaseFixture is backup 1 of the n=4 group "grp" driven by hand: the test
// signs messages in the other replicas' and the client's names.
type phaseFixture struct {
	ids   []string // the replicas' identities
	auths map[string]Authenticator
	req   *Request
	d     Digest
}

func newPhaseFixture(t *testing.T) (*phaseFixture, *Keyring) {
	t.Helper()
	return newPhaseFixtureAuth(t, false)
}

// newPhaseFixtureAuth builds the fixture over Ed25519 identities, or over
// nullAuth (and no keyring) when null is set.
func newPhaseFixtureAuth(t *testing.T, null bool) (*phaseFixture, *Keyring) {
	t.Helper()
	ring := NewKeyring()
	fx := &phaseFixture{ids: Identities("grp", 4), auths: make(map[string]Authenticator)}
	for _, id := range append(fx.ids, "client:x", "client:y") {
		if null {
			fx.auths[id] = nullAuth{id}
			continue
		}
		priv, err := DeriveIdentity(id, []byte("phase-fixture"), ring)
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

// authOf returns the authenticator of m's sender: its client for a request,
// else the replica it names.
func (fx *phaseFixture) authOf(m Message) Authenticator {
	if req, ok := m.(*Request); ok {
		return fx.auths[req.ClientID]
	}
	return fx.auths[fx.ids[m.sender()]]
}

// wire authenticates m in its sender's name within the group of four and
// encodes it; forged flips one bit of the signature, or of every tag.
func (fx *phaseFixture) wire(m Message, forged bool) []byte {
	signIn(fx.authOf(m), m, fx.ids)
	if sig := *m.sigRef(); forged {
		for i := 0; i < len(sig); i += MACSize {
			sig[i] ^= 1
		}
	}
	return Encode(m)
}

// replica builds backup 1 and drives it to stage:
//
//	"preprepared": pre-prepare for seq 1 — its own prepare sent, not prepared
//	"prepared":   then a prepare from 2 and a commit from 0 —
//	              prepared, its own commit sent, one commit short of executing
//	"executed":   then a commit from 2 — seq 1 executed
//	"viewchange": "prepared", then its view timer fires
//	"checkpoint": "prepared", then a checkpoint at seq 16 from 2
func (fx *phaseFixture) replica(t *testing.T, stage string) (*Replica, *recEnv, *countingAuth) {
	t.Helper()
	env := &recEnv{}
	auth := &countingAuth{Authenticator: fx.auths[fx.ids[1]]}
	r, err := NewReplica(Config{N: 4, F: 1, ID: 1, Group: "grp", Auth: auth}, &logApp{}, env)
	if err != nil {
		t.Fatal(err)
	}
	r.HandleMessage(fx.wire(&PrePrepare{Seq: 1, Digest: fx.d, Requests: []*Request{fx.req}}, false))
	if stage == "preprepared" {
		return r, env, auth
	}
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
	case "checkpoint":
		r.HandleMessage(fx.wire(&Checkpoint{Seq: 16, Replica: 2}, false))
		if len(r.checkpoints[16]) != 1 {
			t.Fatalf("fixture: checkpoint not recorded")
		}
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
	for seq, byRep := range r.checkpoints {
		for id, c := range byRep {
			// One checkpoint at most in these fixtures: no order to fix.
			fmt.Fprintf(&b, "checkpoint %d from %d: %x %x\n", seq, id, c.StateDigest, c.Sig)
		}
	}
	return b.String()
}

// TestDiscardedPhaseMessagesAreNeverVerified feeds each kind of phase message
// or checkpoint the replica drops unread once validly authenticated and once
// forged: neither costs a check, neither changes state, neither sends
// anything — dropping before the check is not observable.
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
		{"surplus prepare", "prepared", func() Message { return &Prepare{Seq: 1, Digest: d, Replica: 3} }},
		{"stale-view prepare", "prepared", func() Message { return &Prepare{View: 1, Seq: 1, Digest: d, Replica: 3} }},
		{"stale-view commit", "prepared", func() Message { return &Commit{View: 1, Seq: 1, Digest: d, Replica: 3} }},
		{"prepare above the window", "prepared", func() Message { return &Prepare{Seq: 65, Digest: d, Replica: 3} }},
		{"commit below the window", "prepared", func() Message { return &Commit{Seq: 0, Digest: d, Replica: 3} }},
		{"prepare in the primary's name", "prepared", func() Message { return &Prepare{Seq: 1, Digest: d, Replica: 0} }},
		{"post-execution prepare", "executed", func() Message { return &Prepare{Seq: 1, Digest: d, Replica: 3} }},
		{"post-execution commit", "executed", func() Message { return &Commit{Seq: 1, Digest: d, Replica: 3} }},
		{"prepare during view change", "viewchange", func() Message { return &Prepare{View: 1, Seq: 1, Digest: d, Replica: 3} }},
		{"commit during view change", "viewchange", func() Message { return &Commit{View: 1, Seq: 1, Digest: d, Replica: 3} }},
		{"checkpoint at the stable sequence", "prepared", func() Message { return &Checkpoint{Seq: 0, Replica: 3} }},
		{"duplicate checkpoint", "checkpoint", func() Message { return &Checkpoint{Seq: 16, Replica: 2} }},
		{"duplicate checkpoint, other digest", "checkpoint", func() Message { return &Checkpoint{Seq: 16, StateDigest: d, Replica: 2} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, forged := range []bool{false, true} {
				r, env, auth := fx.replica(t, tc.stage)
				state, sent, checked := dumpReplica(r), len(env.out), auth.checks()
				r.HandleMessage(fx.wire(tc.msg(), forged))
				if auth.checks() != checked {
					t.Errorf("forged=%v: %d checks", forged, auth.checks()-checked)
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

// TestLivePhaseMessagesAreVerifiedFirst is the other half: a prepare,
// commit or checkpoint that would be recorded is checked, and a forged one
// changes nothing — not even the commit that would complete the quorum.
func TestLivePhaseMessagesAreVerifiedFirst(t *testing.T) {
	fx, _ := newPhaseFixture(t)
	for _, tc := range []struct {
		stage string
		msg   func() Message
	}{
		{"preprepared", func() Message { return &Prepare{Seq: 1, Digest: fx.d, Replica: 3} }},
		{"prepared", func() Message { return &Commit{Seq: 1, Digest: fx.d, Replica: 2} }},
		{"prepared", func() Message { return &Commit{Seq: 2, Digest: fx.d, Replica: 2} }}, // no entry yet
		{"prepared", func() Message { return &Checkpoint{Seq: 16, Replica: 3} }},
	} {
		msg := tc.msg
		r, env, auth := fx.replica(t, tc.stage)
		state, sent, checked := dumpReplica(r), len(env.out), auth.checks()
		r.HandleMessage(fx.wire(msg(), true))
		if auth.checks() != checked+1 {
			t.Errorf("%T forged: %d checks, want 1", msg(), auth.checks()-checked)
		}
		if got := dumpReplica(r); got != state || len(env.out) != sent {
			t.Errorf("%T forged: state or sends changed\nbefore:\n%safter:\n%ssent %v", msg(), state, got, env.out[sent:])
		}
		r.HandleMessage(fx.wire(msg(), false))
		if auth.checks() != checked+2 {
			t.Errorf("%T valid: %d checks, want 1", msg(), auth.checks()-checked-1)
		}
		if dumpReplica(r) == state {
			t.Errorf("%T valid: not recorded", msg())
		}
	}
}
