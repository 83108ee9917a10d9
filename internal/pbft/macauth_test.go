package pbft

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/transport"
)

// slot returns receiver id's tag in a commit's authenticator.
func slot(sig []byte, id int) []byte { return sig[id*MACSize : (id+1)*MACSize] }

// authKinds runs a test over Ed25519Auth and over nullAuth. Rows that need
// real cryptography to fail (a replayed or transplanted tag) skip nullAuth,
// whose tags are all alike.
var authKinds = []struct {
	name string
	null bool
}{{"ed25519", false}, {"null", true}}

// TestCommitAuthenticatorTable: backup 1 of four, prepared at seq 1 and one
// commit short of executing, receives replica 2's commit in every hostile
// shape. Only the untouched one counts; each of the others fails the
// authenticator check itself, changes no state and sends nothing.
func TestCommitAuthenticatorTable(t *testing.T) {
	for _, kind := range authKinds {
		fx, _ := newPhaseFixtureAuth(t, kind.null)
		fresh := func() *Commit { return &Commit{Seq: 1, Digest: fx.d, Replica: 2} }
		rows := []struct {
			name   string
			crypto bool // needs distinct keys to be told apart
			make   func() *Commit
		}{
			{"tag for me flipped", false, func() *Commit {
				c := fresh()
				fx.wire(c, false)
				slot(c.Sig, 1)[MACSize-1] ^= 0x80
				return c
			}},
			{"tag valid for the others, bad for me", false, func() *Commit {
				c := fresh()
				fx.wire(c, false)
				copy(slot(c.Sig, 1), make([]byte, MACSize))
				return c
			}},
			{"vector too short", false, func() *Commit {
				c := fresh()
				fx.wire(c, false)
				c.Sig = c.Sig[:3*MACSize]
				return c
			}},
			{"vector one byte short", false, func() *Commit {
				c := fresh()
				fx.wire(c, false)
				c.Sig = c.Sig[:4*MACSize-1]
				return c
			}},
			{"vector too long", false, func() *Commit {
				c := fresh()
				fx.wire(c, false)
				c.Sig = append(c.Sig, slot(c.Sig, 1)...)
				return c
			}},
			{"vector empty", false, func() *Commit { return fresh() }},
			{"only my tag", false, func() *Commit {
				c := fresh()
				fx.wire(c, false)
				c.Sig = slot(c.Sig, 1)
				return c
			}},
			{"my tag moved to another slot", true, func() *Commit {
				c := fresh()
				fx.wire(c, false)
				mine := append([]byte(nil), slot(c.Sig, 1)...)
				copy(slot(c.Sig, 1), slot(c.Sig, 3))
				copy(slot(c.Sig, 3), mine)
				return c
			}},
			{"replayed into another sequence", true, func() *Commit {
				c := &Commit{Seq: 2, Digest: fx.d, Replica: 2}
				fx.wire(c, false)
				c.Seq = 1
				return c
			}},
			{"replayed into another view", true, func() *Commit {
				c := &Commit{View: 1, Seq: 1, Digest: fx.d, Replica: 2}
				fx.wire(c, false)
				c.View = 0
				return c
			}},
			{"tagged for another digest", true, func() *Commit {
				c := &Commit{Seq: 1, Replica: 2}
				fx.wire(c, false)
				c.Digest = fx.d
				return c
			}},
			{"another replica's tags under the sender's name", true, func() *Commit {
				c := &Commit{Seq: 1, Digest: fx.d, Replica: 3}
				fx.wire(c, false)
				c.Replica = 2
				return c
			}},
			{"a sender beyond the group", false, func() *Commit {
				c := &Commit{Seq: 1, Digest: fx.d, Replica: 4}
				signIn(fx.auths[fx.ids[2]], c, fx.ids)
				return c
			}},
			{"my own commit reflected", false, func() *Commit {
				c := &Commit{Seq: 2, Digest: fx.d, Replica: 1}
				fx.wire(c, false)
				return c
			}},
			{"signed, not tagged", false, func() *Commit {
				c := fresh()
				c.Sig = fx.auths[fx.ids[2]].Sign(signingDigest(c))
				return c
			}},
		}
		t.Run(kind.name+"/valid", func(t *testing.T) {
			r, _, auth := fx.replica(t, "prepared")
			checked := auth.checks()
			r.HandleMessage(fx.wire(fresh(), false))
			if r.LastExecuted() != 1 || auth.macChecks == 0 || auth.checks() != checked+1 {
				t.Fatalf("valid commit: executed=%d, %d tag checks", r.LastExecuted(), auth.checks()-checked)
			}
		})
		for _, row := range rows {
			if row.crypto && kind.null {
				continue
			}
			t.Run(kind.name+"/"+row.name, func(t *testing.T) {
				r, env, auth := fx.replica(t, "prepared")
				if verifyIn(auth, row.make(), 1, fx.ids) {
					t.Fatal("authenticator verified")
				}
				state, sent := dumpReplica(r), len(env.out)
				r.HandleMessage(Encode(row.make()))
				if got := dumpReplica(r); got != state || len(env.out) != sent || r.LastExecuted() != 0 {
					t.Errorf("state or sends changed\nbefore:\n%safter:\n%ssent %v", state, got, env.out[sent:])
				}
			})
		}
	}
}

// TestReplyAuthenticatorTable is the client's side: with invocation 1
// outstanding, only an untouched reply is counted towards the f+1.
func TestReplyAuthenticatorTable(t *testing.T) {
	for _, kind := range authKinds {
		fx, _ := newPhaseFixtureAuth(t, kind.null)
		tagged := func(rep *Reply) *Reply {
			SignMessage(fx.authOf(rep), rep)
			return rep
		}
		fresh := func() *Reply {
			return tagged(&Reply{ClientID: "client:x", ClientSeq: 1, Replica: 2, Result: []byte("ack")})
		}
		rows := []struct {
			name   string
			crypto bool
			make   func() *Reply
		}{
			{"tag flipped", false, func() *Reply {
				rep := fresh()
				rep.Sig[0] ^= 1
				return rep
			}},
			{"tag too short", false, func() *Reply {
				rep := fresh()
				rep.Sig = rep.Sig[:MACSize-1]
				return rep
			}},
			{"tag too long", false, func() *Reply {
				rep := fresh()
				rep.Sig = append(rep.Sig, 0)
				return rep
			}},
			{"tag empty", false, func() *Reply {
				rep := fresh()
				rep.Sig = nil
				return rep
			}},
			{"a whole commit authenticator", false, func() *Reply {
				rep := fresh()
				rep.Sig = bytes.Repeat(rep.Sig, 4)
				return rep
			}},
			{"signed, not tagged", false, func() *Reply {
				rep := fresh()
				rep.Sig = nil
				rep.Sig = fx.auths[fx.ids[2]].Sign(signingDigest(rep))
				return rep
			}},
			{"replayed from another client", true, func() *Reply {
				rep := tagged(&Reply{ClientID: "client:y", ClientSeq: 1, Replica: 2, Result: []byte("ack")})
				rep.ClientID = "client:x"
				return rep
			}},
			{"replayed from another client sequence", true, func() *Reply {
				rep := tagged(&Reply{ClientID: "client:x", ClientSeq: 7, Replica: 2, Result: []byte("ack")})
				rep.ClientSeq = 1
				return rep
			}},
			{"another result under the same tag", true, func() *Reply {
				rep := fresh()
				rep.Result = []byte("lie")
				return rep
			}},
			{"another replica's tag under the sender's name", true, func() *Reply {
				rep := tagged(&Reply{ClientID: "client:x", ClientSeq: 1, Replica: 3, Result: []byte("ack")})
				rep.Replica = 2
				return rep
			}},
			{"a sender beyond the group", false, func() *Reply {
				rep := &Reply{ClientID: "client:x", ClientSeq: 1, Replica: 4, Result: []byte("ack")}
				SignMessage(fx.auths[fx.ids[2]], rep)
				return rep
			}},
		}
		client := func(t *testing.T) (*Client, *recEnv, *countingAuth, *int) {
			t.Helper()
			env := &recEnv{}
			auth := &countingAuth{Authenticator: fx.auths["client:x"]}
			cli, err := NewClient(ClientConfig{ID: "client:x", Group: "grp", ReplyAddr: "client/x", N: 4, F: 1, Auth: auth}, env)
			if err != nil {
				t.Fatal(err)
			}
			results := 0
			cli.OnResult = func(uint64, []byte) { results++ }
			if _, err := cli.Invoke([]byte("op")); err != nil {
				t.Fatal(err)
			}
			return cli, env, auth, &results
		}
		t.Run(kind.name+"/valid", func(t *testing.T) {
			cli, _, auth, results := client(t)
			cli.HandleMessage(Encode(fresh()))
			if len(cli.pending.replies) != 1 || auth.macChecks != 1 || auth.verifies != 0 {
				t.Fatalf("valid reply: %d counted, %d tag checks, %d signature checks",
					len(cli.pending.replies), auth.macChecks, auth.verifies)
			}
			cli.HandleMessage(Encode(tagged(&Reply{ClientID: "client:x", ClientSeq: 1, Replica: 3, Result: []byte("ack")})))
			if *results != 1 {
				t.Fatalf("f+1 valid replies: %d results", *results)
			}
		})
		for _, row := range rows {
			if row.crypto && kind.null {
				continue
			}
			t.Run(kind.name+"/"+row.name, func(t *testing.T) {
				cli, env, _, results := client(t)
				sent := len(env.out)
				cli.HandleMessage(Encode(row.make()))
				if len(cli.pending.replies) != 0 || *results != 0 || len(env.out) != sent || cli.primary != 0 {
					t.Errorf("counted %d replies, %d results, sent %v", len(cli.pending.replies), *results, env.out[sent:])
				}
			})
		}
		// A party's own message reflected back at it: the client ignores its
		// request, the replica its reply.
		t.Run(kind.name+"/reflected", func(t *testing.T) {
			cli, env, auth, results := client(t)
			sent := len(env.out)
			cli.HandleMessage(cli.pending.data)
			if auth.checks() != 0 || *results != 0 || len(env.out) != sent {
				t.Errorf("client: own request reflected: %d checks, sent %v", auth.checks(), env.out[sent:])
			}
			r, renv, _ := fx.replica(t, "executed")
			state, rsent := dumpReplica(r), len(renv.out)
			r.HandleMessage(Encode(tagged(&Reply{ClientID: "client:x", ClientSeq: 1, Replica: 1, Result: []byte("ack")})))
			if dumpReplica(r) != state || len(renv.out) != rsent {
				t.Errorf("replica: own reply reflected: state or sends changed")
			}
		})
	}
}

// TestPairKey: both ends of a pair derive the same key from what they
// already hold, every other pair a different one, and a peer the keyring
// does not vouch for — unknown, or a low-order point that would force the
// shared secret — gets none.
func TestPairKey(t *testing.T) {
	ring := NewKeyring()
	ids := append(Identities("grp", 3), "client:a")
	auths := make(map[string]*Ed25519Auth)
	for _, id := range ids {
		priv, err := DeriveIdentity(id, []byte("seed"), ring)
		if err != nil {
			t.Fatal(err)
		}
		auths[id] = NewEd25519Auth(id, priv, ring)
	}
	seen := make(map[string]string)
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			ab, ba := auths[a].pairKey(b), auths[b].pairKey(a)
			if len(ab) != 32 || !bytes.Equal(ab, ba) {
				t.Fatalf("%s–%s: sides disagree: %x vs %x", a, b, ab, ba)
			}
			if other, dup := seen[string(ab)]; dup {
				t.Fatalf("%s–%s shares its key with %s", a, b, other)
			}
			seen[string(ab)] = a + "–" + b
			msg := []byte("m")
			if !auths[b].VerifyMAC(a, msg, auths[a].MAC(b, msg)) {
				t.Fatalf("%s–%s: tag does not verify at the peer", a, b)
			}
		}
	}
	a := auths["grp/r0"]
	if a.pairKey("grp/r9") != nil || a.MAC("grp/r9", nil) != nil || a.VerifyMAC("grp/r9", nil, make([]byte, MACSize)) {
		t.Error("unknown identity got a key")
	}
	// The Ed25519 encodings of the points of order 1, 2 and 4 (y = 1, −1, 0)
	// and an order-8 point: each maps to a Montgomery point X25519 refuses.
	p := new([32]byte)
	lowOrder := map[string][]byte{
		"order 1": append([]byte{1}, p[1:]...),
		"order 2": {0xec, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"order 4": p[:],
		"order 8": {0x26, 0xe8, 0x95, 0x8f, 0xc2, 0xb2, 0x27, 0xb0, 0x45, 0xc3, 0xf4, 0x89, 0xf2, 0xef, 0x98, 0xf0,
			0xd5, 0xdf, 0xac, 0x05, 0xd3, 0xc6, 0x33, 0x39, 0xb1, 0x38, 0x02, 0x88, 0x6d, 0x53, 0xfc, 0x05},
	}
	for name, pub := range lowOrder {
		ring.Add("evil", ed25519.PublicKey(pub))
		if key := a.pairKey("evil"); key != nil {
			t.Errorf("%s peer point: key %x agreed", name, key)
		}
		if a.VerifyMAC("evil", []byte("m"), make([]byte, MACSize)) {
			t.Errorf("%s peer point: zero tag verified", name)
		}
	}
	ring.Add("short", ed25519.PublicKey{1, 2, 3})
	if a.pairKey("short") != nil {
		t.Error("truncated public key: key agreed")
	}
}

// TestPairKeyFollowsKeyring: a cached pair key lives exactly as long as the
// keyring entry it was agreed with. Once a member is expelled its commits
// are dropped although their tags are good under the old key; once its key
// changes, only tags under the new one count.
func TestPairKeyFollowsKeyring(t *testing.T) {
	fx, ring := newPhaseFixture(t)
	self := fx.auths["grp/r1"].(*Ed25519Auth)
	commit := func(seq uint64, from ReplicaID) []byte {
		return fx.wire(&Commit{Seq: seq, Digest: fx.d, Replica: from}, false)
	}

	r, _, _ := fx.replica(t, "prepared") // verified replica 0's commit: key cached
	if _, hit := self.pairs["grp/r0"]; !hit {
		t.Fatal("fixture: no cached key for replica 0")
	}
	late := commit(2, 0)
	ring.Remove("grp/r0")
	state := dumpReplica(r)
	r.HandleMessage(late)
	if dumpReplica(r) != state {
		t.Error("expelled member's commit was recorded")
	}
	if _, hit := self.pairs["grp/r0"]; hit {
		t.Error("cache entry outlived Keyring.Remove")
	}

	old := commit(1, 2)
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := &Commit{Seq: 3, Digest: fx.d, Replica: 2}
	fx.wire(probe, false)
	if !verifyIn(self, probe, 1, fx.ids) {
		t.Fatal("fixture: replica 2's tag does not verify before the key change")
	}
	ring.Add("grp/r2", pub)
	r.HandleMessage(old)
	if r.LastExecuted() != 0 {
		t.Error("commit under the replaced key completed the quorum")
	}
	fx.auths["grp/r2"] = NewEd25519Auth("grp/r2", priv, ring)
	r.HandleMessage(commit(1, 2))
	if r.LastExecuted() != 1 {
		t.Error("commit under the new key was not counted")
	}
}

// selectiveAuth tags correctly for every peer but one.
type selectiveAuth struct {
	Authenticator
	victim string
}

func (a *selectiveAuth) MAC(peer string, msg []byte) []byte {
	tag := append([]byte(nil), a.Authenticator.MAC(peer, msg)...)
	if peer == a.victim && len(tag) > 0 {
		tag[0] ^= 1
	}
	return tag
}

// TestSelectiveAuthenticatorGainsNothing: replica 3 sends every commit with
// tags that are good for replicas 0 and 2 and bad for replica 1. Replica 1
// drops them and commits with the 2f+1 others, as if replica 3 had simply
// not sent to it: every invocation completes, all four replicas execute the
// same operations and nobody leaves view 0.
func TestSelectiveAuthenticatorGainsNothing(t *testing.T) {
	for _, kind := range authKinds {
		t.Run(kind.name, func(t *testing.T) {
			net := netsim.NewNetwork(23, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
			apps := make([]*logApp, 4)
			group, err := NewSimGroup(net, "grp", Config{N: 4, F: 1, CheckpointInterval: 4,
				ViewTimeout: 200 * time.Millisecond}, NewKeyring(), []byte("selective"), func(i int) App {
				apps[i] = &logApp{}
				return apps[i]
			})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := group.NewSimClient("client:s", "client/s", 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if kind.null {
				for _, r := range group.Replicas {
					r.cfg.Auth = nullAuth{r.Identity()}
				}
				cli.cfg.Auth = nullAuth{"client:s"}
			}
			evil := group.Replicas[3]
			evil.cfg.Auth = &selectiveAuth{Authenticator: evil.cfg.Auth, victim: "grp/r1"}
			victim := &countingAuth{Authenticator: group.Replicas[1].cfg.Auth}
			group.Replicas[1].cfg.Auth = victim
			results := 0
			cli.OnResult = func(uint64, []byte) { results++ }
			const calls = 14 // the last two stay in the log past the checkpoint at 12
			for i := 0; i < calls; i++ {
				if _, err := cli.Invoke([]byte(fmt.Sprintf("op-%d", i))); err != nil {
					t.Fatal(err)
				}
				net.Run(1_000_000)
			}
			if results != calls {
				t.Fatalf("%d of %d invocations completed", results, calls)
			}
			for i, rep := range group.Replicas {
				if rep.View() != 0 || rep.InViewChange() {
					t.Errorf("replica %d: view %d", i, rep.View())
				}
				if len(apps[i].ops) != calls {
					t.Errorf("replica %d executed %d of %d operations", i, len(apps[i].ops), calls)
				}
				for j, op := range apps[i].ops {
					if !bytes.Equal(op, apps[0].ops[j]) {
						t.Fatalf("replica %d diverges at %d", i, j)
					}
				}
			}
			for seq, en := range group.Replicas[1].log {
				if _, counted := en.commits[3]; counted {
					t.Errorf("replica 1 counted replica 3's commit at seq %d", seq)
				}
			}
			if victim.macChecks == 0 {
				t.Error("replica 1 checked no tags")
			}
		})
	}
}

// countingClientEnv counts a client's retransmissions.
type countingClientEnv struct {
	*SimReplicaEnv
	broadcasts int
}

func (e *countingClientEnv) Broadcast(data []byte) {
	e.broadcasts++
	e.SimReplicaEnv.Broadcast(data)
}

// TestLyingViewCannotSteerClient: replica 3 answers every request with a
// view whose primary is itself, and drops requests sent to it alone. A
// client that took one reply's word for the view would send its next
// request there and pay the whole retransmission timeout. The hint moves
// only on the word of f+1 accepted replies: twenty invocations need no
// retransmission, and after a real view change the hint reaches the new
// primary within one call.
func TestLyingViewCannotSteerClient(t *testing.T) {
	h := newHarness(t, 4, 1, 19)
	liar := h.group.Addrs[3]
	env := &countingClientEnv{SimReplicaEnv: &SimReplicaEnv{net: h.net, self: "client/hint", addrs: h.group.Addrs, selfIdx: -1}}
	priv, err := DeriveIdentity("client:hint", []byte("hint"), h.ring)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{ID: "client:hint", Group: "grp", ReplyAddr: "client/hint", N: 4, F: 1,
		RetransmitTimeout: 100 * time.Millisecond, Auth: NewEd25519Auth("client:hint", priv, h.ring)}, env)
	if err != nil {
		t.Fatal(err)
	}
	env.onTimer = cli.HandleTimer
	h.net.AddNode("client/hint", transport.HandlerFunc(func(_ transport.NodeID, payload []byte) {
		cli.HandleMessage(payload)
	}))
	results := 0
	cli.OnResult = func(uint64, []byte) { results++ }
	lying := true
	h.net.AddFilter(func(from, to netsim.NodeID, payload []byte) ([]byte, bool) {
		if !lying {
			return nil, false
		}
		m, err := Decode(payload)
		if err != nil {
			return nil, false
		}
		switch msg := m.(type) {
		case *Request:
			return nil, from == "client/hint" && to == liar
		case *Reply:
			if from == liar {
				msg.View = 3
				SignMessage(h.group.Replicas[3].cfg.Auth, msg)
				return Encode(msg), false
			}
		}
		return nil, false
	})
	invoke := func() {
		t.Helper()
		want := results + 1
		if _, err := cli.Invoke([]byte(fmt.Sprintf("op-%d", want))); err != nil {
			t.Fatal(err)
		}
		if err := h.net.RunUntil(func() bool { return results == want }, 2_000_000); err != nil {
			t.Fatalf("invocation %d: %v", want, err)
		}
		h.net.Run(1_000_000)
	}
	for i := 0; i < 20; i++ {
		invoke()
	}
	if env.broadcasts != 0 {
		t.Errorf("%d retransmissions in 20 invocations beside one lying replica, want 0", env.broadcasts)
	}
	if cli.primary != 0 {
		t.Errorf("hint = replica %d, want the view-0 primary", cli.primary)
	}

	lying = false
	h.net.RemoveNode(h.group.Addrs[0]) // a real view change: every reply now names view 1
	invoke()
	if cli.primary != 1 {
		t.Errorf("hint = replica %d after the view change, want 1", cli.primary)
	}
	before := env.broadcasts
	invoke()
	if env.broadcasts != before {
		t.Errorf("call after the view change retransmitted: hint did not follow")
	}
}

// TestMechanismPerMessageType pins DESIGN §3's table: a commit and a reply —
// the two messages no certificate, proof, view change, state transfer or
// change_request ever carries — are tagged, and every other message, each of
// which can travel on as evidence, is signed.
func TestMechanismPerMessageType(t *testing.T) {
	fx, _ := newPhaseFixture(t)
	tagged := map[MsgType]int{MTCommit: 3, MTReply: 1} // tags made at n = 4
	for _, m := range []Message{
		&Request{ClientID: "grp/r2"}, &PrePrepare{Replica: 2}, &Prepare{Replica: 2}, &Commit{Replica: 2},
		&Reply{ClientID: "client:x", Replica: 2}, &Checkpoint{Replica: 2}, &ViewChange{Replica: 2},
		&NewView{Replica: 2}, &FetchState{Replica: 2}, &StateData{Replica: 2}, &FetchEntry{Replica: 2},
	} {
		sender := &countingAuth{Authenticator: fx.auths["grp/r2"]}
		signIn(sender, m, fx.ids)
		receiver := &countingAuth{Authenticator: fx.auths["grp/r1"]}
		if _, isReply := m.(*Reply); isReply {
			receiver.Authenticator = fx.auths["client:x"]
		}
		if !verifyIn(receiver, m, 1, fx.ids) {
			t.Errorf("%s: does not verify", m.Type())
		}
		if macs := tagged[m.Type()]; macs > 0 {
			if sender.macs != macs || sender.signs != 0 || receiver.macChecks != 1 || receiver.verifies != 0 {
				t.Errorf("%s: sender %d tags %d signatures, receiver %d tag checks %d verifications; want %d 0 1 0",
					m.Type(), sender.macs, sender.signs, receiver.macChecks, receiver.verifies, macs)
			}
			continue
		}
		if sender.signs != 1 || sender.macs != 0 || receiver.verifies != 1 || receiver.macChecks != 0 ||
			len(*m.sigRef()) != ed25519.SignatureSize {
			t.Errorf("%s: not Ed25519-signed: sender %d signatures %d tags, receiver %d verifications %d tag checks",
				m.Type(), sender.signs, sender.macs, receiver.verifies, receiver.macChecks)
		}
	}
}

// TestSenderIndexOutsideGroup: a message of any type a replica sends that
// names a sender the group does not have — index n, or the largest the
// decoder admits — is refused before any identity is looked up, at a replica
// and at a client: no authenticator call, no state change, nothing sent.
func TestSenderIndexOutsideGroup(t *testing.T) {
	fx, _ := newPhaseFixture(t)
	kinds := map[string]func(from ReplicaID) Message{
		"pre-prepare": func(from ReplicaID) Message {
			return &PrePrepare{Seq: 2, Digest: fx.d, Requests: []*Request{fx.req}, Replica: from}
		},
		"prepare": func(from ReplicaID) Message { return &Prepare{Seq: 1, Digest: fx.d, Replica: from} },
		"commit":  func(from ReplicaID) Message { return &Commit{Seq: 1, Digest: fx.d, Replica: from} },
		"reply": func(from ReplicaID) Message {
			return &Reply{ClientID: "client:x", ClientSeq: 1, Replica: from, Result: []byte("ack")}
		},
		"checkpoint":  func(from ReplicaID) Message { return &Checkpoint{Seq: 16, Replica: from} },
		"view-change": func(from ReplicaID) Message { return &ViewChange{NewView: 1, Replica: from} },
		"new-view":    func(from ReplicaID) Message { return &NewView{View: 1, Replica: from} },
		"fetch-state": func(from ReplicaID) Message { return &FetchState{Seq: 1, Replica: from} },
		"state-data":  func(from ReplicaID) Message { return &StateData{Seq: 16, Replica: from} },
		"fetch-entry": func(from ReplicaID) Message { return &FetchEntry{Seq: 1, Replica: from} },
	}
	for name, build := range kinds {
		for _, from := range []ReplicaID{4, 1 << 20} {
			m := build(from)
			signIn(fx.auths[fx.ids[2]], m, fx.ids) // replica 2's key under an invented index
			wire := Encode(m)
			if _, err := Decode(wire); err != nil {
				t.Fatalf("%s from %d: the decoder refuses it (%v), so the check is never reached", name, from, err)
			}
			t.Run(fmt.Sprintf("%s from %d", name, from), func(t *testing.T) {
				r, env, auth := fx.replica(t, "prepared")
				state, sent, checked := dumpReplica(r), len(env.out), auth.checks()
				r.HandleMessage(wire)
				if auth.checks() != checked || dumpReplica(r) != state || len(env.out) != sent {
					t.Errorf("replica: %d checks, state or sends changed", auth.checks()-checked)
				}
				cauth := &countingAuth{Authenticator: fx.auths["client:x"]}
				cenv := &recEnv{}
				cli, err := NewClient(ClientConfig{ID: "client:x", Group: "grp", ReplyAddr: "client/x", N: 4, F: 1, Auth: cauth}, cenv)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cli.Invoke([]byte("op")); err != nil {
					t.Fatal(err)
				}
				csent := len(cenv.out)
				cli.HandleMessage(wire)
				if cauth.checks() != 0 || len(cli.pending.replies) != 0 || len(cenv.out) != csent {
					t.Errorf("client: %d checks, %d replies counted", cauth.checks(), len(cli.pending.replies))
				}
			})
		}
	}
}
