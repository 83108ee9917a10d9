package replica

import (
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/orb"
	"itdos/internal/pbft"
	"itdos/internal/smiop"
)

// What an element still checks now that an ordered copy is admitted on the
// ordering layer's authentication of its sender (DESIGN §4 "One check per
// ordered hop"). Every scenario runs on netsim from a fixed seed.

// garbageSig signs nothing: 64 bytes no key ever produced.
func garbageSig([]byte) []byte { return make([]byte, 64) }

// gmAudit records every change_request the Group Manager orders and whether
// each proof item in it carries a signature that verifies — what must hold
// of anything that leaves a process as evidence.
type gmAudit struct {
	requests, items, unverified int
}

func auditChangeRequests(sys *System) *gmAudit {
	a := &gmAudit{}
	el := sys.gmDomain.Elements[0]
	inner := el.OnDeliver
	el.OnDeliver = func(seq uint64, sender string, data []byte) {
		if env, err := smiop.DecodeEnvelope(data); err == nil && env.Kind == smiop.KindChangeRequest {
			if cr, err := smiop.DecodeChangeRequest(env.Payload); err == nil {
				a.requests++
				for _, item := range cr.Proof {
					a.items++
					d := smiop.DataSigningDigest(cr.ConnID, cr.RequestID, cr.TargetDomain,
						item.Member, cr.Reply, item.GIOP)
					if !sys.verifyIdentity(sys.dataSigner(cr.TargetDomain, item.Member), d[:], item.Sig) {
						a.unverified++
					}
				}
			}
		}
		inner(seq, sender, data)
	}
	return a
}

// nestedVouchSystem is newNestedSystem with a metrics registry and, for
// member liar of the front domain (when >= 0), a servant that forwards a
// different value to the back domain than its peers do; opts edit the
// configuration last.
func nestedVouchSystem(t *testing.T, seed int64, liar int, opts ...func(*SystemConfig)) (*System, []*backServant, *obs.Registry) {
	t.Helper()
	backs := make([]*backServant, 4)
	for i := range backs {
		backs[i] = &backServant{}
	}
	reg := obs.NewRegistry()
	cfg := SystemConfig{
		Seed:     seed,
		Latency:  netsim.UniformLatency(time.Millisecond, 3*time.Millisecond),
		Registry: nestedRegistry(),
		Metrics:  reg,
		Domains: []DomainSpec{
			{Name: "front", N: 4, F: 1, Setup: func(member int, a *orb.Adapter) error {
				if member != liar {
					return a.Register("front", frontIface, frontServant{})
				}
				return a.Register("front", frontIface, orb.ServantFunc(
					func(ctx *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
						if op == "total" {
							args = []cdr.Value{args[0].(int32) + 1000}
						}
						return frontServant{}.Invoke(ctx, op, args)
					}))
			}},
			{Name: "back", N: 4, F: 1, Setup: func(member int, a *orb.Adapter) error {
				return a.Register("back", backIface, backs[member])
			}},
		},
		Clients: []ClientSpec{{Name: "alice"}},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys, backs, reg
}

// (1) A member of a replicated caller domain orders a copy whose envelope
// names another member, with a signature it had to invent: the ordered
// sender is not the claimed identity, so the payload signature is checked,
// fails, and the copy is dropped by every element.
func TestVouchForgedSourceMemberIsChecked(t *testing.T) {
	sys, backs, reg := nestedVouchSystem(t, 61, -1)
	alice := sys.Client("alice")
	if _, err := alice.CallAndRun(frontRef, "chainstore", []cdr.Value{"one"}, 20_000_000); err != nil {
		t.Fatal(err)
	}
	sys.Net.Run(3_000_000)
	front := sys.Domain("front")
	attacker, victim := front.Elements[1], front.Elements[2]
	connID, ok := victim.ConnTo("back")
	if !ok {
		t.Fatal("front has no connection to back")
	}
	// The attacker holds the connection key and so can seal in the victim's
	// name; the victim's own connection object stands in for that here.
	vconn := victim.conns[connID].conn
	opDef, err := sys.registry.Lookup(backIface, "keep")
	if err != nil {
		t.Fatal(err)
	}
	body, err := cdr.Marshal(opDef.ParamsType(), []cdr.Value{"forged"}, cdr.BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	reqID := vconn.CurrentRequestID() + 1
	req := &giop.Request{RequestID: reqID, ObjectKey: "back", Interface: backIface,
		Operation: "keep", ResponseExpected: true, Body: body}
	frames, err := vconn.SealGIOPWire(reqID, false,
		func(dst []byte) []byte { return giop.AppendRequest(dst, cdr.BigEndian, req) }, garbageSig, 0)
	if err != nil {
		t.Fatal(err)
	}
	droppedBefore := reg.Counter("smiop_dropped_total").Value()
	for _, f := range frames {
		attacker.sendOrdered("back", f.Detach())
	}
	sys.Net.Run(3_000_000)
	if got := sigChecks(reg, "rejected", "acceptor"); got != 4 {
		t.Fatalf("payload signature checked and rejected %d times, want once per back element", got)
	}
	if got := reg.Counter("smiop_dropped_total").Value() - droppedBefore; got != 4 {
		t.Fatalf("%d copies dropped, want 4", got)
	}
	if got := sigChecks(reg, "verified", "acceptor"); got != 0 {
		t.Fatalf("%d ordered copies took a payload check that passed; only the forged one should be checked", got)
	}
	// The forged request never ran; the honest one under the same id does.
	res, err := alice.CallAndRun(frontRef, "chainstore", []cdr.Value{"two"}, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(string) != "prev:one" {
		t.Fatalf("chainstore = %q: the forged keep executed", res[0])
	}
	sys.Net.Run(3_000_000)
	for i, b := range backs {
		if b.saved != "two" {
			t.Errorf("back replica %d state %q, want %q", i, b.saved, "two")
		}
	}
}

// (2) A fragmented message is vouched for only if every fragment was: with
// one fragment ordered by another identity the whole message takes the
// payload check — and passes or fails on its signature alone.
func TestVouchEveryFragmentOrNone(t *testing.T) {
	ts := newKVSystem(t, 62, nil)
	alice, bob := ts.sys.Client("alice"), ts.sys.Client("bob")
	const size = smiop.DefaultFragmentSize + 4<<10 // two fragments
	big := strings.Repeat("x", size)
	if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{big}, 10_000_000); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.Run(2_000_000)
	reg := ts.metrics
	assertFragmented(t, reg)
	if v, c := sigChecks(reg, "vouched", "acceptor"), sigChecks(reg, "verified", "acceptor"); v != 4 || c != 0 {
		t.Fatalf("honest fragmented request: %d vouched, %d verified; want 4 and 0", v, c)
	}
	connID, _ := alice.ConnTo("kv")
	conn := alice.conns[connID].conn
	opDef, err := ts.sys.registry.Lookup(kvIface, "store")
	if err != nil {
		t.Fatal(err)
	}
	// split sends a store of value with the first fragment ordered by alice
	// and the rest by bob.
	split := func(value string, sign func([]byte) []byte) {
		t.Helper()
		body, err := cdr.Marshal(opDef.ParamsType(), []cdr.Value{value}, cdr.BigEndian)
		if err != nil {
			t.Fatal(err)
		}
		reqID := conn.NextRequestID()
		req := &giop.Request{RequestID: reqID, ObjectKey: "kv", Interface: kvIface,
			Operation: "store", ResponseExpected: true, Body: body}
		frames, err := conn.SealGIOPWire(reqID, false,
			func(dst []byte) []byte { return giop.AppendRequest(dst, cdr.BigEndian, req) }, sign, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) < 2 {
			t.Fatalf("%d fragments: the scenario needs at least two", len(frames))
		}
		alice.sendOrdered("kv", frames[0].Detach())
		for _, f := range frames[1:] {
			bob.sendOrdered("kv", f.Detach())
		}
		ts.sys.Net.Run(3_000_000)
	}
	split(strings.Repeat("y", size), alice.sign)
	if v, c := sigChecks(reg, "vouched", "acceptor"), sigChecks(reg, "verified", "acceptor"); v != 4 || c != 4 {
		t.Fatalf("one fragment ordered by bob: %d vouched, %d verified; want 4 (unchanged) and 4", v, c)
	}
	for i, s := range ts.servants {
		if s.saved != strings.Repeat("y", size) {
			t.Errorf("replica %d did not execute the properly signed split message", i)
		}
	}
	split(strings.Repeat("z", size), garbageSig)
	if r := sigChecks(reg, "rejected", "acceptor"); r != 4 {
		t.Fatalf("split message with an invented signature: %d rejected, want 4", r)
	}
	for i, s := range ts.servants {
		if s.saved != strings.Repeat("y", size) {
			t.Errorf("replica %d executed a split message nobody signed", i)
		}
	}
}

// (3a) A copy whose ordered request is properly signed by the identity it
// claims counts as that member's vote whatever its payload signature: with
// the copies of two other members lost, the elements decide on this one and
// an honest one, which they could not if it were dropped.
func TestVouchedCopyCountsAsVote(t *testing.T) {
	sys, _, reg := nestedVouchSystem(t, 63, -1)
	audit := auditChangeRequests(sys)
	alice := sys.Client("alice")
	if _, err := alice.CallAndRun(frontRef, "total", []cdr.Value{int32(1)}, 20_000_000); err != nil {
		t.Fatal(err)
	}
	sys.Net.Run(3_000_000)
	sys.Domain("front").Elements[1].sign = garbageSig
	sys.Net.AddFilter(func(from, _ netsim.NodeID, _ []byte) ([]byte, bool) {
		return nil, from == "front/r2/tx/back" || from == "front/r3/tx/back"
	})
	res, err := alice.CallAndRun(frontRef, "total", []cdr.Value{int32(4)}, 1_000_000)
	if err != nil {
		t.Fatalf("back could not decide on front/r0's and front/r1's copies: %v", err)
	}
	if got := res[0].(int32); got != 41 {
		t.Fatalf("total = %d, want 41", got)
	}
	sys.Net.ClearFilters()
	sys.Net.Run(5_000_000)
	if got := sigChecks(reg, "rejected", "acceptor") + sigChecks(reg, "verified", "acceptor"); got != 0 {
		t.Errorf("%d payload checks on ordered request copies, want 0", got)
	}
	if audit.requests != 0 {
		t.Errorf("%d change_requests filed over an agreeing copy", audit.requests)
	}
	for j, mgr := range sys.GMManagers {
		if len(mgr.Expulsions) != 0 {
			t.Errorf("GM element %d expelled %+v", j, mgr.Expulsions)
		}
	}
}

// (3b) The same member also sends a wrong value: its vouched copy conflicts,
// f+1 elements accuse it bare, and the Group Manager expels it as it would a
// liar whose payload signature was good. No proof is involved, so no
// unverified signature travels.
func TestVouchedLiarIsAccusedBare(t *testing.T) {
	sys, _, reg := nestedVouchSystem(t, 64, 1)
	audit := auditChangeRequests(sys)
	sys.Domain("front").Elements[1].sign = garbageSig
	alice := sys.Client("alice")
	res, err := alice.CallAndRun(frontRef, "total", []cdr.Value{int32(4)}, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int32); got != 41 {
		t.Fatalf("total = %d, want 41: the liar's value won", got)
	}
	if err := sys.RunUntil(func() bool {
		for _, mgr := range sys.GMManagers {
			if !mgr.IsExpelled("front", 1) {
				return false
			}
		}
		return true
	}, 20_000_000); err != nil {
		t.Fatalf("front/r1 was not expelled: %v", err)
	}
	sys.Net.Run(3_000_000)
	for j, mgr := range sys.GMManagers {
		if len(mgr.Expulsions) != 1 || mgr.Expulsions[0].ByProof {
			t.Errorf("GM element %d expulsions = %+v, want one by domain accusation", j, mgr.Expulsions)
		}
	}
	if got := reg.Counter("gm_rejected_proofs_total").Value(); got != 0 {
		t.Errorf("gm_rejected_proofs_total = %d", got)
	}
	if audit.requests == 0 || audit.unverified != 0 {
		t.Errorf("%d change_requests, %d of %d proof items with a signature that does not verify",
			audit.requests, audit.unverified, audit.items)
	}
}

// Proof comes only from singleton accusers, and a singleton only ever sees
// direct copies: nothing it votes was vouched for, and every signature in
// the proof it files verifies.
func TestProofCarriesOnlyVerifiedSignatures(t *testing.T) {
	ts := newKVSystem(t, 65, nil)
	audit := auditChangeRequests(ts.sys)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	evil := orb.ServantFunc(func(*orb.CallContext, string, []cdr.Value) ([]cdr.Value, error) {
		return []cdr.Value{666.0}, nil
	})
	if err := ts.sys.Domain("kv").Elements[2].Adapter.Register("kv", kvIface, evil); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{2.0, 2.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := ts.sys.RunUntil(func() bool { return ts.sys.GMManagers[0].IsExpelled("kv", 2) }, 10_000_000); err != nil {
		t.Fatalf("kv/r2 was not expelled: %v", err)
	}
	if audit.items < 3 || audit.unverified != 0 {
		t.Fatalf("%d proof items reached the Group Manager, %d with a signature that does not verify",
			audit.items, audit.unverified)
	}
	if got := sigChecks(ts.metrics, "vouched", "initiator"); got != 0 {
		t.Fatalf("%d reply copies vouched for at singleton clients, which have no ordered channel", got)
	}
}

// (4) The direct channels authenticate no sender, so what the ordered path
// takes on the ordering layer's word is checked there: a reply with an
// invented signature is rejected at the client inbox, a read-only request
// with one at the element inbox, while the same request on the ordered path
// is accepted.
func TestDirectChannelAlwaysChecks(t *testing.T) {
	ts := newKVSystem(t, 66, declareGetReadOnly)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"v"}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.Run(2_000_000)
	reg := ts.metrics

	// Client inbox: only kv/r0's and kv/r1's replies get through, and kv/r1
	// signs with garbage. Two copies of the right value are not a decision.
	kv := ts.sys.Domain("kv")
	honest := kv.Elements[1].sign
	kv.Elements[1].sign = garbageSig
	ts.sys.Net.AddFilter(func(from, to netsim.NodeID, _ []byte) ([]byte, bool) {
		return nil, string(to) == clientInboxAddr("alice") && (from == "kv/r2" || from == "kv/r3")
	})
	call := alice.Go(func() error {
		_, err := alice.Call(kvRef, "add", []cdr.Value{1.0, 2.0})
		return err
	})
	ts.sys.Net.RunFor(100 * time.Millisecond)
	if call.Done() {
		t.Fatal("the client decided on one good signature and one invented one")
	}
	if got := sigChecks(reg, "rejected", "initiator"); got == 0 {
		t.Fatal("the invented reply signature was never checked at the client inbox")
	}
	kv.Elements[1].sign = honest
	ts.sys.Net.ClearFilters()
	if err := ts.sys.RunUntil(call.Done, 20_000_000); err != nil || call.Err() != nil {
		t.Fatalf("call after the filter lifted: %v / %v", err, call.Err())
	}
	ts.sys.Net.Run(2_000_000)

	// Element inbox: alice signs with garbage. The direct read-only copies
	// are rejected by every element; the ordered fallback is accepted.
	alice.sign = garbageSig
	vouched := sigChecks(reg, "vouched", "acceptor")
	res, err := alice.CallAndRun(kvRef, "get", nil, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(string) != "v" {
		t.Fatalf("get = %q", res[0])
	}
	for i, el := range kv.Elements {
		if el.ReadOnlyUpcalls != 0 {
			t.Errorf("element %d served a direct request whose signature nobody made", i)
		}
	}
	if got := reg.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value(); got != 1 {
		t.Errorf("fallbacks = %d, want 1 (the direct copies were dropped)", got)
	}
	if got := sigChecks(reg, "vouched", "acceptor") - vouched; got != 4 {
		t.Errorf("%d ordered copies of the fallback request vouched for, want 4", got)
	}
}

// (5) An envelope that waits for its connection's key keeps the sender it
// was ordered with: when the key arrives it is admitted without a payload
// check, like one that never waited.
func TestHeldEnvelopeKeepsOrderedSender(t *testing.T) {
	ts := newKVSystem(t, 67, nil)
	alice := ts.sys.Client("alice")
	// Three of the four Group Manager elements cannot reach kv's ordering
	// group for now: alice combines her key from the direct shares, kv's
	// elements hold one share of the three they need.
	ts.sys.Net.AddFilter(func(from, _ netsim.NodeID, _ []byte) ([]byte, bool) {
		f := string(from)
		return nil, strings.HasSuffix(f, "/tx/kv") && strings.HasPrefix(f, GMDomainName+"/") && f != "gm/r0/tx/kv"
	})
	var sum float64
	call := alice.Go(func() error {
		res, err := alice.Call(kvRef, "add", []cdr.Value{2.0, 3.0})
		if err == nil {
			sum = res[0].(float64)
		}
		return err
	})
	el := ts.sys.Domain("kv").Elements[0]
	if err := ts.sys.RunUntil(func() bool { return len(el.held) > 0 }, 20_000_000); err != nil {
		t.Fatalf("no envelope was ever held: %v", err)
	}
	if got := el.held[0].env.OrderedBy; got != "alice" {
		t.Fatalf("held envelope ordered by %q, want alice", got)
	}
	ts.sys.Net.ClearFilters()
	if err := ts.sys.RunUntil(call.Done, 20_000_000); err != nil || call.Err() != nil || sum != 5.0 {
		t.Fatalf("call: %v / %v, sum %v", err, call.Err(), sum)
	}
	ts.sys.Net.Run(2_000_000)
	if v, c := sigChecks(ts.metrics, "vouched", "acceptor"), sigChecks(ts.metrics, "verified", "acceptor"); v < 4 || c != 0 {
		t.Fatalf("after the drain: %d vouched, %d verified; want every element's copy vouched and none verified", v, c)
	}
}

// stateDigestsAgree fails unless every element of the domain would certify
// the same checkpoint now.
func stateDigestsAgree(t *testing.T, dr *DomainRuntime) {
	t.Helper()
	ref := dr.Dom.Elements[0].Replica.StateDigest()
	for i, el := range dr.Dom.Elements {
		if got := el.Replica.StateDigest(); got != ref {
			t.Errorf("element %d state digest %x, element 0 %x", i, got[:6], ref[:6])
		}
	}
}

// (6a) An element that falls behind and catches up by state transfer replays
// what it missed with the senders the checkpoint certified: it executes
// every call, checks no payload signature, and ends in the others' state.
func TestStateTransferReplaysCertifiedSender(t *testing.T) {
	ts := newKVSystem(t, 68, func(cfg *SystemConfig) { cfg.CheckpointInterval = 4 })
	alice := ts.sys.Client("alice")
	calls := 0
	add := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, float64(calls)}, 20_000_000); err != nil {
				t.Fatalf("call %d: %v", calls, err)
			}
			calls++
		}
	}
	add(1)
	ts.sys.Net.Run(2_000_000)
	ts.sys.Net.AddFilter(func(from, to netsim.NodeID, _ []byte) ([]byte, bool) {
		return nil, from == "kv/r3" || to == "kv/r3"
	})
	add(10)
	if got := ts.servants[3].mutations; got != 1 {
		t.Fatalf("the cut-off element executed %d calls, want 1", got)
	}
	ts.sys.Net.ClearFilters()
	add(6)
	ts.sys.Net.Run(5_000_000)
	kv := ts.sys.Domain("kv")
	if got := ts.metrics.Counter("pbft_state_transfers_total", "group=kv").Value(); got == 0 {
		t.Fatal("no state transfer happened; the test exercised nothing")
	}
	if kv.Elements[3].Desynced {
		t.Fatal("the lagging element desynced")
	}
	for i, s := range ts.servants {
		if int(s.mutations) != calls {
			t.Errorf("replica %d executed %d calls, want %d", i, s.mutations, calls)
		}
	}
	if got := sigChecks(ts.metrics, "verified", "acceptor") + sigChecks(ts.metrics, "rejected", "acceptor"); got != 0 {
		t.Errorf("%d payload checks at the elements, want 0: replayed copies carry a certified sender", got)
	}
	if got := sigChecks(ts.metrics, "vouched", "acceptor"); got != 4*calls {
		t.Errorf("%d copies vouched for, want %d", got, 4*calls)
	}
	stateDigestsAgree(t, kv)
}

// (6b) A speculation rolled back by a view change redelivers under the same
// sender: every call still executes once, no payload signature is checked,
// and the elements agree.
func TestSpeculationRollbackKeepsSender(t *testing.T) {
	ts := newKVSystem(t, 69, func(cfg *SystemConfig) { cfg.TentativeExecution = true })
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.Run(2_000_000)
	// kv's view-0 commits are lost: the next call executes speculatively
	// everywhere and commits only after the view change re-proposes it.
	ts.sys.Net.AddFilter(func(_, to netsim.NodeID, payload []byte) ([]byte, bool) {
		if !strings.HasPrefix(string(to), "kv/r") {
			return nil, false
		}
		m, err := pbft.Decode(payload)
		if err != nil {
			return nil, false
		}
		c, ok := m.(*pbft.Commit)
		return nil, ok && c.View == 0
	})
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{2.0, 2.0}, 20_000_000); err != nil {
		t.Fatal(err)
	}
	kv := ts.sys.Domain("kv")
	if err := ts.sys.RunUntil(func() bool { return kv.Dom.Elements[0].Replica.View() > 0 }, 20_000_000); err != nil {
		t.Fatalf("no view change: %v", err)
	}
	ts.sys.Net.ClearFilters()
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{3.0, 3.0}, 20_000_000); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.Run(5_000_000)
	if got := ts.metrics.Counter("pbft_tentative_rollbacks_total", "group=kv").Value(); got == 0 {
		t.Fatal("no speculation was rolled back; the test exercised nothing")
	}
	for i, s := range ts.servants {
		if s.mutations != 3 {
			t.Errorf("replica %d executed %d calls, want 3", i, s.mutations)
		}
		if kv.Elements[i].Desynced {
			t.Errorf("element %d desynced", i)
		}
	}
	if got := sigChecks(ts.metrics, "verified", "acceptor") + sigChecks(ts.metrics, "rejected", "acceptor"); got != 0 {
		t.Errorf("%d payload checks at the elements, want 0", got)
	}
	stateDigestsAgree(t, kv)
}
