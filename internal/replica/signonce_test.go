package replica

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/itc"
	"itdos/internal/netsim"
	"itdos/internal/pbft"
	"itdos/internal/smiop"
)

// A singleton caller's ordered request carries no payload signature: the
// PBFT Request around it, signed by the same key, is its one signature
// (DESIGN §4 "One check per ordered hop"). These are the rows of that rule.

// countSigns wraps an endpoint's signer and reports how often it signed.
func countSigns(ep *endpoint) *int {
	n := new(int)
	sign := ep.sign
	ep.sign = func(d []byte) []byte {
		*n++
		return sign(d)
	}
	return n
}

// acceptorView returns element el's connection state for the connection
// the client initiated to domain.
func acceptorView(t *testing.T, cl *endpoint, el *Element, domain string) *connState {
	t.Helper()
	id, ok := cl.ConnTo(domain)
	if !ok {
		t.Fatalf("%s has no connection to %s", cl.identity, domain)
	}
	cs, ok := el.conns[id]
	if !ok {
		t.Fatalf("%s holds no connection %d", el.identity, id)
	}
	return cs
}

// decidedSigs decodes the signatures of the copies a vote decided on.
func decidedSigs(t *testing.T, cs *connState) [][]byte {
	t.Helper()
	var sigs [][]byte
	for _, raw := range cs.lastDecision.SupporterRaws {
		p, err := smiop.DecodeSignedPayload(raw)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, p.Sig)
	}
	return sigs
}

// sealUnsigned seals a kv request of op on client's connection to kv with
// no payload signature, as an ordered call is sealed, under a fresh id.
func sealUnsigned(t *testing.T, ts *kvSys, client *Client, op string, readOnly bool, args ...cdr.Value) []byte {
	t.Helper()
	id, _ := client.ConnTo("kv")
	conn := client.conns[id].conn
	opDef, err := ts.sys.registry.Lookup(kvIface, op)
	if err != nil {
		t.Fatal(err)
	}
	body, err := cdr.Marshal(opDef.ParamsType(), args, cdr.BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	reqID := conn.NextRequestID()
	req := &giop.Request{RequestID: reqID, ObjectKey: "kv", Interface: kvIface,
		Operation: op, ResponseExpected: true, ReadOnly: readOnly, Body: body}
	frames, err := conn.SealGIOPWire(reqID, false,
		func(dst []byte) []byte { return giop.AppendRequest(dst, cdr.BigEndian, req) }, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("%d frames, want 1", len(frames))
	}
	return frames[0].Detach()
}

func TestOrderedCallSignedOnce(t *testing.T) {
	// (a) Each ordered call of a singleton makes one signature, its PBFT
	// Request's, and the copy every element decides on carries an empty Sig.
	t.Run("singleton ordered call", func(t *testing.T) {
		ts := newKVSystem(t, 71, nil)
		alice := ts.sys.Client("alice")
		if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
			t.Fatal(err)
		}
		ts.sys.Net.Run(2_000_000)
		payloadSigns := countSigns(&alice.endpoint)
		requests := map[uint64]bool{}
		ts.sys.Net.AddFilter(func(from, _ netsim.NodeID, payload []byte) ([]byte, bool) {
			if from == "alice/tx/kv" {
				if m, err := pbft.Decode(payload); err == nil {
					if r, ok := m.(*pbft.Request); ok && r.ClientID == "alice" {
						requests[r.ClientSeq] = true
					}
				}
			}
			return nil, false
		})
		const calls = 5
		for i := 0; i < calls; i++ {
			if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, float64(i)}, 5_000_000); err != nil {
				t.Fatal(err)
			}
			ts.sys.Net.Run(2_000_000)
			for _, el := range ts.sys.Domain("kv").Elements {
				sigs := decidedSigs(t, acceptorView(t, &alice.endpoint, el, "kv"))
				if len(sigs) != 1 || len(sigs[0]) != 0 {
					t.Fatalf("call %d: %s decided on signatures of %v octets, want one empty", i, el.identity, sigs)
				}
			}
		}
		if *payloadSigns != 0 {
			t.Errorf("%d payload signatures over %d ordered calls, want 0", *payloadSigns, calls)
		}
		if len(requests) != calls {
			t.Errorf("%d signed PBFT requests over %d ordered calls, want one each", len(requests), calls)
		}
		if got := sigChecks(ts.metrics, "vouched", "acceptor"); got != 4*(calls+1) {
			t.Errorf("%d copies vouched for, want %d", got, 4*(calls+1))
		}
	})

	// (b) The same unsigned payload on an element's direct inbox has no
	// ordered sender to vouch for it: refused, counted, never served.
	t.Run("unsigned direct copy refused", func(t *testing.T) {
		ts := newKVSystem(t, 72, declareGetReadOnly)
		alice := ts.sys.Client("alice")
		if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"v"}, 5_000_000); err != nil {
			t.Fatal(err)
		}
		ts.sys.Net.Run(2_000_000)
		dropped := ts.metrics.Counter("smiop_dropped_total").Value()
		rejected := sigChecks(ts.metrics, "rejected", "acceptor")
		frame := sealUnsigned(t, ts, alice, "get", true)
		ts.sys.tr.Send(netsim.NodeID("alice"), netsim.NodeID(elementInboxAddr("kv", 0)), frame)
		ts.sys.Net.Run(2_000_000)
		if got := sigChecks(ts.metrics, "rejected", "acceptor") - rejected; got != 1 {
			t.Errorf("%d rejected signature checks, want 1", got)
		}
		if got := ts.metrics.Counter("smiop_dropped_total").Value() - dropped; got != 1 {
			t.Errorf("%d dropped, want 1", got)
		}
		if n := ts.sys.Domain("kv").Elements[0].ReadOnlyUpcalls; n != 0 {
			t.Errorf("the element served %d unsigned direct requests", n)
		}
	})

	// (c) An unsigned copy ordered by another identity than the one it
	// claims is not vouched for, and its empty signature fails the check.
	t.Run("unsigned copy ordered by another", func(t *testing.T) {
		ts := newKVSystem(t, 73, nil)
		alice, bob := ts.sys.Client("alice"), ts.sys.Client("bob")
		if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"honest"}, 5_000_000); err != nil {
			t.Fatal(err)
		}
		ts.sys.Net.Run(2_000_000)
		dropped := ts.metrics.Counter("smiop_dropped_total").Value()
		bob.sendOrdered("kv", sealUnsigned(t, ts, alice, "store", false, "forged"))
		ts.sys.Net.Run(3_000_000)
		if got := sigChecks(ts.metrics, "rejected", "acceptor"); got != 4 {
			t.Errorf("%d rejected signature checks, want one per element", got)
		}
		if got := ts.metrics.Counter("smiop_dropped_total").Value() - dropped; got != 4 {
			t.Errorf("%d dropped, want 4", got)
		}
		for i, s := range ts.servants {
			if s.saved != "honest" {
				t.Errorf("replica %d executed the copy bob ordered in alice's name: state %q", i, s.saved)
			}
		}
	})

	// (d) The read-only direct path still signs once and still verifies at
	// every element.
	t.Run("read-only direct path signs", func(t *testing.T) {
		ts := newKVSystem(t, 74, declareGetReadOnly)
		alice := ts.sys.Client("alice")
		if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"v"}, 5_000_000); err != nil {
			t.Fatal(err)
		}
		ts.sys.Net.Run(2_000_000)
		signs := countSigns(&alice.endpoint)
		verified := sigChecks(ts.metrics, "verified", "acceptor")
		res, err := alice.CallAndRun(kvRef, "get", nil, 5_000_000)
		if err != nil || res[0].(string) != "v" {
			t.Fatalf("get = %v, %v", res, err)
		}
		ts.sys.Net.Run(2_000_000)
		if *signs != 1 {
			t.Errorf("%d payload signatures for one direct request, want 1", *signs)
		}
		if got := sigChecks(ts.metrics, "verified", "acceptor") - verified; got != 4 {
			t.Errorf("%d element checks of the direct request passed, want 4", got)
		}
		var served uint64
		for _, el := range ts.sys.Domain("kv").Elements {
			served += el.ReadOnlyUpcalls
		}
		if served == 0 {
			t.Error("no element served the direct request")
		}
	})

	// (e) A member of a replicated caller still signs its ordered requests,
	// and a proof built from the copies another domain decided on passes
	// the Group Manager's proof validation.
	t.Run("replicated caller signs", func(t *testing.T) {
		sys, _, _ := nestedVouchSystem(t, 75, -1, func(cfg *SystemConfig) { cfg.ITC = &itc.Config{} })
		alice := sys.Client("alice")
		if _, err := alice.CallAndRun(frontRef, "total", []cdr.Value{int32(2)}, 20_000_000); err != nil {
			t.Fatal(err)
		}
		sys.Net.Run(3_000_000)
		front := sys.Domain("front")
		cs := acceptorView(t, &front.Elements[0].endpoint, sys.Domain("back").Elements[0], "back")
		dec := cs.lastDecision
		cr := &smiop.ChangeRequest{TargetDomain: "front", ConnID: cs.conn.ID, RequestID: cs.decidedReqID,
			Interface: cs.lastVal.Interface, Operation: cs.lastVal.Operation}
		inDecision := map[int]bool{}
		for i, m := range dec.Supporters {
			inDecision[m] = true
			p, err := smiop.DecodeSignedPayload(dec.SupporterRaws[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Sig) != smiop.SignatureSize {
				t.Fatalf("front/r%d's ordered request carries a %d-octet signature", m, len(p.Sig))
			}
			cr.Proof = append(cr.Proof, smiop.ProofItem{Member: uint32(m), GIOP: p.GIOP, Sig: p.Sig})
		}
		// The accused: a member outside the decision, made to sign another
		// value in the same context, as a liar would.
		accused := 0
		for inDecision[accused] {
			accused++
		}
		opDef, err := sys.registry.Lookup(backIface, cr.Operation)
		if err != nil {
			t.Fatal(err)
		}
		body, err := cdr.Marshal(opDef.ParamsType(), []cdr.Value{int32(999)}, cdr.BigEndian)
		if err != nil {
			t.Fatal(err)
		}
		lie := giop.AppendRequest(nil, cdr.BigEndian, &giop.Request{RequestID: cr.RequestID, ObjectKey: "back",
			Interface: backIface, Operation: cr.Operation, ResponseExpected: true, Body: body})
		d := smiop.DataSigningDigest(cr.ConnID, cr.RequestID, "front", uint32(accused), false, lie)
		cr.Accused = uint32(accused)
		cr.Proof = append(cr.Proof, smiop.ProofItem{Member: uint32(accused), GIOP: lie,
			Sig: front.Elements[accused].sign(d[:])})
		(&itcActions{sys: sys}).FileAccusation(cr)
		if err := sys.RunUntil(func() bool {
			for _, mgr := range sys.GMManagers {
				if !mgr.IsExpelled("front", accused) {
					return false
				}
			}
			return true
		}, 20_000_000); err != nil {
			t.Fatalf("the proof did not expel front/r%d: %v", accused, err)
		}
		for j, mgr := range sys.GMManagers {
			if len(mgr.Expulsions) != 1 || !mgr.Expulsions[0].ByProof || mgr.RejectedProofs != 0 {
				t.Errorf("GM element %d: expulsions %+v, %d rejected proofs; want one by proof",
					j, mgr.Expulsions, mgr.RejectedProofs)
			}
		}
	})
}

// workerGoroutines counts the ORB goroutines alive in the process.
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("replica.newWorker.func"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCloseWithParkedCall: with every reply lost, a call stays parked,
// re-sending forever. Close fails it, joins its ORB goroutine and returns.
func TestCloseWithParkedCall(t *testing.T) {
	before := workerGoroutines()
	ts := newKVSystem(t, 76, nil)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.AddFilter(func(_, to netsim.NodeID, _ []byte) ([]byte, bool) {
		return nil, to == netsim.NodeID(clientInboxAddr("alice"))
	})
	call := alice.Go(func() error {
		_, err := alice.Call(kvRef, "add", []cdr.Value{2.0, 2.0})
		return err
	})
	ts.sys.Net.RunFor(5 * time.Second)
	if call.Done() {
		t.Fatalf("the call completed with every reply lost: %v", call.Err())
	}
	if ts.metrics.Counter("smiop_call_resends_total").Value() == 0 {
		t.Fatal("the parked call never re-sent; the test exercised nothing")
	}
	closed := make(chan error, 1)
	go func() { closed <- ts.sys.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close did not return with a call parked")
	}
	if !call.Done() || !errors.Is(call.Err(), errClosed) {
		t.Fatalf("parked call: done %v, err %v; want it failed by the close", call.Done(), call.Err())
	}
	if n := workerGoroutines(); n > before {
		t.Errorf("%d ORB goroutines left after close, %d before the system was built", n, before)
	}
}
