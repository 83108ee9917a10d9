package replica

import (
	"strings"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/orb"
	"itdos/internal/smiop"

	"time"
)

const ctrIface = "IDL:test/Counter:1.0"

// TestAtMostOnceAcrossRekey reproduces the race between an in-flight call
// and the rekey triggered by an expulsion: the middleware retries the call
// under the new key with the same request id, and acceptors answer from
// their reply cache, so the counter increments exactly once per call even
// when the retry path fires.
func TestAtMostOnceAcrossRekey(t *testing.T) {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(ctrIface).
		Op("inc", nil, []idl.Param{{Name: "v", Type: cdr.LongLong}}))

	// Try several seeds so at least one exercises the rekey-during-call
	// race (seed 1 does at the time of writing; the assertion holds for
	// all of them regardless).
	for _, seed := range []int64{1, 2, 3} {
		counters := make([]int64, 4)
		sys, err := NewSystem(SystemConfig{
			Seed:     seed,
			Latency:  netsim.UniformLatency(time.Millisecond, 3*time.Millisecond),
			Registry: reg,
			Domains: []DomainSpec{{
				Name: "ctr", N: 4, F: 1,
				Setup: func(member int, a *orb.Adapter) error {
					return a.Register("ctr", ctrIface, orb.ServantFunc(
						func(_ *orb.CallContext, _ string, _ []cdr.Value) ([]cdr.Value, error) {
							counters[member]++
							return []cdr.Value{counters[member]}, nil
						}))
				},
			}},
			Clients: []ClientSpec{{Name: "alice"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := orb.ObjectRef{Domain: "ctr", ObjectKey: "ctr", Interface: ctrIface}
		alice := sys.Client("alice")
		want := int64(0)
		for i := 0; i < 8; i++ {
			if i == 2 {
				// Compromise replica 2: subsequent calls race the
				// detection → expulsion → rekey pipeline.
				evil := orb.ServantFunc(func(_ *orb.CallContext, _ string, _ []cdr.Value) ([]cdr.Value, error) {
					return []cdr.Value{int64(-1)}, nil
				})
				if err := sys.Domain("ctr").Elements[2].Adapter.Register("ctr", ctrIface, evil); err != nil {
					t.Fatal(err)
				}
			}
			res, err := alice.CallAndRun(ref, "inc", nil, 50_000_000)
			if err != nil {
				t.Fatalf("seed %d call %d: %v", seed, i, err)
			}
			want++
			if got := res[0].(int64); got != want {
				t.Fatalf("seed %d call %d: counter = %d, want %d (at-most-once violated)",
					seed, i, got, want)
			}
		}
		sys.Net.Run(3_000_000)
		// Correct replicas agree on the final count.
		for m, c := range counters {
			if m == 2 {
				continue
			}
			if c != want {
				t.Fatalf("seed %d: replica %d executed %d ops, want %d", seed, m, c, want)
			}
		}
		_ = sys.Close()
	}
}

// TestCachedReplyRetransmissionFragmented: a retried request (same id)
// whose cached reply is larger than the fragment size must be answered
// from the reply cache as a full fragmented retransmission — without
// re-executing the servant — and the client must reassemble and decide
// even when one element's retransmitted fragments are lost.
func TestCachedReplyRetransmissionFragmented(t *testing.T) {
	const blobSize = 5 * smiop.DefaultFragmentSize // six fragments a reply
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(ctrIface).
		Op("fetch",
			[]idl.Param{{Name: "size", Type: cdr.Long}},
			[]idl.Param{{Name: "blob", Type: cdr.String}}))
	executions := make([]int, 4)
	metrics := obs.NewRegistry()
	sys, err := NewSystem(SystemConfig{
		Seed:     21,
		Latency:  netsim.UniformLatency(time.Millisecond, 2*time.Millisecond),
		Registry: reg,
		Metrics:  metrics,
		Domains: []DomainSpec{{
			Name: "ctr", N: 4, F: 1,
			Profiles: []Profile{SolarisLike, LinuxLike, SolarisLike, LinuxLike},
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("ctr", ctrIface, orb.ServantFunc(
					func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
						executions[member]++
						n := int(args[0].(int32))
						return []cdr.Value{strings.Repeat("payload-", n/8+1)[:n]}, nil
					}))
			},
		}},
		Clients: []ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ref := orb.ObjectRef{Domain: "ctr", ObjectKey: "ctr", Interface: ctrIface}
	alice := sys.Client("alice")
	res, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(blobSize)}, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	blob := res[0].(string)
	if len(blob) != blobSize {
		t.Fatalf("fetched %d bytes, want %d", len(blob), blobSize)
	}

	// Re-issue the SAME request id (the rekey retry path) while element 3's
	// direct replies are being dropped: the other elements retransmit their
	// cached fragmented replies and the client still reassembles and votes.
	sys.Net.AddFilter(func(from, to netsim.NodeID, _ []byte) ([]byte, bool) {
		return nil, string(from) == ElementIdentity("ctr", 3) && string(to) == clientInboxAddr("alice")
	})
	op, err := reg.Lookup(ctrIface, "fetch")
	if err != nil {
		t.Fatal(err)
	}
	body, err := cdr.Marshal(op.ParamsType(), []cdr.Value{int32(blobSize)}, alice.profile.Order)
	if err != nil {
		t.Fatal(err)
	}
	var retryBlob string
	a := alice.Go(func() error {
		req := &giop.Request{
			ObjectKey: "ctr", Interface: ctrIface, Operation: "fetch",
			ResponseExpected: true, Body: body,
		}
		reply, order, err := alice.invokeOnce(ref, req, true)
		if err != nil {
			return err
		}
		out, err := cdr.Unmarshal(op.ResultsType(), reply.Body, order)
		if err != nil {
			return err
		}
		retryBlob = out.([]cdr.Value)[0].(string)
		return nil
	})
	if err := sys.RunUntil(a.Done, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
	if retryBlob != blob {
		t.Fatalf("retransmitted blob differs: %d bytes vs %d", len(retryBlob), len(blob))
	}
	sys.Net.Run(2_000_000)
	// The retransmission came from the reply cache: no re-execution.
	for m, n := range executions {
		if n != 1 {
			t.Errorf("element %d executed %d times, want 1 (cache must answer retries)", m, n)
		}
	}
	assertFragmented(t, metrics)
}

// TestCallSurvivesElementsRekeyingLate is the seeded twin of a wedge found on
// loopback TCP under load (TestTransportEquivalence, one call in ~40 never
// completing right after the liar's expulsion). A rekey reaches the client on
// the direct channel and the target's elements through their own ordering
// group, so either side can have the new key first. When the client has it
// first, its next request — sealed under a key no element holds yet — is
// ordered, fails to open at every element alike, and is dropped; nothing ever
// sent it again. On the simulator the elements' shares always won the race;
// here they are held back until the request has been ordered.
func TestCallSurvivesElementsRekeyingLate(t *testing.T) {
	ts := newCalcSystem(t, 7, nil)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	evil := func(*orb.CallContext, string, []cdr.Value) ([]cdr.Value, error) {
		return []cdr.Value{666.0}, nil
	}
	if err := ts.sys.Domain("calc").Elements[2].Adapter.Register("calc", calcIface,
		orb.ServantFunc(evil)); err != nil {
		t.Fatal(err)
	}
	// The Group Manager's sends into calc's ordering group are lost for now:
	// calc's elements will not hear of the rekey. Its direct sends to alice
	// arrive.
	ts.sys.Net.AddFilter(func(from, _ netsim.NodeID, _ []byte) ([]byte, bool) {
		return nil, strings.HasPrefix(string(from), GMDomainName+"/") && strings.HasSuffix(string(from), "/tx/calc")
	})
	if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{2.0, 2.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	connID, _ := alice.ConnTo("calc")
	if err := ts.sys.RunUntil(func() bool { return alice.Conn(connID).KeyEra() == 1 }, 10_000_000); err != nil {
		t.Fatalf("the client never rekeyed: %v", err)
	}
	for i, el := range ts.sys.Domain("calc").Elements {
		if era := el.Conn(connID).KeyEra(); era != 0 {
			t.Fatalf("element %d is already in era %d: the scenario needs it behind the client", i, era)
		}
	}

	var sum float64
	call := alice.Go(func() error {
		res, err := alice.Call(calcRef, "add", []cdr.Value{3.0, 3.0})
		if err == nil {
			sum = res[0].(float64)
		}
		return err
	})
	// Long enough for calc to order the request and every element to drop it.
	ts.sys.Net.RunFor(60 * time.Millisecond)
	if call.Done() {
		t.Fatal("the call completed although no element could open its request")
	}
	for i, s := range ts.servants {
		if i != 2 && s.calls != 2 {
			t.Fatalf("element %d has executed %d calls, want 2: the request was not dropped", i, s.calls)
		}
	}
	ts.sys.Net.ClearFilters() // the Group Manager's retransmissions now get through
	if err := ts.sys.RunUntil(call.Done, 20_000_000); err != nil {
		t.Fatalf("the call never completed once the elements had rekeyed: %v", err)
	}
	if call.Err() != nil || sum != 6.0 {
		t.Fatalf("call: %v, sum %v", call.Err(), sum)
	}
	ts.sys.Net.Run(1_000_000)
	for i, s := range ts.servants {
		if i != 2 && s.calls != 3 {
			t.Errorf("element %d executed %d calls, want 3 (the resent request runs once)", i, s.calls)
		}
	}
}
