package replica

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/orb"
	"itdos/internal/smiop"
)

const calcIface = "IDL:itdos/Calc:1.0"

func calcRegistry() *idl.Registry {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(calcIface).
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}).
		Op("count",
			nil,
			[]idl.Param{{Name: "n", Type: cdr.Long}}).
		Op("store",
			[]idl.Param{{Name: "v", Type: cdr.String}},
			[]idl.Param{{Name: "prev", Type: cdr.String}}))
	return reg
}

// calcServant is a deterministic stateful servant.
type calcServant struct {
	calls int32
	saved string
}

func (s *calcServant) Invoke(ctx *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
	s.calls++
	switch op {
	case "add":
		return []cdr.Value{args[0].(float64) + args[1].(float64)}, nil
	case "count":
		return []cdr.Value{s.calls}, nil
	case "store":
		prev := s.saved
		s.saved = args[0].(string)
		return []cdr.Value{prev}, nil
	}
	return nil, orb.ErrBadOperation
}

func calcSetup(servants []*calcServant) func(member int, a *orb.Adapter) error {
	return func(member int, a *orb.Adapter) error {
		return a.Register("calc", calcIface, servants[member])
	}
}

type testSys struct {
	sys      *System
	servants []*calcServant
}

func newCalcSystem(t *testing.T, seed int64, mutate func(*SystemConfig)) *testSys {
	t.Helper()
	servants := make([]*calcServant, 4)
	for i := range servants {
		servants[i] = &calcServant{}
	}
	cfg := SystemConfig{
		Seed:     seed,
		Latency:  netsim.UniformLatency(time.Millisecond, 3*time.Millisecond),
		Registry: calcRegistry(),
		GM:       GroupSpec{N: 4, F: 1},
		Domains: []DomainSpec{{
			Name: "calc", N: 4, F: 1,
			Profiles: []Profile{SolarisLike, LinuxLike, SolarisLike, LinuxLike},
			Setup:    calcSetup(servants),
		}},
		Clients: []ClientSpec{{Name: "alice"}, {Name: "bob"}},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Logf("close: %v", err)
		}
	})
	return &testSys{sys: sys, servants: servants}
}

var calcRef = orb.ObjectRef{Domain: "calc", ObjectKey: "calc", Interface: calcIface}

// invokeOnce invokes req; with retry it instead re-sends req under the
// connection's outstanding request id and the plain policy, as awaitReply
// does when a rekey lands during a call.
func (ep *endpoint) invokeOnce(ref orb.ObjectRef, req *giop.Request, retry bool) (*giop.Reply, cdr.ByteOrder, error) {
	if !retry {
		return ep.Invoke(ref, req)
	}
	cs, err := ep.ensureConn(ref.Domain)
	if err != nil {
		return nil, 0, err
	}
	req.RequestID = cs.conn.CurrentRequestID()
	if err := ep.requestFull(cs, ref, req); err != nil {
		return nil, 0, err
	}
	return ep.awaitReply(cs, ref, req, smiop.ReplyPolicy{})
}

func TestEndToEndInvocation(t *testing.T) {
	ts := newCalcSystem(t, 1, nil)
	alice := ts.sys.Client("alice")
	res, err := alice.CallAndRun(calcRef, "add", []cdr.Value{20.0, 22.0}, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); got != 42.0 {
		t.Fatalf("result = %v", got)
	}
	// Every replica executed the (single) voted request exactly once.
	ts.sys.Net.Run(1_000_000)
	for i, s := range ts.servants {
		if s.calls != 1 {
			t.Errorf("replica %d executed %d calls, want 1", i, s.calls)
		}
	}
}

func TestSequentialCallsReuseConnection(t *testing.T) {
	ts := newCalcSystem(t, 2, nil)
	alice := ts.sys.Client("alice")
	for i := 0; i < 5; i++ {
		res, err := alice.CallAndRun(calcRef, "add",
			[]cdr.Value{float64(i), float64(i)}, 5_000_000)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := res[0].(float64); got != float64(2*i) {
			t.Fatalf("call %d: result %v", i, got)
		}
	}
	// All five calls travelled one connection: the Group Manager saw one
	// open_request worth of establishment per (client, domain) pair.
	if _, ok := alice.ConnTo("calc"); !ok {
		t.Fatal("no cached connection")
	}
	for _, mgr := range ts.sys.GMManagers {
		if got := mgr.Connections(); got != 1 {
			t.Fatalf("GM records %d connections, want 1", got)
		}
	}
}

func TestStatefulOrderingAcrossClients(t *testing.T) {
	// Two clients interleave stateful calls; replicas must apply them in
	// the same total order, so all replicas end with the same final state.
	ts := newCalcSystem(t, 3, nil)
	alice, bob := ts.sys.Client("alice"), ts.sys.Client("bob")

	aDone := alice.Go(func() error {
		for i := 0; i < 4; i++ {
			if _, err := alice.Call(calcRef, "store",
				[]cdr.Value{fmt.Sprintf("alice-%d", i)}); err != nil {
				return err
			}
		}
		return nil
	})
	bDone := bob.Go(func() error {
		for i := 0; i < 4; i++ {
			if _, err := bob.Call(calcRef, "store",
				[]cdr.Value{fmt.Sprintf("bob-%d", i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := ts.sys.RunUntil(func() bool { return aDone.Done() && bDone.Done() }, 20_000_000); err != nil {
		t.Fatal(err)
	}
	if aDone.Err() != nil || bDone.Err() != nil {
		t.Fatalf("errs: %v / %v", aDone.Err(), bDone.Err())
	}
	ts.sys.Net.Run(2_000_000)
	final := ts.servants[0].saved
	for i, s := range ts.servants {
		if s.saved != final {
			t.Fatalf("replica %d final state %q != replica 0 %q", i, s.saved, final)
		}
		if s.calls != 8 {
			t.Fatalf("replica %d executed %d calls, want 8", i, s.calls)
		}
	}
}

func TestHeterogeneousRepliesVote(t *testing.T) {
	// All four replicas marshal in different byte orders (profiles are
	// mixed); the client's voter must treat the replies as equivalent.
	ts := newCalcSystem(t, 4, nil)
	alice := ts.sys.Client("alice")
	res, err := alice.CallAndRun(calcRef, "store", []cdr.Value{"hello"}, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(string) != "" {
		t.Fatalf("prev = %q, want empty", res[0])
	}
	res, err = alice.CallAndRun(calcRef, "store", []cdr.Value{"world"}, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(string) != "hello" {
		t.Fatalf("prev = %q, want hello", res[0])
	}
}

// TestCallResultsAreTheCallers: the values Call returns are the caller's to
// change. Changing them leaves what the vote decided as it was, so the
// copies that reach the caller after the decision — among them copies in
// the other byte order, decoded apart and compared by value — still agree
// with it, and no fault is filed against an honest replica.
func TestCallResultsAreTheCallers(t *testing.T) {
	ts := newCalcSystem(t, 4, nil)
	alice := ts.sys.Client("alice")
	for i := 0; i < 6; i++ {
		res, err := alice.CallAndRun(calcRef, "add", []cdr.Value{1.0, float64(i)}, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].(float64); got != 1+float64(i) {
			t.Fatalf("call %d: sum = %v", i, got)
		}
		res[0] = 666.0
		ts.sys.Net.Run(1_000_000) // the copies behind the decision arrive
	}
	if len(alice.FaultEvents) != 0 {
		t.Fatalf("faults filed after the caller changed its results: %+v", alice.FaultEvents)
	}
}

func TestByzantineReplicaMaskedAndExpelled(t *testing.T) {
	ts := newCalcSystem(t, 5, nil)
	alice := ts.sys.Client("alice")
	// First call establishes the connection cleanly.
	if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	// Replica 2 starts lying: corrupt every reply envelope it sends to the
	// client by re-sealing... simplest faithful fault: corrupt the servant.
	ts.servants[2].saved = "poisoned"
	evil := func(ctx *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
		return []cdr.Value{666.0}, nil
	}
	if err := ts.sys.Domain("calc").Elements[2].Adapter.Register("calc", calcIface,
		orb.ServantFunc(evil)); err != nil {
		t.Fatal(err)
	}
	res, err := alice.CallAndRun(calcRef, "add", []cdr.Value{2.0, 2.0}, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); got != 4.0 {
		t.Fatalf("Byzantine value not masked: %v", got)
	}
	// The client detected the conflicting reply and filed a change_request
	// with proof; the Group Manager must expel replica 2.
	if err := ts.sys.RunUntil(func() bool {
		for _, mgr := range ts.sys.GMManagers {
			if !mgr.IsExpelled("calc", 2) {
				return false
			}
		}
		return true
	}, 10_000_000); err != nil {
		t.Fatalf("expulsion never happened: %v (fault events: %+v)",
			err, alice.FaultEvents)
	}
	for j, mgr := range ts.sys.GMManagers {
		if !mgr.IsExpelled("calc", 2) {
			t.Errorf("GM element %d did not expel", j)
		}
		if len(mgr.Expulsions) != 1 || !mgr.Expulsions[0].ByProof {
			t.Errorf("GM element %d expulsions: %+v", j, mgr.Expulsions)
		}
	}
	// After the rekey the system still works (the expelled member is keyed
	// out; 3 correct replicas remain, enough for f=1 voting).
	ts.sys.Net.Run(3_000_000) // let the rekey bundles flow
	res, err = alice.CallAndRun(calcRef, "add", []cdr.Value{3.0, 3.0}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); got != 6.0 {
		t.Fatalf("post-expulsion result = %v", got)
	}
	// And the expelled member is locked out of the connection.
	if id, ok := alice.ConnTo("calc"); ok {
		if conn := alice.Conn(id); conn != nil {
			if !conn.Expelled(2) {
				t.Error("client connection does not mark member 2 expelled")
			}
			if conn.KeyEra() == 0 {
				t.Error("connection was not rekeyed")
			}
		}
	}
}

func TestFloatJitterNeedsInexactVoting(t *testing.T) {
	// With per-platform float jitter and exact voting, replies scatter; no
	// f+1 class forms and the call cannot complete. With inexact voting it
	// completes. This is experiment C3's mechanism.
	profiles := []Profile{
		{Order: cdr.BigEndian, FloatJitter: 1e-10, OS: "solaris", Lang: "cpp"},
		{Order: cdr.LittleEndian, FloatJitter: 1e-10, OS: "linux", Lang: "java"},
		{Order: cdr.BigEndian, FloatJitter: 1e-10, OS: "aix", Lang: "ada"},
		{Order: cdr.LittleEndian, FloatJitter: 1e-10, OS: "hpux", Lang: "cpp"},
	}
	run := func(epsilon float64) error {
		ts := newCalcSystem(t, 6, func(cfg *SystemConfig) {
			cfg.Domains[0].Profiles = profiles
			cfg.Epsilon = epsilon
		})
		_, err := ts.sys.Client("alice").CallAndRun(calcRef, "add",
			[]cdr.Value{1.5, 2.5}, 400_000)
		return err
	}
	if err := run(0); err == nil {
		t.Fatal("exact voting should not decide over jittered floats")
	}
	if err := run(1e-6); err != nil {
		t.Fatalf("inexact voting failed: %v", err)
	}
}

func TestMaliciousClientCannotExpelCorrectReplica(t *testing.T) {
	// A malicious client files a change_request with a fabricated proof;
	// the Group Manager must reject it (paper §3.6).
	ts := newCalcSystem(t, 7, nil)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	id, _ := alice.ConnTo("calc")
	// Forge: accuse replica 0 with garbage proof.
	forged := ts.forgeChangeRequest(t, alice, id, 0)
	a := alice.Go(func() error {
		alice.sendOrdered(GMDomainName, forged)
		return nil
	})
	if err := ts.sys.RunUntil(a.Done, 2_000_000); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.Run(2_000_000)
	for j, mgr := range ts.sys.GMManagers {
		if mgr.IsExpelled("calc", 0) {
			t.Fatalf("GM element %d expelled a correct replica on forged proof", j)
		}
		if mgr.RejectedProofs == 0 {
			t.Errorf("GM element %d did not record the rejected proof", j)
		}
	}
}

func (ts *testSys) forgeChangeRequest(t *testing.T, c *Client, connID uint64, accused int) []byte {
	t.Helper()
	// Build a change request whose proof items carry invalid signatures.
	cr := fmt.Sprintf("%d", accused)
	_ = cr
	return forgeCR(connID, uint32(accused))
}

func TestSystemConfigValidation(t *testing.T) {
	reg := calcRegistry()
	cases := []SystemConfig{
		{},
		{Registry: reg, Domains: []DomainSpec{{Name: "gm", N: 4, F: 1}}},
		{Registry: reg, Domains: []DomainSpec{{Name: "d", N: 3, F: 1}}},
		{Registry: reg, Domains: []DomainSpec{{Name: "a/b", N: 4, F: 1}}},
		{Registry: reg, Domains: []DomainSpec{{Name: "d", N: 4, F: 1}},
			Clients: []ClientSpec{{Name: "d"}}},
	}
	for i, cfg := range cases {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestIdentityParsing(t *testing.T) {
	ts := newCalcSystem(t, 8, nil)
	cases := []struct {
		id     string
		domain string
		member int
		ok     bool
	}{
		{"calc/r0", "calc", 0, true},
		{"calc/r3", "calc", 3, true},
		{"calc/r4", "", 0, false},
		{"gm/r1", "gm", 1, true},
		{"alice", "alice", 0, true},
		{"mallory", "", 0, false},
		{"nope/r0", "", 0, false},
		{"calc/r1x", "", 0, false},
		{"calc/r+1", "", 0, false},
		{"calc/r01", "", 0, false},
		{"calc/r 1", "", 0, false},
	}
	for _, c := range cases {
		d, m, ok := ts.sys.memberOf(c.id)
		if ok != c.ok || (ok && (d != c.domain || m != c.member)) {
			t.Errorf("memberOf(%q) = %q,%d,%v", c.id, d, m, ok)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Same seed, same calls → byte-identical servant end state on every
	// run (full-stack determinism).
	run := func() string {
		ts := newCalcSystem(t, 99, nil)
		alice := ts.sys.Client("alice")
		var out []string
		for i := 0; i < 3; i++ {
			res, err := alice.CallAndRun(calcRef, "store",
				[]cdr.Value{fmt.Sprintf("v%d", i)}, 5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res[0].(string))
		}
		return strings.Join(out, ",")
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic runs: %q vs %q", a, b)
	}
}
