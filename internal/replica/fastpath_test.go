package replica

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/orb"
	"itdos/internal/smiop"
	"itdos/internal/vote"
)

const kvIface = "IDL:test/KV:1.0"

// kvRegistry declares a mutating store, a get, and a pure add — the
// workload surface for every reply fast path. readOnlyGet declares get
// read-only, which alone sends a singleton caller's get down the direct
// path.
func kvRegistry(readOnlyGet bool) *idl.Registry {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(kvIface).
		Op("store",
			[]idl.Param{{Name: "v", Type: cdr.String}},
			[]idl.Param{{Name: "prev", Type: cdr.String}}).
		Define(&idl.Operation{Name: "get", ReadOnly: readOnlyGet,
			Results: []idl.Param{{Name: "v", Type: cdr.String}}}).
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}))
	return reg
}

// declareGetReadOnly is the newKVSystem option for the registry that
// declares get read-only; the default declares it plain.
func declareGetReadOnly(cfg *SystemConfig) { cfg.Registry = kvRegistry(true) }

type kvServant struct {
	saved     string
	mutations int32
	reads     int32
}

func (s *kvServant) Invoke(_ *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
	switch op {
	case "store":
		s.mutations++
		prev := s.saved
		s.saved = args[0].(string)
		return []cdr.Value{prev}, nil
	case "get":
		s.reads++
		return []cdr.Value{s.saved}, nil
	case "add":
		s.mutations++
		return []cdr.Value{args[0].(float64) + args[1].(float64)}, nil
	}
	return nil, orb.ErrBadOperation
}

type kvSys struct {
	sys      *System
	servants []*kvServant
	metrics  *obs.Registry
}

func newKVSystem(t *testing.T, seed int64, mutate func(*SystemConfig)) *kvSys {
	t.Helper()
	servants := make([]*kvServant, 4)
	for i := range servants {
		servants[i] = &kvServant{}
	}
	metrics := obs.NewRegistry()
	cfg := SystemConfig{
		Seed:     seed,
		Latency:  netsim.UniformLatency(time.Millisecond, 3*time.Millisecond),
		Registry: kvRegistry(false),
		Metrics:  metrics,
		Domains: []DomainSpec{{
			Name: "kv", N: 4, F: 1,
			Profiles: []Profile{SolarisLike, LinuxLike, SolarisLike, LinuxLike},
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("kv", kvIface, servants[member])
			},
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
	return &kvSys{sys: sys, servants: servants, metrics: metrics}
}

var kvRef = orb.ObjectRef{Domain: "kv", ObjectKey: "kv", Interface: kvIface}

func (ts *kvSys) connLabel(t *testing.T, client string) string {
	t.Helper()
	id, ok := ts.sys.Client(client).ConnTo("kv")
	if !ok {
		t.Fatal("no connection to kv")
	}
	return fmt.Sprintf("conn=%d", id)
}

// TestReplyCountersPerConnection checks the per-connection metric series:
// two clients, two connections, independently counted replies — every
// member's full reply to each call, once the network has gone quiet.
func TestReplyCountersPerConnection(t *testing.T) {
	ts := newKVSystem(t, 12, nil)
	alice, bob := ts.sys.Client("alice"), ts.sys.Client("bob")
	call := func(c *Client, a, b float64) {
		t.Helper()
		if _, err := c.CallAndRun(kvRef, "add", []cdr.Value{a, b}, 5_000_000); err != nil {
			t.Fatal(err)
		}
		ts.sys.Net.Run(2_000_000)
	}
	call(alice, 1, 2)
	for i := 0; i < 2; i++ {
		call(bob, 3, 4)
	}
	la, lb := ts.connLabel(t, "alice"), ts.connLabel(t, "bob")
	if la == lb {
		t.Fatalf("clients share a connection label: %s", la)
	}
	if got := ts.metrics.Counter("smiop_reply_full_total", la).Value(); got != 4 {
		t.Errorf("alice full replies = %d, want 4", got)
	}
	if got := ts.metrics.Counter("smiop_reply_full_total", lb).Value(); got != 8 {
		t.Errorf("bob full replies = %d, want 8", got)
	}
}

func TestReadOnlyFastPath(t *testing.T) {
	ts := newKVSystem(t, 15, declareGetReadOnly)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"v1"}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	res, err := alice.CallAndRun(kvRef, "get", nil, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(string); got != "v1" {
		t.Fatalf("get = %q, want v1", got)
	}
	ts.sys.Net.Run(1_000_000)
	// The read bypassed ordering: served off the direct channel on every
	// element, never entering the ordered upcall stream.
	if got := ts.metrics.Counter("readonly_fastpath_total").Value(); got != 1 {
		t.Errorf("fast-path calls = %d, want 1", got)
	}
	if got := ts.metrics.Counter("pbft_readonly_bypass_total", "group=kv").Value(); got == 0 {
		t.Error("no PBFT bypass recorded")
	}
	reads := 0
	for i, s := range ts.servants {
		reads += int(s.reads)
		if s.mutations != 1 {
			t.Errorf("replica %d: %d ordered executions, want 1 (the store)", i, s.mutations)
		}
	}
	// All four elements served the read directly (2f+1 needed to decide).
	if reads != 4 {
		t.Errorf("read executed on %d replicas, want 4", reads)
	}
	for i, el := range ts.sys.Domain("kv").Elements {
		if el.ReadOnlyUpcalls != 1 {
			t.Errorf("element %d ReadOnlyUpcalls = %d, want 1", i, el.ReadOnlyUpcalls)
		}
	}
	if got := ts.metrics.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
}

// TestReadOnlyDeclarationIsTheSwitch: no setting enables the direct path.
// With a default config, a get the registry declares read-only goes direct
// and decides on 2f+1 replies, while an undeclared operation is ordered.
func TestReadOnlyDeclarationIsTheSwitch(t *testing.T) {
	ts := newKVSystem(t, 20, declareGetReadOnly)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"v3"}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	// Element 3 never sees a direct request, so exactly 2f+1 elements reply.
	direct := 0
	ts.sys.Net.AddFilter(func(_, to netsim.NodeID, _ []byte) ([]byte, bool) {
		if strings.HasPrefix(string(to), "kv/r") && strings.HasSuffix(string(to), "/inbox") {
			direct++
			return nil, string(to) == elementInboxAddr("kv", 3)
		}
		return nil, false
	})
	res, err := alice.CallAndRun(kvRef, "get", nil, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(string); got != "v3" {
		t.Fatalf("get = %q, want v3", got)
	}
	if got := ts.metrics.Counter("readonly_fastpath_total").Value(); got < 1 {
		t.Errorf("fast-path calls = %d, want at least 1", got)
	}
	if got := ts.metrics.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value(); got != 0 {
		t.Errorf("fallbacks = %d, want 0: 2f+1 direct replies decide", got)
	}
	for i, el := range ts.sys.Domain("kv").Elements {
		want := uint64(1)
		if i == 3 {
			want = 0
		}
		if el.ReadOnlyUpcalls != want {
			t.Errorf("element %d ReadOnlyUpcalls = %d, want %d", i, el.ReadOnlyUpcalls, want)
		}
	}
	// The undeclared add is ordered: no direct send, an ordered execution
	// on every replica.
	direct = 0
	res, err = alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 2.0}, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); got != 3.0 {
		t.Fatalf("add = %v, want 3", got)
	}
	ts.sys.Net.Run(1_000_000)
	if direct != 0 {
		t.Errorf("%d direct element sends for an undeclared operation", direct)
	}
	for i, s := range ts.servants {
		if s.mutations != 2 {
			t.Errorf("replica %d: %d ordered executions, want 2 (store, add)", i, s.mutations)
		}
	}
}

// TestReadOnlyQuorumFailureFallsBack drops the direct requests to two of
// the four elements: only two replies come back, short of the 2f+1 quorum,
// so the fast path times out and the call is re-issued on the ordered path
// under a new request id — and still returns the right value.
func TestReadOnlyQuorumFailureFallsBack(t *testing.T) {
	ts := newKVSystem(t, 16, declareGetReadOnly)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"v2"}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	// Partition the direct channel to elements 2 and 3 (ordered multicast
	// is unaffected).
	ts.sys.Net.AddFilter(func(_, to netsim.NodeID, _ []byte) ([]byte, bool) {
		if string(to) == elementInboxAddr("kv", 2) || string(to) == elementInboxAddr("kv", 3) {
			return nil, true
		}
		return nil, false
	})
	id, _ := alice.ConnTo("kv")
	before := alice.Conn(id).CurrentRequestID()
	res, err := alice.CallAndRun(kvRef, "get", nil, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(string); got != "v2" {
		t.Fatalf("get = %q, want v2", got)
	}
	if got := ts.metrics.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value(); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	// The fallback used a fresh request id (stale fast-path replies must
	// not mix into the ordered vote).
	if after := alice.Conn(id).CurrentRequestID(); after != before+2 {
		t.Errorf("request ids advanced by %d, want 2 (fast path + ordered fallback)", after-before)
	}
}

// TestReadOnlyLargeRequestAborts: a read-only request too large for one
// envelope cannot take the direct path; it must abort to the ordered path
// before sending anything, not fail.
func TestReadOnlyLargeRequestAborts(t *testing.T) {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(kvIface).
		OpReadOnly("probe",
			[]idl.Param{{Name: "blob", Type: cdr.String}},
			[]idl.Param{{Name: "n", Type: cdr.Long}}))
	metrics := obs.NewRegistry()
	sys, err := NewSystem(SystemConfig{
		Seed:     17,
		Latency:  netsim.UniformLatency(time.Millisecond, 2*time.Millisecond),
		Registry: reg,
		Metrics:  metrics,
		Domains: []DomainSpec{{
			Name: "kv", N: 4, F: 1,
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("kv", kvIface, orb.ServantFunc(
					func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
						return []cdr.Value{int32(len(args[0].(string)))}, nil
					}))
			},
		}},
		Clients: []ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	blob := strings.Repeat("z", 64<<10)
	res, err := sys.Client("alice").CallAndRun(kvRef, "probe", []cdr.Value{blob}, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int32); int(got) != len(blob) {
		t.Fatalf("probe = %d, want %d", got, len(blob))
	}
	if got := metrics.Counter("readonly_fastpath_aborts_total").Value(); got != 1 {
		t.Errorf("aborts = %d, want 1", got)
	}
	if got := metrics.Counter("readonly_fastpath_total").Value(); got != 0 {
		t.Errorf("fast-path calls = %d, want 0", got)
	}
	assertFragmented(t, metrics)
}

// TestFastPathsOffNothingChanges: with every feature at its default (off)
// and no operation declared read-only, no fast-path machinery engages — no
// direct sends, no new counters.
func TestFastPathsOffNothingChanges(t *testing.T) {
	ts := newKVSystem(t, 18, nil)
	sawDirect := false
	ts.sys.Net.AddFilter(func(_, to netsim.NodeID, _ []byte) ([]byte, bool) {
		if strings.HasPrefix(string(to), "kv/r") && strings.HasSuffix(string(to), "/inbox") {
			sawDirect = true
		}
		return nil, false
	})
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"x"}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	res, err := alice.CallAndRun(kvRef, "get", nil, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(string); got != "x" {
		t.Fatalf("get = %q, want x", got)
	}
	if sawDirect {
		t.Error("direct element send with no operation declared read-only")
	}
	for _, name := range []string{"tentative_replies_armed_total", "readonly_fastpath_total",
		"readonly_fastpath_aborts_total"} {
		if got := ts.metrics.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := ts.metrics.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
}

// TestPlainVoteStallWithFlagsOn: with a fast path on, a call it does not
// cover arms the plain policy. When its f+1 vote scatters past
// deciding there is nothing to fall back to, so nothing may be counted or
// flight-recorded as a fallback (the stream used to fire its fallback hook
// for every stalled vote once any flag wired it).
func TestPlainVoteStallWithFlagsOn(t *testing.T) {
	rec := flight.New(64)
	ts := newKVSystem(t, 19, func(cfg *SystemConfig) {
		declareGetReadOnly(cfg)
		cfg.Flight = rec
	})
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	for m, el := range ts.sys.Domain("kv").Elements {
		v := float64(100 + m)
		scatter := orb.ServantFunc(func(_ *orb.CallContext, _ string, _ []cdr.Value) ([]cdr.Value, error) {
			return []cdr.Value{v}, nil
		})
		if err := el.Adapter.Register("kv", kvIface, scatter); err != nil {
			t.Fatal(err)
		}
	}
	a := alice.Go(func() error {
		_, err := alice.Call(kvRef, "add", []cdr.Value{2.0, 3.0})
		return err
	})
	ts.sys.Net.Run(2_000_000)
	if a.Done() {
		t.Fatalf("four distinct replies decided (err %v)", a.Err())
	}
	id, _ := alice.ConnTo("kv")
	if !alice.conns[id].stream.Voter().Stalled() {
		t.Fatal("the scattered f+1 vote did not stall")
	}
	if got := ts.metrics.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
	for _, ev := range rec.Events("alice") {
		if ev.Kind == flight.KindFallback {
			t.Errorf("fallback flight event for a plain vote: %+v", ev)
		}
	}
}

// TestFastPathFlagMatrix runs one workload under every subset of the two
// fast paths — tentative execution (T) and get's read-only declaration (R)
// — with and without a lying replica. They choose a reply policy per call and nothing
// else: every subset must decide the same values, fall back at most once
// per call, and expel at most f.
func TestFastPathFlagMatrix(t *testing.T) {
	type call struct {
		op   string
		args []cdr.Value
		want cdr.Value
	}
	workload := []call{
		{"store", []cdr.Value{"v1"}, ""},
		{"get", nil, "v1"},
		{"add", []cdr.Value{2.0, 3.0}, 5.0},
		{"store", []cdr.Value{"v2"}, "v1"},
		{"get", nil, "v2"},
		{"add", []cdr.Value{4.0, 4.0}, 8.0},
		{"get", nil, "v2"},
	}
	const liar, f = 2, 1
	evil := orb.ServantFunc(func(_ *orb.CallContext, op string, _ []cdr.Value) ([]cdr.Value, error) {
		if op == "add" {
			return []cdr.Value{666.0}, nil
		}
		return []cdr.Value{"evil"}, nil
	})
	for flags := 0; flags < 4; flags++ {
		r, tent := flags&1 != 0, flags&2 != 0
		for _, lying := range []bool{false, true} {
			name := fmt.Sprintf("R=%t,T=%t,liar=%t", r, tent, lying)
			t.Run(name, func(t *testing.T) {
				ts := newKVSystem(t, int64(100+2*flags), func(cfg *SystemConfig) {
					cfg.TentativeExecution = tent
					cfg.Registry = kvRegistry(r)
				})
				if lying {
					if err := ts.sys.Domain("kv").Elements[liar].Adapter.Register("kv", kvIface, evil); err != nil {
						t.Fatal(err)
					}
				}
				alice := ts.sys.Client("alice")
				var fallbacks uint64
				for i, c := range workload {
					res, err := alice.CallAndRun(kvRef, c.op, c.args, 30_000_000)
					if err != nil {
						t.Fatalf("call %d (%s): %v", i, c.op, err)
					}
					if res[0] != c.want {
						t.Fatalf("call %d (%s) decided %v, want %v", i, c.op, res[0], c.want)
					}
					now := ts.metrics.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value()
					if now-fallbacks > 1 {
						t.Errorf("call %d (%s) fell back %d times, want at most 1", i, c.op, now-fallbacks)
					}
					fallbacks = now
				}
				if !lying && fallbacks != 0 {
					t.Errorf("%d fallbacks with every replica honest", fallbacks)
				}
				ts.sys.Net.Run(5_000_000)
				for _, mgr := range ts.sys.GMManagers {
					expelled := 0
					for m := 0; m < 4; m++ {
						if mgr.IsExpelled("kv", m) {
							if m != liar {
								t.Errorf("honest replica %d expelled", m)
							}
							expelled++
						}
					}
					if expelled > f {
						t.Errorf("%d replicas expelled, want at most f=%d", expelled, f)
					}
				}
			})
		}
	}
}

// TestPoisonedDirectFramesCounted: a direct-path frame that does not decode
// is counted in smiop_dropped_total, on an element's inbox and on a
// caller's. Each direct frame is overwritten as a pooled buffer released
// before its write would be (pool.SetPoison's 0xDB). With the read-only
// get's requests to the elements poisoned, the get still decides on its
// ordered retry; with every element's reply to the caller poisoned, nothing
// decides. Either way the drops are counted. So is a well-formed envelope
// of a kind the inbox does not take (7, the retired digest reply): one
// frame moves the counter by one, and nothing is served or decided.
func TestPoisonedDirectFramesCounted(t *testing.T) {
	ts := newKVSystem(t, 21, declareGetReadOnly)
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "store", []cdr.Value{"v1"}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	dropped := ts.metrics.Counter("smiop_dropped_total")
	for _, c := range []struct {
		name    string
		poison  func(from, to string) bool
		decides bool
	}{
		{"element inbox", func(_, to string) bool {
			return strings.HasPrefix(to, "kv/r") && strings.HasSuffix(to, "/inbox")
		}, true},
		{"caller inbox", func(from, to string) bool {
			return to == clientInboxAddr("alice") && strings.HasPrefix(from, "kv/")
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := dropped.Value()
			ts.sys.Net.ClearFilters()
			ts.sys.Net.AddFilter(func(from, to netsim.NodeID, payload []byte) ([]byte, bool) {
				if c.poison(string(from), string(to)) {
					return bytes.Repeat([]byte{0xDB}, len(payload)), false
				}
				return nil, false
			})
			_, err := alice.CallAndRun(kvRef, "get", nil, 20_000)
			if decided := err == nil; decided != c.decides {
				t.Errorf("get decided %v (err %v), want %v", decided, err, c.decides)
			}
			if got := dropped.Value() - before; got == 0 {
				t.Error("poisoned direct frames dropped uncounted")
			}
		})
	}
	ts.sys.Net.ClearFilters()
	connID, _ := alice.ConnTo("kv")
	decisions := ts.metrics.Counter("vote_decisions_total", "mode="+vote.EagerFPlus1.String())
	for _, c := range []struct {
		name             string
		from, to, domain string
		reply            bool
	}{
		{"element inbox, kind 7", "alice", elementInboxAddr("kv", 0), "alice", false},
		{"caller inbox, kind 7", "kv/r0", clientInboxAddr("alice"), "kv", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts.sys.Net.Run(2_000_000)
			before, decided := dropped.Value(), decisions.Value()
			served := ts.sys.Domain("kv").Elements[0].ReadOnlyUpcalls
			env := &smiop.Envelope{Kind: 7, ConnID: connID, SrcDomain: c.domain,
				RequestID: alice.conns[connID].conn.CurrentRequestID(), Reply: c.reply,
				Payload: make([]byte, 64)}
			ts.sys.tr.Send(netsim.NodeID(c.from), netsim.NodeID(c.to), env.Encode())
			ts.sys.Net.Run(2_000_000)
			if got := dropped.Value() - before; got != 1 {
				t.Errorf("smiop_dropped_total moved by %d, want 1", got)
			}
			if got := decisions.Value() - decided; got != 0 {
				t.Errorf("%d votes decided", got)
			}
			if got := ts.sys.Domain("kv").Elements[0].ReadOnlyUpcalls - served; got != 0 {
				t.Errorf("the element served %d requests", got)
			}
		})
	}
}
