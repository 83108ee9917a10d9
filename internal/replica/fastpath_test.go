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

func TestDigestRepliesHappyPath(t *testing.T) {
	ts := newKVSystem(t, 11, func(cfg *SystemConfig) { cfg.DigestReplies = true })
	alice := ts.sys.Client("alice")
	const calls = 3
	for i := 0; i < calls; i++ {
		res, err := alice.CallAndRun(kvRef, "add",
			[]cdr.Value{float64(i), float64(i + 1)}, 5_000_000)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := res[0].(float64); got != float64(2*i+1) {
			t.Fatalf("call %d: result %v", i, got)
		}
	}
	ts.sys.Net.Run(1_000_000)
	// Ordered execution still happens on every replica.
	for i, s := range ts.servants {
		if s.mutations != calls {
			t.Errorf("replica %d executed %d calls, want %d", i, s.mutations, calls)
		}
	}
	// Per request: one full reply from the designated responder, N-1 short
	// digests — counted on the per-connection series.
	label := ts.connLabel(t, "alice")
	if got := ts.metrics.Counter("smiop_digest_decisions_total", label).Value(); got != calls {
		t.Errorf("digest decisions = %d, want %d", got, calls)
	}
	// The vote decides at full + f digests; stragglers arriving after the
	// next call armed its vote are discarded before counting, so the exact
	// tally is timing-dependent within [calls, 3*calls].
	if got := ts.metrics.Counter("smiop_reply_digest_total", label).Value(); got < calls || got > 3*calls {
		t.Errorf("digest replies = %d, want between %d and %d", got, calls, 3*calls)
	}
	if got := ts.metrics.Counter("smiop_reply_full_total", label).Value(); got != calls {
		t.Errorf("full replies = %d, want %d", got, calls)
	}
	if got := ts.metrics.Counter("smiop_reply_fallback_total", label).Value(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
	if got := ts.metrics.Counter("digest_replies_armed_total").Value(); got != calls {
		t.Errorf("armed = %d, want %d", got, calls)
	}
	// No fault reports: a digest mismatch never happened, and digests are
	// not GM-verifiable evidence anyway.
	if len(alice.FaultEvents) != 0 {
		t.Errorf("fault events filed on the happy path: %+v", alice.FaultEvents)
	}
}

// TestDigestPerConnectionLabels checks the per-connection metric series:
// two clients, two connections, independently counted replies.
func TestDigestPerConnectionLabels(t *testing.T) {
	ts := newKVSystem(t, 12, func(cfg *SystemConfig) { cfg.DigestReplies = true })
	alice, bob := ts.sys.Client("alice"), ts.sys.Client("bob")
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 2.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := bob.CallAndRun(kvRef, "add", []cdr.Value{3.0, 4.0}, 5_000_000); err != nil {
			t.Fatal(err)
		}
	}
	la, lb := ts.connLabel(t, "alice"), ts.connLabel(t, "bob")
	if la == lb {
		t.Fatalf("clients share a connection label: %s", la)
	}
	if got := ts.metrics.Counter("smiop_reply_full_total", la).Value(); got != 1 {
		t.Errorf("alice full replies = %d, want 1", got)
	}
	if got := ts.metrics.Counter("smiop_reply_full_total", lb).Value(); got != 2 {
		t.Errorf("bob full replies = %d, want 2", got)
	}
}

// TestDigestLyingResponderFallsBack: the designated responder returns a
// wrong full reply. Its canonical digest matches no honest digest, the
// digest vote stalls, the client falls back to full replies — and still
// decides the honest value, then files a change_request with proof.
func TestDigestLyingResponderFallsBack(t *testing.T) {
	ts := newKVSystem(t, 13, func(cfg *SystemConfig) { cfg.DigestReplies = true })
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	// Compromise exactly the member that will be the designated responder
	// for the next request id.
	id, _ := alice.ConnTo("kv")
	nextID := alice.Conn(id).CurrentRequestID() + 1
	liar := smiop.DesignatedResponder(nextID, 4, nil)
	evil := orb.ServantFunc(func(_ *orb.CallContext, _ string, _ []cdr.Value) ([]cdr.Value, error) {
		return []cdr.Value{666.0}, nil
	})
	if err := ts.sys.Domain("kv").Elements[liar].Adapter.Register("kv", kvIface, evil); err != nil {
		t.Fatal(err)
	}
	res, err := alice.CallAndRun(kvRef, "add", []cdr.Value{2.0, 3.0}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); got != 5.0 {
		t.Fatalf("lying responder's value won: %v", got)
	}
	label := ts.connLabel(t, "alice")
	if got := ts.metrics.Counter("smiop_reply_fallback_total", label).Value(); got == 0 {
		t.Error("no fallback recorded")
	}
	// The fallback's full-reply vote exposes the liar with verifiable
	// evidence: the Group Manager expels it.
	if err := ts.sys.RunUntil(func() bool {
		for _, mgr := range ts.sys.GMManagers {
			if !mgr.IsExpelled("kv", liar) {
				return false
			}
		}
		return true
	}, 20_000_000); err != nil {
		t.Fatalf("liar never expelled: %v (fault events %+v)", err, alice.FaultEvents)
	}
	// And the system keeps working under digest mode with the liar keyed
	// out (the responder rotation skips it).
	ts.sys.Net.Run(3_000_000)
	res, err = alice.CallAndRun(kvRef, "add", []cdr.Value{4.0, 4.0}, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); got != 8.0 {
		t.Fatalf("post-expulsion result = %v", got)
	}
}

// TestDigestFloatDivergenceFallsBack reruns the C3 mechanism under digest
// mode: four platforms jitter their floats, so canonical digests scatter
// and no f+1 digest class forms. The fallback's full-reply inexact vote
// still decides.
func TestDigestFloatDivergenceFallsBack(t *testing.T) {
	profiles := []Profile{
		{Order: cdr.BigEndian, FloatJitter: 1e-10, OS: "solaris", Lang: "cpp"},
		{Order: cdr.LittleEndian, FloatJitter: 1e-10, OS: "linux", Lang: "java"},
		{Order: cdr.BigEndian, FloatJitter: 1e-10, OS: "aix", Lang: "ada"},
		{Order: cdr.LittleEndian, FloatJitter: 1e-10, OS: "hpux", Lang: "cpp"},
	}
	ts := newKVSystem(t, 14, func(cfg *SystemConfig) {
		cfg.DigestReplies = true
		cfg.Domains[0].Profiles = profiles
		cfg.Epsilon = 1e-6
	})
	alice := ts.sys.Client("alice")
	res, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.5, 2.5}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	got := res[0].(float64)
	if got < 4.0-1e-6 || got > 4.0+1e-6 {
		t.Fatalf("result %v outside epsilon of 4.0", got)
	}
	label := ts.connLabel(t, "alice")
	if got := ts.metrics.Counter("smiop_reply_fallback_total", label).Value(); got == 0 {
		t.Error("float divergence did not trigger the digest fallback")
	}
	// Jitter is honest platform behaviour, not a fault: nobody is accused.
	if len(alice.FaultEvents) != 0 {
		t.Errorf("fault events filed for float divergence: %+v", alice.FaultEvents)
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
// digest envelopes, no direct sends, no new counters.
func TestFastPathsOffNothingChanges(t *testing.T) {
	ts := newKVSystem(t, 18, nil)
	sawDigest, sawDirect := false, false
	ts.sys.Net.AddFilter(func(_, to netsim.NodeID, payload []byte) ([]byte, bool) {
		if env, err := smiop.DecodeEnvelope(payload); err == nil && env.Kind == smiop.KindDigest {
			sawDigest = true
		}
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
	if sawDigest {
		t.Error("digest envelope on the wire with DigestReplies off")
	}
	if sawDirect {
		t.Error("direct element send with no operation declared read-only")
	}
	for _, name := range []string{"digest_replies_armed_total", "readonly_fastpath_total",
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
		if ev.Kind == flight.KindDigestFallback {
			t.Errorf("digest-fallback flight event for a plain vote: %+v", ev)
		}
	}
}

// TestFastPathFlagMatrix runs one workload under every subset of the three
// fast paths — the two flags and get's read-only declaration (R) — with and
// without a lying replica. They choose a reply policy per call and nothing
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
	for flags := 0; flags < 8; flags++ {
		d, r, tent := flags&1 != 0, flags&2 != 0, flags&4 != 0
		for _, lying := range []bool{false, true} {
			name := fmt.Sprintf("D=%t,R=%t,T=%t,liar=%t", d, r, tent, lying)
			t.Run(name, func(t *testing.T) {
				ts := newKVSystem(t, int64(100+flags), func(cfg *SystemConfig) {
					cfg.DigestReplies, cfg.TentativeExecution = d, tent
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
// decides. Either way the drops are counted.
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
}
