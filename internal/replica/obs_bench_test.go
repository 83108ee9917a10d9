package replica

import (
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/netsim"
	"itdos/internal/obs"
)

// TestTraceSpanSequence pins the span tree of a cold client invocation to
// the paper's figures: the depth-first walk must visit the Fig. 2 stack
// (marshal → seal → order → deliver → unmarshal → vote → reply) with the
// Fig. 3 connection-establishment steps (open_request → key shares →
// combine → install) nested inside conn.establish.
func TestTraceSpanSequence(t *testing.T) {
	ts := newCalcSystem(t, 1, func(cfg *SystemConfig) { cfg.Metrics = obs.NewRegistry() })
	tr := ts.sys.EnableTracing()
	alice := ts.sys.Client("alice")
	if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{20.0, 22.0}, 50_000_000); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.Run(1_000_000) // let async srm.order acks land

	root := tr.FindRoot("invoke")
	if root == nil {
		t.Fatal("no invoke root span")
	}
	var names []string
	root.Walk(func(s *obs.Span, depth int) {
		names = append(names, s.Name)
		if !s.Ended() {
			t.Errorf("span %s still open after the run settled", s.Name)
		}
	})
	want := []string{
		"invoke",
		"orb.marshal",
		"conn.establish",
		"gm.open_request",
		"gm.share",
		"key.combine",
		"conn.install",
		"smiop.seal",
		"srm.order",
		"smiop.deliver",
		"smiop.unmarshal",
		"vote.submit",
		"vote.decide",
		"reply",
	}
	i := 0
	for _, n := range names {
		if i < len(want) && n == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Errorf("span walk missing %q (and later steps)\nwalk order: %v", want[i], names)
	}

	// Structural spot-checks: establishment steps live under conn.establish,
	// and the delivery that decided the vote is the invoke's last direct
	// child, holding the decision and the reply that resumed the call
	// (driver-side work re-attached under the invocation). The ORB takes the
	// values the vote decoded, so no unmarshalling follows the resume.
	var establish *obs.Span
	for _, c := range root.Children {
		if c.Name == "conn.establish" {
			establish = c
		}
	}
	if establish == nil {
		t.Fatal("cold call has no conn.establish child")
	}
	sub := map[string]int{}
	establish.Walk(func(s *obs.Span, depth int) { sub[s.Name]++ })
	if sub["gm.open_request"] != 1 || sub["key.combine"] != 1 || sub["conn.install"] != 1 {
		t.Errorf("conn.establish children = %v, want one each of gm.open_request/key.combine/conn.install", sub)
	}
	if sub["gm.share"] < 2 {
		t.Errorf("conn.establish saw %d gm.share spans, want >= f+1 = 2", sub["gm.share"])
	}
	last := root.Children[len(root.Children)-1]
	decided := map[string]int{}
	last.Walk(func(s *obs.Span, depth int) { decided[s.Name]++ })
	if last.Name != "smiop.deliver" || decided["vote.decide"] != 1 || decided["reply"] != 1 {
		t.Errorf("invoke's last child = %s holding %v, want the smiop.deliver that decided", last.Name, decided)
	}
}

// TestQueueDepthGaugesRegistered: one end-to-end invocation must register
// every backlog/queue gauge in the registry — SRM retained-window depth,
// element held-envelope count, in-flight votes, and the PBFT primary
// backlog — and leave them at sane values once the system drains: retained
// messages stay in the window (depth > 0), but nothing is still held,
// pending, or mid-vote.
func TestQueueDepthGaugesRegistered(t *testing.T) {
	metrics := obs.NewRegistry()
	ts := newCalcSystem(t, 9, func(cfg *SystemConfig) {
		cfg.Metrics = metrics
		cfg.MaxBatch = 4
	})
	alice := ts.sys.Client("alice")
	for i := 0; i < 3; i++ {
		if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{1.0, float64(i)}, 50_000_000); err != nil {
			t.Fatal(err)
		}
	}
	ts.sys.Net.Run(1_000_000)

	var text strings.Builder
	if err := metrics.WriteProm(&text); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"srm_queue_depth", "element_held_envelopes", "vote_inflight", "pbft_primary_backlog",
	} {
		if !strings.Contains(text.String(), name) {
			t.Errorf("gauge %s not in registry dump:\n%s", name, text.String())
		}
	}
	if got := metrics.Gauge("srm_queue_depth", "group=calc").Value(); got <= 0 {
		t.Errorf("srm_queue_depth = %v, want > 0 (window retains delivered messages)", got)
	}
	if got := metrics.Gauge("element_held_envelopes", "domain=calc").Value(); got != 0 {
		t.Errorf("element_held_envelopes = %v after drain, want 0", got)
	}
	if got := metrics.Gauge("vote_inflight").Value(); got != 0 {
		t.Errorf("vote_inflight = %v after drain, want 0", got)
	}
	if got := metrics.Gauge("pbft_primary_backlog", "group=calc").Value(); got != 0 {
		t.Errorf("pbft_primary_backlog = %v after drain, want 0", got)
	}
}

// newBenchSystem mirrors newCalcSystem for benchmarks (no *testing.T).
func newBenchSystem(b *testing.B, metrics *obs.Registry) *System {
	b.Helper()
	servants := make([]*calcServant, 4)
	for i := range servants {
		servants[i] = &calcServant{}
	}
	sys, err := NewSystem(SystemConfig{
		Seed:     1,
		Latency:  netsim.UniformLatency(time.Millisecond, 3*time.Millisecond),
		Registry: calcRegistry(),
		Metrics:  metrics,
		GM:       GroupSpec{N: 4, F: 1},
		Domains: []DomainSpec{{
			Name: "calc", N: 4, F: 1,
			Profiles: []Profile{SolarisLike, LinuxLike, SolarisLike, LinuxLike},
			Setup:    calcSetup(servants),
		}},
		Clients: []ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := sys.Close(); err != nil {
			b.Logf("close: %v", err)
		}
	})
	return sys
}

// benchmarkInvoke measures a warm invocation (connection established) so
// the instrumented-vs-nil comparison isolates the per-call metric cost.
// The acceptance bar is < 5% regression for the nil registry vs the
// pre-instrumentation baseline; nil-safe no-op methods make the nil case a
// handful of predictable branches.
func benchmarkInvoke(b *testing.B, metrics *obs.Registry) {
	sys := newBenchSystem(b, metrics)
	alice := sys.Client("alice")
	if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{20.0, 22.0}, 50_000_000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{20.0, 22.0}, 5_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvokeNilRegistry(b *testing.B)  { benchmarkInvoke(b, nil) }
func BenchmarkInvokeLiveRegistry(b *testing.B) { benchmarkInvoke(b, obs.NewRegistry()) }
