package firewall

import (
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/pbft"
	"itdos/internal/smiop"
	"itdos/internal/srm"
)

// buildDomain creates an SRM domain behind a firewall proxy.
func buildDomain(t *testing.T, policy Policy) (*netsim.Network, *srm.Domain, *Proxy) {
	t.Helper()
	net := netsim.NewNetwork(1, netsim.ConstantLatency(time.Millisecond))
	dom, err := srm.NewDomain(net, srm.DomainConfig{
		Name: "enclave", N: 4, F: 1,
		ViewTimeout: 200 * time.Millisecond,
		Ring:        pbft.NewKeyring(),
		KeySeed:     []byte("enclave"),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := New(policy, dom.Addrs())
	net.AddFilter(proxy.Filter())
	return net, dom, proxy
}

func dataEnvelope() []byte {
	env := &smiop.Envelope{
		Kind: smiop.KindData, ConnID: 1, SrcDomain: "alice",
		SrcMember: 0, RequestID: 1, Payload: []byte("sealed"),
	}
	return env.Encode()
}

func TestProxyPassesLegitimateTraffic(t *testing.T) {
	net, dom, proxy := buildDomain(t, Policy{})
	delivered := 0
	for _, el := range dom.Elements {
		el.OnDeliver = func(uint64, string, []byte) { delivered++ }
	}
	sender, err := srm.NewSender(dom, "alice", "alice/tx", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	acked := false
	sender.OnAck = func(uint64) { acked = true }
	if _, err := sender.Send(dataEnvelope()); err != nil {
		t.Fatal(err)
	}
	if err := net.RunUntil(func() bool { return acked }, 1_000_000); err != nil {
		t.Fatalf("legitimate traffic blocked: %v (stats %+v)", err, proxy.Stats())
	}
	if delivered != 4 {
		t.Fatalf("delivered = %d", delivered)
	}
	if proxy.Stats().Passed == 0 {
		t.Fatal("proxy saw no boundary traffic")
	}
}

func TestProxyDropsGarbage(t *testing.T) {
	net, dom, proxy := buildDomain(t, Policy{})
	hit := 0
	for i, el := range dom.Elements {
		el.OnDeliver = func(uint64, string, []byte) { hit++ }
		_ = i
	}
	net.AddNode("attacker", netsim.HandlerFunc(func(netsim.NodeID, []byte) {}))
	for i := 0; i < 10; i++ {
		net.Send("attacker", dom.Addrs()[0], []byte("not a protocol message"))
	}
	net.Run(1_000_000)
	if hit != 0 {
		t.Fatal("garbage reached the application")
	}
	if proxy.Stats().DroppedDecode != 10 {
		t.Fatalf("dropped = %d, want 10", proxy.Stats().DroppedDecode)
	}
}

func TestProxyDropsOversized(t *testing.T) {
	net, dom, proxy := buildDomain(t, Policy{MaxMessageSize: 64})
	net.AddNode("attacker", netsim.HandlerFunc(func(netsim.NodeID, []byte) {}))
	net.Send("attacker", dom.Addrs()[0], make([]byte, 1024))
	net.Run(1_000_000)
	if proxy.Stats().DroppedSize != 1 {
		t.Fatalf("stats = %+v", proxy.Stats())
	}
}

func TestProxyEnforcesKindPolicy(t *testing.T) {
	// Only DATA envelopes allowed: an OPEN_REQUEST from outside is dropped
	// at the boundary.
	net, dom, proxy := buildDomain(t, Policy{
		AllowKinds: map[smiop.Kind]bool{smiop.KindData: true},
	})
	delivered := 0
	for _, el := range dom.Elements {
		el.OnDeliver = func(uint64, string, []byte) { delivered++ }
	}
	sender, err := srm.NewSender(dom, "alice", "alice/tx", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	open := &smiop.Envelope{Kind: smiop.KindOpenRequest, SrcDomain: "alice",
		Payload: (&smiop.OpenRequest{Initiator: "alice", Target: "enclave"}).Encode()}
	if _, err := sender.Send(open.Encode()); err != nil {
		t.Fatal(err)
	}
	net.Run(500_000)
	if delivered != 0 {
		t.Fatal("disallowed kind reached the application")
	}
	if proxy.Stats().DroppedKind == 0 {
		t.Fatal("proxy did not account the kind drop")
	}
}

func TestProxyRateLimits(t *testing.T) {
	net, dom, proxy := buildDomain(t, Policy{RatePerSource: 5, RateWindow: 1 << 30})
	net.AddNode("flood", netsim.HandlerFunc(func(netsim.NodeID, []byte) {}))
	// Syntactically valid PBFT traffic (a checkpoint) flooding the boundary.
	cp := pbft.Encode(&pbft.Checkpoint{Seq: 1, Replica: 0})
	for i := 0; i < 50; i++ {
		net.Send("flood", dom.Addrs()[0], cp)
	}
	net.Run(1_000_000)
	st := proxy.Stats()
	if st.DroppedRate != 45 || st.Passed != 5 {
		t.Fatalf("stats = %+v, want 45 rate-dropped / 5 passed", st)
	}
}

func TestIntraEnclaveTrafficBypassesProxy(t *testing.T) {
	// Replica-to-replica traffic does not consume boundary budget: with a
	// harsh rate limit the group still makes progress internally.
	net, dom, proxy := buildDomain(t, Policy{RatePerSource: 3, RateWindow: 1 << 30})
	sender, err := srm.NewSender(dom, "alice", "alice/tx", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	acks := 0
	sender.OnAck = func(uint64) { acks++ }
	// Each ordered message costs ~2 boundary frames from alice (request to
	// primary + nothing else unless retransmitting); 3 allows one send.
	if _, err := sender.Send(dataEnvelope()); err != nil {
		t.Fatal(err)
	}
	if err := net.RunUntil(func() bool { return acks == 1 }, 1_000_000); err != nil {
		t.Fatalf("send blocked: %v (stats %+v)", err, proxy.Stats())
	}
	if proxy.Stats().Passed > 3 {
		t.Fatalf("boundary passed %d frames; intra-enclave traffic leaked through the proxy",
			proxy.Stats().Passed)
	}
}
