// Package firewall implements the IT-CORBA firewall proxy of Figure 1: a
// filter at the enclave boundary that monitors BFTM (Byzantine fault
// tolerant multicast) traffic entering a replication domain's enclave.
// The paper introduces the proxy ("this architecture provides additional
// security in the form of a firewall proxy that can monitor BFTM messages
// at the enclave boundary", §1) but does not detail it; this package
// realises the described function: only well-formed protocol traffic from
// known peers, under a rate budget, reaches the protected elements.
package firewall

import (
	"itdos/internal/netsim"
	"itdos/internal/pbft"
	"itdos/internal/smiop"
	"itdos/internal/srm"
)

// Policy configures a proxy.
type Policy struct {
	// MaxMessageSize drops oversized frames (0 = 1 MiB default).
	MaxMessageSize int
	// AllowKinds restricts the SMIOP envelope kinds allowed through in
	// ordered payloads; nil allows all kinds.
	AllowKinds map[smiop.Kind]bool
	// RatePerSource bounds messages accepted per source within one
	// RateWindow worth of accepted messages (0 = unlimited). The window is
	// count-based so the proxy stays deterministic under simulation.
	RatePerSource int
	RateWindow    int
}

// Stats counts proxy decisions.
type Stats struct {
	Passed        uint64
	DroppedSize   uint64
	DroppedDecode uint64
	DroppedKind   uint64
	DroppedRate   uint64
}

// Proxy guards a set of protected element addresses. It is installed as a
// netsim filter, mirroring an inline network appliance at the enclave
// boundary.
type Proxy struct {
	policy    Policy
	protected map[netsim.NodeID]bool
	inside    map[netsim.NodeID]bool
	counts    map[netsim.NodeID]int
	window    int
	stats     Stats
}

// New builds a proxy for the protected addresses. Traffic between two
// protected addresses (intra-enclave) bypasses the proxy, like a firewall
// that only guards the perimeter.
func New(policy Policy, protected []netsim.NodeID) *Proxy {
	if policy.MaxMessageSize == 0 {
		policy.MaxMessageSize = 1 << 20
	}
	if policy.RateWindow == 0 {
		policy.RateWindow = 1024
	}
	p := &Proxy{
		policy:    policy,
		protected: make(map[netsim.NodeID]bool, len(protected)),
		inside:    make(map[netsim.NodeID]bool, len(protected)),
		counts:    make(map[netsim.NodeID]int),
	}
	for _, addr := range protected {
		p.protected[addr] = true
		p.inside[addr] = true
	}
	return p
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats { return p.stats }

// Filter returns the netsim filter enforcing the policy.
func (p *Proxy) Filter() netsim.Filter {
	return func(from, to netsim.NodeID, payload []byte) ([]byte, bool) {
		if !p.protected[to] || p.inside[from] {
			return nil, false // not boundary traffic
		}
		if len(payload) > p.policy.MaxMessageSize {
			p.stats.DroppedSize++
			return nil, true
		}
		if !p.admit(payload) {
			return nil, true
		}
		if p.policy.RatePerSource > 0 {
			p.window++
			if p.window >= p.policy.RateWindow {
				p.window = 0
				p.counts = make(map[netsim.NodeID]int)
			}
			p.counts[from]++
			if p.counts[from] > p.policy.RatePerSource {
				p.stats.DroppedRate++
				return nil, true
			}
		}
		p.stats.Passed++
		return nil, false
	}
}

// admit checks that the frame parses as PBFT protocol traffic and, when it
// carries ordered application messages, that each is an SMIOP envelope of an
// allowed kind.
func (p *Proxy) admit(payload []byte) bool {
	msg, err := pbft.Decode(payload)
	if err != nil {
		p.stats.DroppedDecode++
		return false
	}
	// Requests carry SMIOP envelopes into the enclave — one, or a sender's
	// pack of them — read as the domain's queue will read them.
	req, ok := msg.(*pbft.Request)
	if !ok {
		return true // replica-to-replica protocol traffic
	}
	for _, op := range srm.Payloads(req.Op) {
		env, err := smiop.DecodeEnvelope(op)
		if err != nil {
			p.stats.DroppedDecode++
			return false
		}
		if p.policy.AllowKinds != nil && !p.policy.AllowKinds[env.Kind] {
			p.stats.DroppedKind++
			return false
		}
	}
	return true
}
