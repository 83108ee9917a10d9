// Package cluster turns one SystemConfig into a multi-process deployment
// over the TCP transport: a Spec assigns replica and client identities to
// named processes, and NewNode builds one process's view — the full
// system wired onto a tcp.Transport that suppresses everything the
// process does not host. cmd/itdos-cluster runs one Node per OS process;
// cmd/itdos-load drives calls through a client-hosting Node; the
// equivalence test runs all Nodes in one process over loopback and pins
// their decisions against the netsim twin.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/idl"
	"itdos/internal/orb"
	"itdos/internal/quorum"
	"itdos/internal/replica"
)

// NodeSpec names one process of the cluster. The first quorum.N(F) nodes
// (in slice order) host Group Manager element i and domain element i;
// any node may additionally host singleton clients.
type NodeSpec struct {
	// Name is the process name (also its identity routing key).
	Name string `json:"name"`
	// Listen is the node's TCP listen address. Empty with AutoPorts
	// clusters (the in-process harness binds port 0 and exchanges real
	// addresses before starting).
	Listen string `json:"listen,omitempty"`
	// Clients are the singleton client names this process hosts.
	Clients []string `json:"clients,omitempty"`
	// Pool additionally hosts this many generated clients named
	// "<name>-c<i>". The load generator drives one open-loop arrival
	// stream across the pool; a large pool is how thousands of concurrent
	// simulated clients share one OS process.
	Pool int `json:"pool,omitempty"`
}

// ClientNames returns every client this node hosts: the explicit names
// plus the generated pool.
func (nd *NodeSpec) ClientNames() []string {
	out := append([]string(nil), nd.Clients...)
	for i := 0; i < nd.Pool; i++ {
		out = append(out, fmt.Sprintf("%s-c%d", nd.Name, i))
	}
	return out
}

// Spec is the node-address configuration file driving cmd/itdos-cluster
// and cmd/itdos-load. Every process of a deployment loads the identical
// spec; deterministic key derivation from Secret makes the independently
// built systems agree on all key material.
type Spec struct {
	// Seed is the deployment seed (netsim twin runs use it as the
	// simulator seed; it also salts nothing else — keys come from Secret).
	Seed int64 `json:"seed"`
	// F is the failure bound; the replica group size is quorum.N(F).
	F int `json:"f"`
	// Domain is the application replication domain name.
	Domain string `json:"domain"`
	// Secret seeds all pre-established keys (SystemConfig.ConfigSecret).
	Secret string `json:"secret"`
	// SendTimeout is the PBFT client retransmission timeout in
	// milliseconds; 0 keeps the library default (tuned for virtual time —
	// real deployments want something larger, e.g. 500).
	SendTimeoutMS int `json:"send_timeout_ms"`
	// MaxBatch is the ordering layer's request batch bound (see
	// pbft.Config.MaxBatch); 0 selects the unbatched protocol. Open-loop
	// load against real sockets is what batching exists for — a live
	// deployment wants something like 16.
	MaxBatch int `json:"max_batch,omitempty"`
	// BatchWaitMS is the longest, in milliseconds, the primary holds a
	// batch open for callers it is not awaiting (see pbft.Config.BatchWait;
	// only used with MaxBatch > 1). A window closes sooner once every caller
	// the primary just answered has asked again.
	BatchWaitMS int `json:"batch_wait_ms,omitempty"`
	// Nodes lists the processes. At least quorum.N(F) entries.
	Nodes []NodeSpec `json:"nodes"`
}

// N returns the replica group size for the spec's failure bound.
func (s *Spec) N() int { return quorum.N(s.F) }

// Validate checks the spec's shape.
func (s *Spec) Validate() error {
	if s.Domain == "" {
		return fmt.Errorf("cluster: spec needs a domain name")
	}
	if strings.ContainsAny(s.Domain, "/|") || s.Domain == replica.GMDomainName {
		return fmt.Errorf("cluster: invalid domain name %q", s.Domain)
	}
	if s.F < 1 {
		return fmt.Errorf("cluster: f must be >= 1, got %d", s.F)
	}
	if len(s.Nodes) < s.N() {
		return fmt.Errorf("cluster: %d nodes cannot host %d replicas (f=%d)", len(s.Nodes), s.N(), s.F)
	}
	names := map[string]bool{}
	clients := map[string]bool{}
	for _, nd := range s.Nodes {
		if nd.Name == "" || names[nd.Name] {
			return fmt.Errorf("cluster: missing or duplicate node name %q", nd.Name)
		}
		names[nd.Name] = true
		if nd.Pool < 0 {
			return fmt.Errorf("cluster: node %q has negative client pool %d", nd.Name, nd.Pool)
		}
		for _, c := range nd.ClientNames() {
			if c == "" || clients[c] {
				return fmt.Errorf("cluster: missing or duplicate client name %q", c)
			}
			clients[c] = true
		}
	}
	return nil
}

// Clients returns every client name in the spec, in node order.
func (s *Spec) Clients() []string {
	var out []string
	for _, nd := range s.Nodes {
		out = append(out, nd.ClientNames()...)
	}
	return out
}

// Hosts builds the tcp transport's process → identity-prefix map: node i
// hosts gm/ri and <domain>/ri for i < N, and every node hosts its
// declared clients. Prefixes cover all derived addresses (inboxes,
// per-target sender addresses) by the transport's longest-prefix rule.
func (s *Spec) Hosts() map[string][]string {
	h := make(map[string][]string, len(s.Nodes))
	for i, nd := range s.Nodes {
		prefixes := []string{}
		if i < s.N() {
			prefixes = append(prefixes,
				replica.GMElementIdentity(i),
				replica.ElementIdentity(s.Domain, i))
		}
		prefixes = append(prefixes, nd.ClientNames()...)
		h[nd.Name] = prefixes
	}
	return h
}

// Addrs returns the node name → listen address map from the spec.
func (s *Spec) Addrs() map[string]string {
	m := make(map[string]string, len(s.Nodes))
	for _, nd := range s.Nodes {
		m[nd.Name] = nd.Listen
	}
	return m
}

// SendTimeout returns the spec's PBFT retransmission timeout (0 = library
// default).
func (s *Spec) SendTimeout() time.Duration {
	return time.Duration(s.SendTimeoutMS) * time.Millisecond
}

// ReadSpec loads and validates a spec file.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("cluster: parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WriteSpec renders a spec file.
func WriteSpec(path string, s *Spec) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- the demo application every cluster tool serves ---

// CalcIface is the demo calculator interface id.
const CalcIface = "IDL:cluster/Calc:1.0"

// CalcKey is the object key the calculator registers under.
const CalcKey = "calc"

// CalcRef returns the object reference for the spec's calculator.
func CalcRef(domain string) orb.ObjectRef {
	return orb.ObjectRef{Domain: domain, ObjectKey: CalcKey, Interface: CalcIface}
}

// CalcRegistry builds the shared interface repository for the demo app.
func CalcRegistry() *idl.Registry {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(CalcIface).
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}).
		Op("echo",
			[]idl.Param{{Name: "s", Type: cdr.String}},
			[]idl.Param{{Name: "out", Type: cdr.String}}))
	return reg
}

// CalcServant returns the deterministic demo servant.
func CalcServant() orb.Servant {
	return orb.ServantFunc(func(_ *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
		switch op {
		case "add":
			return []cdr.Value{args[0].(float64) + args[1].(float64)}, nil
		case "echo":
			return []cdr.Value{args[0]}, nil
		}
		return nil, orb.ErrBadOperation
	})
}
