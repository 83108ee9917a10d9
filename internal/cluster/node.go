package cluster

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/obs"
	"itdos/internal/orb"
	"itdos/internal/replica"
	"itdos/internal/transport/tcp"
)

// NodeOptions tune one process's build.
type NodeOptions struct {
	// Listen overrides the node's spec listen address (the in-process
	// harness passes "127.0.0.1:0").
	Listen string
	// Metrics receives both transport and system instrumentation; nil
	// builds a fresh registry.
	Metrics *obs.Registry
	// Servant overrides the domain servant factory (default CalcServant
	// on every element). Used by the equivalence test to plant liars.
	Servant func(member int) orb.Servant
	// Tweak, if non-nil, edits the SystemConfig before the system is
	// built (latency knobs are meaningless here; protocol options are
	// not).
	Tweak func(*replica.SystemConfig)
}

// Node is one process of a cluster: the full system built deterministically
// from the spec, wired onto a TCP transport hosting this process's slice
// of it.
type Node struct {
	Spec    *Spec
	Process string
	Tr      *tcp.Transport
	Sys     *replica.System
	Metrics *obs.Registry
}

// NewNode builds (but does not start) one process of the cluster. The
// returned node's transport is bound — read Tr.Addr(), exchange addresses
// if needed, then Start.
func NewNode(spec *Spec, process string, opts NodeOptions) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	found := false
	listen := opts.Listen
	for _, nd := range spec.Nodes {
		if nd.Name == process {
			found = true
			if listen == "" {
				listen = nd.Listen
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: process %q not in spec", process)
	}
	if listen == "" {
		return nil, fmt.Errorf("cluster: process %q has no listen address", process)
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	tr, err := tcp.New(tcp.Config{
		Process: process,
		Listen:  listen,
		Peers:   spec.Addrs(),
		Hosts:   spec.Hosts(),
		Metrics: metrics,
	})
	if err != nil {
		return nil, err
	}

	servant := opts.Servant
	if servant == nil {
		servant = func(int) orb.Servant { return CalcServant() }
	}
	cfg := replica.SystemConfig{
		Seed:              spec.Seed,
		Transport:         tr,
		DeterministicKeys: true,
		Registry:          CalcRegistry(),
		ConfigSecret:      []byte(spec.Secret),
		GM:                replica.GroupSpec{N: spec.N(), F: spec.F},
		SendTimeout:       spec.SendTimeout(),
		MaxBatch:          spec.MaxBatch,
		BatchWait:         time.Duration(spec.BatchWaitMS) * time.Millisecond,
		Domains: []replica.DomainSpec{{
			Name: spec.Domain, N: spec.N(), F: spec.F,
			Setup: func(member int, adapter *orb.Adapter) error {
				return adapter.Register(CalcKey, CalcIface, servant(member))
			},
		}},
		Metrics: metrics,
	}
	for _, name := range spec.Clients() {
		cfg.Clients = append(cfg.Clients, replica.ClientSpec{Name: name})
	}
	if opts.Tweak != nil {
		opts.Tweak(&cfg)
	}
	// Building the system registers nodes and groups on the transport;
	// before Start the transport is single-threaded, so this is safe.
	sys, err := replica.NewSystem(cfg)
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &Node{Spec: spec, Process: process, Tr: tr, Sys: sys, Metrics: metrics}, nil
}

// Start launches the transport (the system is passive until traffic
// arrives).
func (n *Node) Start() error { return n.Tr.Start() }

// Close stops the transport and joins the system's ORB goroutines.
func (n *Node) Close() {
	n.Tr.Close()
	n.Sys.Close()
}

// Call drives one synchronous invocation through a hosted client from an
// external goroutine, with a wall-clock timeout. The invocation is posted
// to the transport loop; the client's coroutine discipline does the rest.
func (n *Node) Call(client string, ref orb.ObjectRef, op string, args []cdr.Value, timeout time.Duration) ([]cdr.Value, error) {
	c := n.Sys.Client(client)
	if c == nil {
		return nil, fmt.Errorf("cluster: no client %q on process %q", client, n.Process)
	}
	type result struct {
		vals []cdr.Value
		err  error
	}
	ch := make(chan result, 1)
	n.Tr.Post(func() {
		var vals []cdr.Value
		c.GoNotify(func() error {
			var err error
			vals, err = c.Call(ref, op, args)
			return err
		}, func(err error) {
			ch <- result{vals: vals, err: err}
		})
	})
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.vals, r.err
	case <-timer.C:
		return nil, fmt.Errorf("cluster: %s.%s on %s timed out after %v", ref.Domain, op, client, timeout)
	}
}

// InProcCluster is the loopback harness: every node of the spec built and
// started inside one OS process, listening on kernel-assigned ports. Used
// by the transport equivalence test.
type InProcCluster struct {
	Nodes map[string]*Node
}

// StartInProc builds and starts all nodes of spec over loopback. optsFor
// may be nil; otherwise it supplies per-process options (Listen is always
// overridden to 127.0.0.1:0). Each node is built and started under the
// pprof label node=<process>, which every goroutine it starts inherits — its
// transport loop, socket readers and writers, ORB threads — so a CPU profile
// of the one process splits by node.
func StartInProc(spec *Spec, optsFor func(process string) NodeOptions) (*InProcCluster, error) {
	cl := &InProcCluster{Nodes: make(map[string]*Node, len(spec.Nodes))}
	addrs := make(map[string]string, len(spec.Nodes))
	// Two-phase startup: bind every listener on port 0 first, then
	// exchange real addresses, then start.
	for _, nd := range spec.Nodes {
		opts := NodeOptions{}
		if optsFor != nil {
			opts = optsFor(nd.Name)
		}
		opts.Listen = "127.0.0.1:0"
		var node *Node
		var err error
		asNode(nd.Name, func() { node, err = NewNode(spec, nd.Name, opts) })
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Nodes[nd.Name] = node
		addrs[nd.Name] = node.Tr.Addr()
	}
	for _, node := range cl.Nodes {
		node.Tr.SetPeers(addrs)
	}
	for name, node := range cl.Nodes {
		var err error
		asNode(name, func() { err = node.Start() })
		if err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// asNode runs fn under the pprof label node=name.
func asNode(name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("node", name), func(context.Context) { fn() })
}

// Close shuts every node down.
func (c *InProcCluster) Close() {
	for _, n := range c.Nodes {
		n.Close()
	}
}
