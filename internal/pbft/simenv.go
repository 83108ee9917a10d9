package pbft

import (
	"fmt"
	"time"

	"itdos/internal/transport"
)

// SimReplicaEnv adapts a transport.Transport to the Env interface of a
// replica, and to the ClientEnv of a client: a client's environment has no
// index in the group (selfIdx -1), so its Broadcast reaches every replica.
type SimReplicaEnv struct {
	net          transport.Transport
	self         transport.NodeID
	addrs        []transport.NodeID
	selfIdx      ReplicaID
	timer        transport.Timer
	onTimer      func()
	batchTimer   transport.Timer
	onBatchTimer func()
}

var (
	_ Env       = (*SimReplicaEnv)(nil)
	_ ClientEnv = (*SimReplicaEnv)(nil)
)

// SendReplica implements Env.
func (e *SimReplicaEnv) SendReplica(to ReplicaID, data []byte) {
	if to < 0 || int(to) >= len(e.addrs) {
		return
	}
	e.net.Send(e.self, e.addrs[to], data)
}

// Broadcast implements Env.
func (e *SimReplicaEnv) Broadcast(data []byte) {
	for i, addr := range e.addrs {
		if ReplicaID(i) == e.selfIdx {
			continue
		}
		e.net.Send(e.self, addr, data)
	}
}

// SendAddr implements Env.
func (e *SimReplicaEnv) SendAddr(addr string, data []byte) {
	e.net.Send(e.self, transport.NodeID(addr), data)
}

// SetTimer implements Env.
func (e *SimReplicaEnv) SetTimer(d time.Duration) {
	e.timer.Stop()
	e.timer = e.net.After(d, func() {
		if e.onTimer != nil {
			e.onTimer()
		}
	})
}

// StopTimer implements Env.
func (e *SimReplicaEnv) StopTimer() { e.timer.Stop() }

// SetBatchTimer implements Env.
func (e *SimReplicaEnv) SetBatchTimer(d time.Duration) {
	e.batchTimer.Stop()
	e.batchTimer = e.net.After(d, func() {
		if e.onBatchTimer != nil {
			e.onBatchTimer()
		}
	})
}

// SimGroup is a convenience harness: a full replica group wired onto a
// transport, used by the SRM layer, tests and benchmarks. Every key of the
// group and of its clients is derived from one seed into Ring.
type SimGroup struct {
	Name     string
	Net      transport.Transport
	Replicas []*Replica
	Addrs    []transport.NodeID
	Cfg      Config
	Ring     *Keyring
	seed     []byte
}

// NewSimGroup builds n=cfg.N replicas of the group name on net. The
// appFactory is called once per replica to build its (independent)
// application instance. Replica i listens at, and signs as, its identity
// (Identities), its key derived from seed into ring; cfg.Group, cfg.ID and
// cfg.Auth are filled per replica.
func NewSimGroup(net transport.Transport, name string, cfg Config, ring *Keyring, seed []byte,
	appFactory func(i int) App) (*SimGroup, error) {

	cfg.Group = name
	g := &SimGroup{Name: name, Net: net, Cfg: cfg, Ring: ring, seed: seed}
	ids := Identities(name, cfg.N)
	for _, id := range ids {
		g.Addrs = append(g.Addrs, transport.NodeID(id))
	}
	for i, id := range ids {
		priv, err := DeriveIdentity(id, seed, ring)
		if err != nil {
			return nil, err
		}
		rcfg := cfg
		rcfg.ID = ReplicaID(i)
		rcfg.Auth = NewEd25519Auth(id, priv, ring)
		env := &SimReplicaEnv{net: net, self: g.Addrs[i], addrs: g.Addrs, selfIdx: rcfg.ID}
		rep, err := NewReplica(rcfg, appFactory(i), env)
		if err != nil {
			return nil, fmt.Errorf("pbft: build %s replica %d: %w", name, i, err)
		}
		env.onTimer = rep.HandleTimer
		env.onBatchTimer = rep.HandleBatchTimer
		net.AddNode(g.Addrs[i], transport.HandlerFunc(func(_ transport.NodeID, payload []byte) {
			rep.HandleMessage(payload)
		}))
		g.Replicas = append(g.Replicas, rep)
	}
	return g, nil
}

// NewSimClient builds a client of the group with identity id, registered at
// addr on the group's network, its key derived from the group's seed into
// the group's keyring.
func (g *SimGroup) NewSimClient(id, addr string, timeout time.Duration) (*Client, error) {
	priv, err := DeriveIdentity(id, g.seed, g.Ring)
	if err != nil {
		return nil, err
	}
	env := &SimReplicaEnv{net: g.Net, self: transport.NodeID(addr), addrs: g.Addrs, selfIdx: -1}
	cli, err := NewClient(ClientConfig{
		ID: id, Group: g.Name, ReplyAddr: addr, N: g.Cfg.N, F: g.Cfg.F,
		RetransmitTimeout: timeout, Auth: NewEd25519Auth(id, priv, g.Ring),
	}, env)
	if err != nil {
		return nil, err
	}
	env.onTimer = cli.HandleTimer
	g.Net.AddNode(transport.NodeID(addr), transport.HandlerFunc(func(_ transport.NodeID, payload []byte) {
		cli.HandleMessage(payload)
	}))
	return cli, nil
}
