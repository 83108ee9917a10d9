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
// transport, used by the SRM layer, tests and benchmarks.
type SimGroup struct {
	Name     string
	Net      transport.Transport
	Replicas []*Replica
	Addrs    []transport.NodeID
	Cfg      Config
}

// GroupAddrs returns the node ids for a group of n replicas named name.
func GroupAddrs(name string, n int) []transport.NodeID {
	addrs := make([]transport.NodeID, n)
	for i := range addrs {
		addrs[i] = transport.NodeID(fmt.Sprintf("%s/r%d", name, i))
	}
	return addrs
}

// NewSimGroup builds n=cfg.N replicas of a group on net. The appFactory is
// called once per replica to build its (independent) application instance.
// The cfg.ID and cfg.Auth fields are filled per replica; cfg.Auth on input
// may be nil, in which case fresh Ed25519 identities are generated into
// ring (which must then be shared with clients).
func NewSimGroup(net transport.Transport, name string, cfg Config, ring *Keyring,
	appFactory func(i int) App) (*SimGroup, error) {

	g := &SimGroup{Name: name, Net: net, Cfg: cfg, Addrs: GroupAddrs(name, cfg.N)}
	auths := make([]Authenticator, cfg.N)
	for i := 0; i < cfg.N; i++ {
		identity := replicaKey(ReplicaID(i))
		switch {
		case ring != nil && cfg.IdentitySeed != nil:
			priv, err := DeriveIdentity(identity, cfg.IdentitySeed, ring)
			if err != nil {
				return nil, err
			}
			auths[i] = NewEd25519Auth(identity, priv, ring)
		case ring != nil:
			priv, err := GenerateIdentity(identity, ring)
			if err != nil {
				return nil, err
			}
			auths[i] = NewEd25519Auth(identity, priv, ring)
		default:
			auths[i] = NewNullAuth(identity)
		}
	}
	for i := 0; i < cfg.N; i++ {
		rcfg := cfg
		rcfg.ID = ReplicaID(i)
		rcfg.Auth = auths[i]
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

// NewSimClient builds a client of the group registered at addr on the
// group's network. The identity is registered in ring when ring is non-nil;
// otherwise null authentication is used (must match the group).
func (g *SimGroup) NewSimClient(id, addr string, ring *Keyring, timeout time.Duration) (*Client, error) {
	var auth Authenticator
	if ring != nil {
		priv, err := GenerateIdentity(id, ring)
		if err != nil {
			return nil, err
		}
		auth = NewEd25519Auth(id, priv, ring)
	} else {
		auth = NewNullAuth(id)
	}
	return g.NewSimClientWithAuth(id, addr, auth, timeout)
}

// NewSimClientWithAuth builds a client using an existing authenticator
// whose public key the group's replicas can already verify (the caller is
// responsible for having registered it in the group's keyring).
func (g *SimGroup) NewSimClientWithAuth(id, addr string, auth Authenticator, timeout time.Duration) (*Client, error) {
	env := &SimReplicaEnv{net: g.Net, self: transport.NodeID(addr), addrs: g.Addrs, selfIdx: -1}
	cli, err := NewClient(ClientConfig{
		ID: id, ReplyAddr: addr, N: g.Cfg.N, F: g.Cfg.F,
		RetransmitTimeout: timeout, Auth: auth,
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
