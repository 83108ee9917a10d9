package smiop

import (
	"fmt"

	"itdos/internal/cdr"
	"itdos/internal/pool"
	"itdos/internal/quorum"
	"itdos/internal/seckey"
)

// PeerInfo describes one side of a connection: a replication domain (a
// singleton client is a domain with N=1, F=0).
type PeerInfo struct {
	Name string
	N, F int
}

// Validate checks the peer description.
func (p PeerInfo) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("smiop: peer needs a name")
	}
	if p.N < 1 || p.F < 0 || (p.F > 0 && p.N < quorum.N(p.F)) {
		return fmt.Errorf("smiop: peer %s has invalid group n=%d f=%d", p.Name, p.N, p.F)
	}
	return nil
}

// Connection is one endpoint's view of an ITDOS virtual connection
// (paper §3.3): connection identity, the peer domain, the communication
// key, and the per-sender cipher channels with replay state.
//
// Connection state is per replication domain *element*: every element of
// both domains holds its own Connection for the same ConnID, keyed with
// the same communication key (distributed as DPRF shares by the Group
// Manager).
type Connection struct {
	ID          uint64
	Local       PeerInfo
	LocalMember int
	Peer        PeerInfo

	key     seckey.Key
	keyEra  uint64
	send    *seckey.Channel
	recv    map[uint32]*seckey.Channel
	nextReq uint64

	// expelled marks peer members keyed out by the Group Manager; their
	// envelopes are dropped without decryption attempts.
	expelled map[uint32]bool
}

// NewConnection builds a connection endpoint.
func NewConnection(id uint64, local PeerInfo, localMember int, peer PeerInfo, key seckey.Key) (*Connection, error) {
	if err := local.Validate(); err != nil {
		return nil, err
	}
	if err := peer.Validate(); err != nil {
		return nil, err
	}
	if localMember < 0 || localMember >= local.N {
		return nil, fmt.Errorf("smiop: local member %d out of range [0,%d)", localMember, local.N)
	}
	c := &Connection{
		ID: id, Local: local, LocalMember: localMember, Peer: peer,
		expelled: make(map[uint32]bool),
	}
	c.install(key)
	return c, nil
}

// install (re)builds the cipher channels for a communication key. Each
// (era, direction, sender) tuple gets an independent channel so nonces are
// unique and replay windows reset safely on rekey.
func (c *Connection) install(key seckey.Key) {
	c.key = key
	c.send = seckey.NewChannel(key, c.chanContext(c.Local.Name, uint32(c.LocalMember)))
	c.recv = make(map[uint32]*seckey.Channel, c.Peer.N)
	for m := 0; m < c.Peer.N; m++ {
		c.recv[uint32(m)] = seckey.NewChannel(key, c.chanContext(c.Peer.Name, uint32(m)))
	}
}

func (c *Connection) chanContext(domain string, member uint32) string {
	return fmt.Sprintf("conn%d|era%d|%s|m%d", c.ID, c.keyEra, domain, member)
}

// Rekey installs a new communication key for the given era (after the
// Group Manager expels a member, paper §3.5). Replay windows restart under
// fresh channel contexts. Eras must increase; a stale era is ignored.
func (c *Connection) Rekey(era uint64, key seckey.Key, expelledPeerMembers []int) {
	if era <= c.keyEra {
		return
	}
	c.keyEra = era
	for _, m := range expelledPeerMembers {
		if m >= 0 && m < c.Peer.N {
			c.expelled[uint32(m)] = true
		}
	}
	c.install(key)
}

// KeyEra returns how many times the connection has been rekeyed.
func (c *Connection) KeyEra() uint64 { return c.keyEra }

// Expelled reports whether a peer member has been keyed out.
func (c *Connection) Expelled(member uint32) bool { return c.expelled[member] }

// NextRequestID allocates the next strictly increasing request id for
// messages this element originates on the connection.
func (c *Connection) NextRequestID() uint64 {
	c.nextReq++
	return c.nextReq
}

// CurrentRequestID returns the most recently allocated request id.
func (c *Connection) CurrentRequestID() uint64 { return c.nextReq }

// OpenData authenticates and decrypts a peer data envelope, returning the
// GIOP bytes. An owned envelope (Envelope.Owned) is decrypted in place, over
// its own ciphertext; any other into a fresh buffer. The seal authenticates
// the envelope's header too. An envelope of another kind or connection, or
// from a member that is unknown or expelled, is refused unopened.
func (c *Connection) OpenData(env *Envelope) ([]byte, error) {
	if env.Kind != KindData {
		return nil, fmt.Errorf("smiop: conn %d: not a data envelope: %s", c.ID, env.Kind)
	}
	if env.ConnID != c.ID {
		return nil, fmt.Errorf("smiop: envelope for conn %d on conn %d", env.ConnID, c.ID)
	}
	if c.expelled[env.SrcMember] {
		return nil, fmt.Errorf("smiop: conn %d: member %d of %s was expelled",
			c.ID, env.SrcMember, env.SrcDomain)
	}
	ch, ok := c.recv[env.SrcMember]
	if !ok {
		return nil, fmt.Errorf("smiop: conn %d: unknown peer member %d", c.ID, env.SrcMember)
	}
	n := seckey.OpenedLen(env.Payload)
	if n < 0 {
		return nil, fmt.Errorf("smiop: conn %d member %d: sealed payload of %d bytes",
			c.ID, env.SrcMember, len(env.Payload))
	}
	dst := env.Payload[seckey.SealHeadLen:]
	if !env.Owned {
		dst = make([]byte, n)
	}
	hdr := pool.Get(headSlack(env.SrcDomain))
	defer hdr.Release()
	e := cdr.NewEncoderOver(cdr.BigEndian, hdr.B)
	env.writeHeader(e)
	pt, err := ch.OpenTo(dst, env.Payload, e.Bytes())
	if err != nil {
		return nil, fmt.Errorf("smiop: conn %d member %d: %w", c.ID, env.SrcMember, err)
	}
	return pt, nil
}
