package pbft

import (
	"bytes"
	"fmt"
	"time"

	"itdos/internal/quorum"
)

// ClientEnv is the world a PBFT client talks to.
type ClientEnv interface {
	// SendReplica transmits data to one replica of the target group.
	SendReplica(to ReplicaID, data []byte)
	// Broadcast transmits data to every replica of the target group.
	Broadcast(data []byte)
	// SetTimer (re)arms the retransmission timer.
	SetTimer(d time.Duration)
	// StopTimer disarms the retransmission timer.
	StopTimer()
}

// DefaultRetransmitTimeout is a client's base request retransmission
// timeout when its configuration names none.
const DefaultRetransmitTimeout = 150 * time.Millisecond

// ClientConfig parameterises a PBFT client.
type ClientConfig struct {
	// ID is the client's authentication identity.
	ID string
	// Group names the target replica group: its replicas sign as
	// Identities(Group, N).
	Group string
	// ReplyAddr is the transport address replicas send replies to.
	ReplyAddr string
	// N, F describe the target replica group.
	N, F int
	// RetransmitTimeout is the base request retransmission timeout
	// (default DefaultRetransmitTimeout).
	RetransmitTimeout time.Duration
	// Auth signs and tags requests and checks the replicas' tags on
	// replies.
	Auth Authenticator
}

func (c *ClientConfig) fill() error {
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = DefaultRetransmitTimeout
	}
	if c.N < quorum.N(c.F) {
		return fmt.Errorf("pbft: client config: n=%d < 3f+1 (f=%d)", c.N, c.F)
	}
	if c.Auth == nil {
		return fmt.Errorf("pbft: client config requires an Authenticator")
	}
	return nil
}

type pendingInvocation struct {
	seq     uint64
	data    []byte
	replies map[ReplicaID]*Reply
	timeout time.Duration
}

// Client issues totally-ordered operations against a replica group and
// accepts a result once f+1 replicas return matching replies (the
// Castro–Liskov client rule the paper describes in §3.1).
//
// Like the replica, the client is event-driven and single-threaded: drive
// it with HandleMessage and HandleTimer. One invocation may be outstanding
// at a time — this is also ITDOS's concurrency model ("only one
// outstanding request can exist for a connection", §3.6).
type Client struct {
	cfg     ClientConfig
	ids     []string // the replicas' identities
	env     ClientEnv
	seq     uint64
	primary ReplicaID
	pending *pendingInvocation

	// OnResult receives the accepted result for each invocation.
	OnResult func(clientSeq uint64, result []byte)
}

// NewClient constructs a client over env.
func NewClient(cfg ClientConfig, env ClientEnv) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Client{cfg: cfg, ids: Identities(cfg.Group, cfg.N), env: env}, nil
}

// LastSeq returns the most recently assigned client sequence number.
func (c *Client) LastSeq() uint64 { return c.seq }

// Invoke submits op for total ordering. It returns the client sequence
// number identifying the invocation; the result arrives via OnResult. A
// request over MaxRequestBytes, which no replica would order, is refused.
func (c *Client) Invoke(op []byte) (uint64, error) {
	if c.pending != nil {
		return 0, fmt.Errorf("pbft: client %s already has request %d outstanding",
			c.cfg.ID, c.pending.seq)
	}
	req := &Request{
		ClientID:  c.cfg.ID,
		ClientSeq: c.seq + 1,
		Op:        op,
		ReplyTo:   c.cfg.ReplyAddr,
	}
	signIn(c.cfg.Auth, req, c.ids)
	if req.Size() > MaxRequestBytes {
		return 0, fmt.Errorf("pbft: client %s: request of %d bytes exceeds %d",
			c.cfg.ID, req.Size(), MaxRequestBytes)
	}
	c.seq++
	data := Encode(req)
	c.pending = &pendingInvocation{
		seq:     c.seq,
		data:    data,
		replies: make(map[ReplicaID]*Reply),
		timeout: c.cfg.RetransmitTimeout,
	}
	c.env.SendReplica(c.primary, data)
	c.env.SetTimer(c.pending.timeout)
	return c.seq, nil
}

// HandleMessage processes a wire message (expected: Reply). A reply that
// answers nothing outstanding is dropped before its tag is checked: of the
// n replies to an invocation, those after the accepting f+1 are exactly
// that.
func (c *Client) HandleMessage(data []byte) {
	m, err := Decode(data)
	if err != nil {
		return
	}
	reply, ok := m.(*Reply)
	if !ok {
		return
	}
	p := c.pending
	if p == nil || reply.ClientID != c.cfg.ID || reply.ClientSeq != p.seq {
		return
	}
	if !verifyIn(c.cfg.Auth, reply, -1, c.ids) {
		return
	}
	c.onReply(p, reply)
}

func (c *Client) onReply(p *pendingInvocation, reply *Reply) {
	p.replies[reply.Replica] = reply
	// Accept once f+1 distinct replicas agree on the result bytes.
	count, sameView := 0, 0
	for _, other := range p.replies {
		if bytes.Equal(other.Result, reply.Result) {
			count++
			if other.View == reply.View {
				sameView++
			}
		}
	}
	if count < quorum.Vote(c.cfg.F) {
		return
	}
	// Send the next request to the primary of the view the accepted replies
	// name, if f+1 of them name one: a single replica's word would let it
	// name itself and swallow every next request until the retransmission
	// timer. Without agreement the old hint stands — a correct replica that
	// is no longer primary forwards.
	if sameView >= quorum.Vote(c.cfg.F) {
		c.primary = ReplicaID(reply.View % uint64(c.cfg.N))
	}
	c.pending = nil
	c.env.StopTimer()
	if c.OnResult != nil {
		c.OnResult(reply.ClientSeq, reply.Result)
	}
}

// HandleTimer retransmits the outstanding request to the whole group (the
// client cannot know which replica is a correct primary, so after a timeout
// it multicasts, per Castro–Liskov).
func (c *Client) HandleTimer() {
	p := c.pending
	if p == nil {
		return
	}
	c.env.Broadcast(p.data)
	p.timeout *= 2
	c.env.SetTimer(p.timeout)
}
