// Package transport defines the pluggable message-passing contract every
// ITDOS protocol layer is written against: unicast and multicast sends,
// node registration, group membership, and clock-driven timers.
//
// Two backends implement it. internal/netsim is the deterministic twin — a
// single-threaded discrete-event simulator with virtual time, used by every
// test and recorded experiment. internal/transport/tcp carries the same
// protocol bytes over real sockets with real time, used by the multi-process
// cluster runner (cmd/itdos-cluster) and the open-loop load generator
// (cmd/itdos-load). The same seeded scenario must produce the same protocol
// decisions on both; the equivalence test in internal/cluster pins that.
package transport

import (
	"time"

	"itdos/internal/obs"
)

// NodeID identifies a process endpoint on the transport.
type NodeID string

// GroupID identifies a multicast group.
type GroupID string

// Handler receives messages delivered to a node.
type Handler interface {
	// Receive is invoked by the transport's single delivery thread when a
	// message arrives. Implementations may call back into the transport
	// (Send, Multicast, After) but must not retain payload beyond the call.
	Receive(from NodeID, payload []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, payload []byte)

// Receive implements Handler.
func (f HandlerFunc) Receive(from NodeID, payload []byte) { f(from, payload) }

// Timer is a handle for cancelling a scheduled callback. The zero Timer is
// valid and Stop on it is a no-op, so protocol code can declare a timer
// variable and unconditionally Stop it on every exit path.
type Timer struct {
	stop func()
}

// NewTimer wraps a backend's cancellation action into a Timer. The action
// must be idempotent: protocol code stops timers freely.
func NewTimer(stop func()) Timer { return Timer{stop: stop} }

// Stop cancels the timer if it has not fired. Safe to call multiple times
// and on the zero Timer.
func (t Timer) Stop() {
	if t.stop != nil {
		t.stop()
	}
}

// Transport is the send/multicast contract extracted from the protocol
// stack. Both backends serialise all Handler upcalls and timer callbacks
// onto one logical delivery thread (the simulator's event loop, or the TCP
// backend's loop goroutine): protocol state needs no locking, exactly the
// single-threaded discipline the deterministic twin enforces by design.
//
// Transport also satisfies obs.Clock, so tracers and flight recorders
// stamp events from whichever clock — virtual or monotonic wall — the
// deployment runs on.
type Transport interface {
	// Send queues a unicast message for asynchronous delivery. The payload
	// is copied (or framed) before Send returns; callers may reuse it.
	Send(from, to NodeID, payload []byte)
	// Multicast sends to every member of the group (including the sender
	// if it is a member), mirroring IP multicast semantics.
	Multicast(from NodeID, g GroupID, payload []byte)

	// AddNode registers a node's delivery handler. Re-registering an id
	// replaces its handler.
	AddNode(id NodeID, h Handler)
	// RemoveNode unregisters a node; in-flight messages to it are dropped
	// at delivery time.
	RemoveNode(id NodeID)

	// JoinGroup adds a node to a multicast group.
	JoinGroup(g GroupID, id NodeID)
	// LeaveGroup removes a node from a multicast group.
	LeaveGroup(g GroupID, id NodeID)
	// GroupMembers returns the members of a group in deterministic order.
	GroupMembers(g GroupID) []NodeID

	// After schedules fn on the delivery thread at now + d.
	After(d time.Duration, fn func()) Timer
	// Now returns the transport clock: virtual time on the simulator,
	// monotonic time since start on a live backend.
	Now() time.Duration
}

// SendQueue serialises sends through a one-outstanding-request channel
// (the PBFT client of an ordering group allows a single in-flight
// invocation): later payloads wait for the previous acknowledgement. Each
// payload may carry a detached tracing span, ended when its ACK arrives
// (or when the send fails outright).
//
// It is not safe for concurrent use: like every protocol structure it
// lives on the transport's delivery thread.
type SendQueue struct {
	// SendNow performs one immediate send attempt. Required.
	SendNow func(data []byte) error

	queue    [][]byte
	spans    []*obs.Span
	inflight bool
	cur      *obs.Span
}

// Send enqueues data, transmitting immediately when nothing is in flight.
// sp may be nil (spans are nil-safe).
func (q *SendQueue) Send(data []byte, sp *obs.Span) {
	if q.inflight {
		q.queue = append(q.queue, data)
		q.spans = append(q.spans, sp)
		return
	}
	q.inflight = true
	q.cur = sp
	if err := q.SendNow(data); err != nil {
		q.inflight = false
		q.cur.End()
		q.cur = nil
	}
}

// Acked advances the queue after the in-flight send was acknowledged,
// transmitting the next queued payload if any.
func (q *SendQueue) Acked() {
	q.cur.End()
	q.cur = nil
	if len(q.queue) == 0 {
		q.inflight = false
		return
	}
	next := q.queue[0]
	q.queue = q.queue[1:]
	q.cur = q.spans[0]
	q.spans = q.spans[1:]
	if err := q.SendNow(next); err != nil {
		q.inflight = false
		q.cur.End()
		q.cur = nil
	}
}
