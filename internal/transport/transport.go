// Package transport defines the pluggable message-passing contract every
// ITDOS protocol layer is written against: unicast sends, node
// registration, and clock-driven timers. Fan-out to a group is a loop over
// Send in the protocol layer, so a new backend (or a wrapper over one)
// implements four methods.
//
// Two backends implement it. internal/netsim is the deterministic twin — a
// single-threaded discrete-event simulator with virtual time, used by every
// test and recorded experiment. internal/transport/tcp carries the same
// protocol bytes over real sockets with real time, used by the multi-process
// cluster runner (cmd/itdos-cluster) and the open-loop load generator
// (cmd/itdos-load). The same seeded scenario must produce the same protocol
// decisions on both; the equivalence test in internal/cluster pins that.
package transport

import "time"

// NodeID identifies a process endpoint on the transport.
type NodeID string

// Releaser owns pooled storage (a *pool.Buffer): Release gives it back.
type Releaser interface{ Release() }

// Handler receives messages delivered to a node.
type Handler interface {
	// Receive is invoked by the transport's single delivery thread when a
	// message arrives. Implementations may call back into the transport
	// (Send, After). The payload is the receiver's alone, to keep and to
	// write: no other receiver and no sender holds it, and the transport
	// never touches it again. So decoders above it return slices of it
	// instead of copies, and a receiver may decrypt it in place.
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

// Transport is the message-passing contract extracted from the protocol
// stack. Both backends serialise all Handler upcalls and timer callbacks
// onto one logical delivery thread (the simulator's event loop, or the TCP
// backend's loop goroutine): protocol state needs no locking, exactly the
// single-threaded discipline the deterministic twin enforces by design.
//
// Transport also satisfies obs.Clock, so tracers and flight recorders
// stamp events from whichever clock — virtual or monotonic wall — the
// deployment runs on.
type Transport interface {
	// Send queues a unicast message for asynchronous delivery and takes
	// payload over: the transport may hold it until it is written, so the
	// caller must not write it afterwards, nor recycle its storage. Nothing
	// writes it, so the caller may hand the same bytes to more Sends (one
	// encoded message to every destination) or keep them to send again. A
	// receiver gets a buffer of its own (see Handler.Receive): a remote one
	// the bytes its socket read, a same-process one a copy of payload. The
	// owner, at most one and given when payload lies in pooled storage, is
	// released exactly once, when the transport is done with payload: after
	// the write or the copy, or when the message is refused, dropped or
	// still queued at close. A caller that hands one pooled payload to
	// several Sends gives each its own reference.
	Send(from, to NodeID, payload []byte, owner ...Releaser)
	// AddNode registers a node's delivery handler. Re-registering an id
	// replaces its handler.
	AddNode(id NodeID, h Handler)
	// After schedules fn on the delivery thread at now + d.
	After(d time.Duration, fn func()) Timer
	// Now returns the transport clock: virtual time on the simulator,
	// monotonic time since start on a live backend.
	Now() time.Duration
}

// Backoff returns the delay before the attempt-th retry (attempt counts from
// 0): a positive base doubled per attempt and capped at cap, so the loop
// ends once cap is reached whatever the attempt count. It is the one retry
// schedule of the stack — the endpoint's request resends and open_request
// retransmissions, and the TCP backend's redials.
func Backoff(attempt int, base, cap time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	return min(d, cap)
}
