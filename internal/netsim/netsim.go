// Package netsim is a deterministic discrete-event network simulator.
//
// It stands in for the paper's testbed (a Solaris/Linux LAN carrying IP
// multicast): the same protocol code that runs on a live transport runs on
// the simulator, but with virtual time, seeded randomness, exact message
// accounting, and adversarial controls (drops, delays, partitions, and
// Byzantine interception) that a real network cannot provide on demand.
//
// The simulator is single-threaded: Run executes events in (time, sequence)
// order and handlers run inline, so a test that fixes the seed replays the
// identical schedule every time.
package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"itdos/internal/transport"
)

// The simulator implements transport.Transport; the identifier types are
// aliases so protocol code written against either package interoperates
// without conversion.
type (
	// NodeID identifies a simulated process endpoint.
	NodeID = transport.NodeID
	// Handler receives messages delivered to a node.
	Handler = transport.Handler
	// HandlerFunc adapts a function to the Handler interface.
	HandlerFunc = transport.HandlerFunc
	// Timer is a handle for cancelling a scheduled callback.
	Timer = transport.Timer
)

var _ transport.Transport = (*Network)(nil)

// Filter inspects (and may drop or mutate) a message in flight. Filters are
// how tests inject Byzantine network behaviour without touching protocol
// code. Returning drop=true discards the message; returning a non-nil
// payload replaces it.
type Filter func(from, to NodeID, payload []byte) (mutated []byte, drop bool)

// LatencyModel returns the one-way delay for a message.
type LatencyModel func(from, to NodeID, rng *rand.Rand) time.Duration

// ConstantLatency returns a LatencyModel with a fixed one-way delay.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(_, _ NodeID, _ *rand.Rand) time.Duration { return d }
}

// UniformLatency returns a LatencyModel drawing uniformly from [lo, hi].
func UniformLatency(lo, hi time.Duration) LatencyModel {
	if hi < lo {
		lo, hi = hi, lo
	}
	return func(_, _ NodeID, rng *rand.Rand) time.Duration {
		if hi == lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
	}
}

// Stats aggregates traffic counters. All counts are since construction (the
// simulator never resets them; callers snapshot and subtract).
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64
	BytesSent         uint64
	BytesDelivered    uint64
}

type eventKind int

const (
	evDeliver eventKind = iota + 1
	evTimer
)

type event struct {
	at   time.Duration
	seq  uint64 // tie-break for determinism
	kind eventKind

	// evDeliver
	from, to NodeID
	payload  []byte

	// evTimer
	fn        func()
	cancelled *bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Network is the simulator. Create with NewNetwork; not safe for concurrent
// use (by design — determinism requires a single driver).
type Network struct {
	now      time.Duration
	seq      uint64
	pq       eventHeap
	nodes    map[NodeID]Handler
	rng      *rand.Rand
	latency  LatencyModel
	dropRate float64
	filters  []Filter
	cut      map[NodeID]map[NodeID]bool
	stats    Stats
}

// NewNetwork creates a simulator with the given seed and latency model.
// A nil latency model defaults to a constant 1ms.
func NewNetwork(seed int64, latency LatencyModel) *Network {
	if latency == nil {
		latency = ConstantLatency(time.Millisecond)
	}
	return &Network{
		nodes:   make(map[NodeID]Handler),
		rng:     rand.New(rand.NewSource(seed)),
		latency: latency,
		cut:     make(map[NodeID]map[NodeID]bool),
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// SetDropRate sets the probability in [0,1] that any message is silently
// dropped in flight.
func (n *Network) SetDropRate(p float64) { n.dropRate = p }

// AddFilter installs a Byzantine interception filter. Filters run in
// installation order on every message.
func (n *Network) AddFilter(f Filter) { n.filters = append(n.filters, f) }

// ClearFilters removes all filters.
func (n *Network) ClearFilters() { n.filters = nil }

// AddNode registers a node. Re-registering an id replaces its handler
// (used to simulate process restart).
func (n *Network) AddNode(id NodeID, h Handler) {
	n.nodes[id] = h
}

// RemoveNode unregisters a node; in-flight messages to it are dropped at
// delivery time (simulating a crash). A simulator control like Partition,
// not part of transport.Transport.
func (n *Network) RemoveNode(id NodeID) {
	delete(n.nodes, id)
}

// Partition cuts bidirectional connectivity between every pair in (a, b).
func (n *Network) Partition(a, b []NodeID) {
	for _, x := range a {
		for _, y := range b {
			n.cutPair(x, y)
			n.cutPair(y, x)
		}
	}
}

func (n *Network) cutPair(x, y NodeID) {
	if n.cut[x] == nil {
		n.cut[x] = make(map[NodeID]bool)
	}
	n.cut[x][y] = true
}

// Heal removes all partitions.
func (n *Network) Heal() { n.cut = make(map[NodeID]map[NodeID]bool) }

// Send queues a unicast message. Delivery time is now + latency, subject to
// drops, partitions and filters at delivery time. The receiver gets a copy
// of its own, made here, so the owner is released at once.
func (n *Network) Send(from, to NodeID, payload []byte, owner ...transport.Releaser) {
	n.stats.MessagesSent++
	n.stats.BytesSent += uint64(len(payload))
	delay := n.latency(from, to, n.rng)
	n.push(&event{
		at: n.now + delay, kind: evDeliver,
		from: from, to: to,
		payload: append([]byte(nil), payload...),
	})
	for _, o := range owner {
		o.Release()
	}
}

// After schedules fn to run at now + d. It returns a Timer for cancellation.
func (n *Network) After(d time.Duration, fn func()) Timer {
	cancelled := new(bool)
	n.push(&event{
		at: n.now + d, kind: evTimer,
		fn: fn, cancelled: cancelled,
	})
	return transport.NewTimer(func() { *cancelled = true })
}

func (n *Network) push(ev *event) {
	n.seq++
	ev.seq = n.seq
	heap.Push(&n.pq, ev)
}

// Step executes the next event. It returns false when the queue is empty.
func (n *Network) Step() bool {
	if len(n.pq) == 0 {
		return false
	}
	ev := heap.Pop(&n.pq).(*event)
	if ev.at > n.now {
		n.now = ev.at
	}
	switch ev.kind {
	case evTimer:
		if !*ev.cancelled {
			ev.fn()
		}
	case evDeliver:
		n.deliver(ev)
	}
	return true
}

func (n *Network) deliver(ev *event) {
	if n.cut[ev.from][ev.to] {
		n.stats.MessagesDropped++
		return
	}
	if n.dropRate > 0 && n.rng.Float64() < n.dropRate {
		n.stats.MessagesDropped++
		return
	}
	payload := ev.payload
	for _, f := range n.filters {
		mutated, drop := f(ev.from, ev.to, payload)
		if drop {
			n.stats.MessagesDropped++
			return
		}
		if mutated != nil {
			payload = mutated
		}
	}
	h, ok := n.nodes[ev.to]
	if !ok {
		n.stats.MessagesDropped++
		return
	}
	n.stats.MessagesDelivered++
	n.stats.BytesDelivered += uint64(len(payload))
	h.Receive(ev.from, payload)
}

// Run executes events until the queue is empty or maxEvents events have
// run. It returns the number of events executed.
func (n *Network) Run(maxEvents int) int {
	ran := 0
	for ran < maxEvents && n.Step() {
		ran++
	}
	return ran
}

// RunFor executes events with timestamps up to and including now + d.
func (n *Network) RunFor(d time.Duration) {
	deadline := n.now + d
	for len(n.pq) > 0 && n.pq[0].at <= deadline {
		n.Step()
	}
	if n.now < deadline {
		n.now = deadline
	}
}

// RunUntil keeps executing events until cond returns true, the queue
// drains, or maxEvents is exceeded. It returns an error in the latter two
// cases (protocols under test should satisfy cond on their own).
func (n *Network) RunUntil(cond func() bool, maxEvents int) error {
	for i := 0; i < maxEvents; i++ {
		if cond() {
			return nil
		}
		if !n.Step() {
			if cond() {
				return nil
			}
			return fmt.Errorf("netsim: event queue drained after %d events without satisfying condition", i)
		}
	}
	if cond() {
		return nil
	}
	return fmt.Errorf("netsim: condition not satisfied within %d events", maxEvents)
}
