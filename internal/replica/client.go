package replica

import (
	"fmt"

	"itdos/internal/cdr"
	"itdos/internal/netsim"
	"itdos/internal/orb"
	"itdos/internal/smiop"
)

// Client is a singleton ITDOS client process (Figure 1, left): it opens
// connections through the Group Manager, multicasts requests into server
// domains via the Castro–Liskov transport, receives the elements' replies
// directly, and votes on them (f+1 matching of 2f+1, paper §3.6).
//
// Application code runs on the client's own logical thread: submit it with
// Go and drive the simulated network until the returned Async completes.
// Inside that code, Call blocks exactly like a CORBA invocation would.
type Client struct {
	endpoint

	spec ClientSpec
	orb  *orb.Client

	appQueue int // diagnostic count of queued app tasks
}

// Async tracks one application task submitted with Go.
type Async struct {
	done bool
	err  error
}

// Done reports whether the task has finished.
func (a *Async) Done() bool { return a.done }

// Err returns the task's error (nil before completion).
func (a *Async) Err() error { return a.err }

func newClient(sys *System, spec ClientSpec) (*Client, error) {
	c := &Client{spec: spec}
	if spec.Profile == (Profile{}) {
		spec.Profile = DefaultProfile
	}
	c.init(sys, spec.Name, smiop.PeerInfo{Name: spec.Name, N: 1, F: 0}, 0, spec.Profile)
	c.orb = orb.NewClient(sys.registry, c, spec.Profile.Order)
	c.orb.Metrics = sys.cfg.Metrics
	sys.tr.AddNode(netsim.NodeID(clientInboxAddr(spec.Name)),
		netsim.HandlerFunc(func(_ netsim.NodeID, payload []byte) { c.onInbox(payload) }))
	return c, nil
}

// Name returns the client's name (and authentication identity).
func (c *Client) Name() string { return c.spec.Name }

// Go schedules application code on the client's logical thread. The code
// may use Call freely; it runs interleaved with network delivery under the
// coroutine discipline, so the caller must keep driving the network (e.g.
// System.RunUntil(a.Done)) for it to make progress.
func (c *Client) Go(fn func() error) *Async {
	a := &Async{}
	c.schedule(func() {
		a.err = fn()
		a.done = true
	})
	return a
}

// GoNotify schedules application code like Go and invokes done(err) on
// the client's logical thread when it completes. Live-transport drivers
// block on a channel signalled from done instead of driving the simulator;
// like schedule itself it must be invoked on the transport's delivery
// thread (Post on a live backend).
func (c *Client) GoNotify(fn func() error, done func(error)) {
	c.schedule(func() {
		err := fn()
		if done != nil {
			done(err)
		}
	})
}

// Call performs a synchronous CORBA invocation. It must be called from
// code scheduled with Go (the client's application thread).
func (c *Client) Call(ref orb.ObjectRef, op string, args []cdr.Value) ([]cdr.Value, error) {
	return c.orb.Call(ref, op, args)
}

// CallAndRun is a test/benchmark convenience: schedule a single Call and
// drive the network until it completes.
func (c *Client) CallAndRun(ref orb.ObjectRef, op string, args []cdr.Value, maxEvents int) ([]cdr.Value, error) {
	var results []cdr.Value
	a := c.Go(func() error {
		var err error
		results, err = c.Call(ref, op, args)
		return err
	})
	if err := c.sys.RunUntil(a.Done, maxEvents); err != nil {
		return nil, fmt.Errorf("replica: client %s: %w", c.spec.Name, err)
	}
	if a.err != nil {
		return nil, a.err
	}
	return results, nil
}

// onInbox handles direct messages: server replies and Group Manager key
// shares (driver thread). A frame that does not decode, or whose kind this
// inbox does not take, counts as dropped.
func (c *Client) onInbox(payload []byte) {
	env, err := smiop.DecodeEnvelope(payload)
	if err != nil {
		c.mDropped.Inc()
		return
	}
	// The delivery is this inbox's alone: a reply opens in place, or
	// straight into its reassembly buffer.
	env.Owned = true
	switch env.Kind {
	case smiop.KindData:
		c.handleData(env)
	case smiop.KindKeyShare:
		bundle, err := smiop.DecodeShareBundle(env.Payload)
		if err != nil {
			c.mDropped.Inc()
			return
		}
		// Direct sends are unauthenticated at the transport level; the
		// pairwise-sealed share authenticates the Group Manager element.
		c.handleBundle(bundle, nil)
	default:
		c.mDropped.Inc()
	}
}

var _ orb.Protocol = (*Client)(nil)
