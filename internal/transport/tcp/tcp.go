// Package tcp is the real-network transport backend: the same
// transport.Transport contract internal/netsim simulates, carried over
// length-prefix framed TCP with per-peer persistent connections, bounded
// send queues, and reconnection with capped exponential backoff.
//
// A deployment is a set of named processes. Every process builds the full
// protocol topology (the identical set of replicas, elements, and clients —
// deterministic key derivation makes the key material agree), but only the
// node identities its config hosts are live here: registrations for
// identities routed to another process are ignored, and sends *from* such
// an identity are dropped, so the ghost instances stay quiescent while the
// hosted ones exchange real bytes. Identity routing is by longest prefix:
// the process hosting "calc/r1" owns "calc/r1" and everything under
// "calc/r1/...".
//
// Concurrency model: one loop goroutine serialises every Handler upcall,
// timer callback, and metrics update — the same single-delivery-thread
// discipline the simulator enforces by design, so protocol code needs no
// locking on either backend. External drivers enter via Post; sends issued
// from inside a handler go through an internal local queue so the loop
// never blocks on itself. Per-peer sender goroutines own the sockets:
// frames are enqueued non-blockingly onto a bounded channel (overflow is
// counted and dropped — the protocol's retransmit machinery recovers), a
// sender hands the kernel everything already queued for its peer in one
// write, and a broken connection is redialled with capped exponential
// backoff, counted like smiop_conn_retries_total. A reader likewise hands
// the loop every complete frame it already holds in one Post.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itdos/internal/obs"
	"itdos/internal/transport"
)

// Config describes one process of a cluster.
type Config struct {
	// Process is this process's name; must appear in Hosts.
	Process string
	// Listen is the TCP listen address (e.g. "127.0.0.1:9001"; port 0
	// picks a free port — read it back with Addr before SetPeers).
	Listen string
	// Peers maps every other process name to its dial address. May be
	// filled in later with SetPeers (two-phase startup lets in-process
	// clusters bind all listeners on port 0 first).
	Peers map[string]string
	// Hosts maps each process name to the identity prefixes it hosts.
	// Every process must use the identical Hosts map; a node id routes to
	// the process with the longest matching prefix.
	Hosts map[string][]string
	// Metrics receives transport instrumentation; nil disables it.
	Metrics *obs.Registry
	// MaxFrame bounds a frame body; 0 means DefaultMaxFrame.
	MaxFrame int
	// QueueLen bounds each per-peer send queue; 0 means 1024 frames.
	QueueLen int
	// RetryBase/RetryCap shape the reconnect backoff; zero values mean
	// 50ms doubling up to 2s.
	RetryBase time.Duration
	RetryCap  time.Duration
}

type hostedPrefix struct {
	prefix  string
	process string
}

// gatherFrames and gatherBytes bound what one write hands the kernel and
// what one Post hands the loop: enough to take a saturated peer's whole
// queue in a few calls, small enough that a gather stays a bounded stall.
const (
	gatherFrames = 64
	gatherBytes  = 256 << 10
)

type peer struct {
	name string
	addr string
	ch   chan []byte

	// Written by the sender goroutine, folded into the instruments below by
	// the loop on its next send to this peer (the registry is loop-only, and
	// a Post per write would cost the hand-off the gather saves).
	found  atomic.Int64 // queue depth the last gather found, its own frames included
	writes atomic.Uint64
	resent atomic.Uint64

	gDepth *obs.Gauge
}

// Transport carries transport.Transport traffic over TCP. Create with New,
// wire addresses with SetPeers, then Start. All Transport-interface
// methods must run on the loop goroutine (use Post from outside).
type Transport struct {
	cfg      Config
	maxFrame int
	queueLen int

	ln    net.Listener
	start time.Time

	prefixes   []hostedPrefix // sorted by prefix for deterministic routing
	routeCache map[string]string

	loopCh chan func()
	localQ []func() // loop-only: sends issued from inside a handler
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	nodes  map[transport.NodeID]transport.Handler
	groups map[transport.GroupID][]transport.NodeID
	peers  map[string]*peer

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// All instruments are touched on the loop goroutine only (the obs
	// registry is not internally locked).
	mBytesSent  *obs.Counter
	mFramesSent *obs.Counter
	mBytesRecv  *obs.Counter
	mFramesRecv *obs.Counter
	mDropped    *obs.Counter // send-queue overflow
	mOversizeTx *obs.Counter // frame above MaxFrame refused before it is queued
	mOversizeRx *obs.Counter // inbound length prefix above MaxFrame (connection closed)
	mUnroutable *obs.Counter // delivered frame with no local handler
	mDecodeErr  *obs.Counter
	mReconnects *obs.Counter
	mWrites     *obs.Counter // write calls that handed the kernel one or more frames
	mResent     *obs.Counter // frames written again after a write failed before reaching them
}

var _ transport.Transport = (*Transport)(nil)

// New validates cfg and binds the listener; the transport is inert until
// Start. Listen may use port 0 — Addr returns the bound address.
func New(cfg Config) (*Transport, error) {
	if cfg.Process == "" {
		return nil, fmt.Errorf("tcp: empty process name")
	}
	if _, ok := cfg.Hosts[cfg.Process]; !ok {
		return nil, fmt.Errorf("tcp: process %q not in hosts map", cfg.Process)
	}
	seen := make(map[string]string)
	var prefixes []hostedPrefix
	// Sorted-keys iteration: routing must not depend on map order.
	procs := make([]string, 0, len(cfg.Hosts))
	for p := range cfg.Hosts {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	for _, proc := range procs {
		for _, pre := range cfg.Hosts[proc] {
			if pre == "" {
				return nil, fmt.Errorf("tcp: process %q hosts an empty prefix", proc)
			}
			if prev, dup := seen[pre]; dup {
				return nil, fmt.Errorf("tcp: prefix %q hosted by both %q and %q", pre, prev, proc)
			}
			seen[pre] = proc
			prefixes = append(prefixes, hostedPrefix{prefix: pre, process: proc})
		}
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].prefix < prefixes[j].prefix })

	t := &Transport{
		cfg:        cfg,
		maxFrame:   cfg.MaxFrame,
		queueLen:   cfg.QueueLen,
		start:      time.Now(),
		prefixes:   prefixes,
		routeCache: make(map[string]string),
		loopCh:     make(chan func(), 256),
		closed:     make(chan struct{}),
		nodes:      make(map[transport.NodeID]transport.Handler),
		groups:     make(map[transport.GroupID][]transport.NodeID),
		peers:      make(map[string]*peer),
		conns:      make(map[net.Conn]struct{}),
	}
	if t.maxFrame <= 0 {
		t.maxFrame = DefaultMaxFrame
	}
	if t.queueLen <= 0 {
		t.queueLen = 1024
	}
	r := cfg.Metrics
	t.mBytesSent = r.Counter("tcp_bytes_sent_total")
	t.mFramesSent = r.Counter("tcp_frames_sent_total")
	t.mBytesRecv = r.Counter("tcp_bytes_recv_total")
	t.mFramesRecv = r.Counter("tcp_frames_recv_total")
	t.mDropped = r.Counter("tcp_frames_dropped_total")
	t.mOversizeTx = r.Counter("tcp_frames_oversize_total", "dir=send")
	t.mOversizeRx = r.Counter("tcp_frames_oversize_total", "dir=recv")
	t.mUnroutable = r.Counter("tcp_frames_unroutable_total")
	t.mDecodeErr = r.Counter("tcp_frame_decode_errors_total")
	t.mReconnects = r.Counter("tcp_conn_retries_total")
	t.mWrites = r.Counter("tcp_writes_total")
	t.mResent = r.Counter("tcp_frames_resent_total")

	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
	}
	for _, proc := range procs {
		if proc == cfg.Process {
			continue
		}
		t.peers[proc] = &peer{name: proc, addr: cfg.Peers[proc], ch: make(chan []byte, t.queueLen),
			gDepth: r.Gauge("tcp_send_queue_depth", "peer="+proc)}
	}
	return t, nil
}

// Addr returns the listener's bound address ("" when not listening).
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetPeers fills in (or overrides) peer dial addresses. Must be called
// before Start.
func (t *Transport) SetPeers(addrs map[string]string) {
	for proc, p := range t.peers {
		if a, ok := addrs[proc]; ok {
			p.addr = a
		}
	}
}

// Start launches the loop, accept, and per-peer sender goroutines.
func (t *Transport) Start() error {
	for _, p := range t.peers {
		if p.addr == "" {
			return fmt.Errorf("tcp: no address for peer %q", p.name)
		}
	}
	t.wg.Add(1)
	go t.runLoop()
	if t.ln != nil {
		t.wg.Add(1)
		go t.runAccept()
	}
	for _, p := range t.peers {
		t.wg.Add(1)
		go t.runSender(p)
	}
	return nil
}

// Close shuts the transport down and waits for all goroutines.
func (t *Transport) Close() {
	t.once.Do(func() {
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
		t.connMu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.connMu.Unlock()
	})
	t.wg.Wait()
}

// Post schedules fn on the loop goroutine — the only way external
// goroutines (load drivers, timers, socket readers) may touch protocol
// state. Blocks if the loop is saturated (socket backpressure); no-ops
// after Close.
func (t *Transport) Post(fn func()) {
	select {
	case t.loopCh <- fn:
	case <-t.closed:
	}
}

func (t *Transport) runLoop() {
	defer t.wg.Done()
	for {
		t.drainLocal()
		select {
		case fn := <-t.loopCh:
			fn()
		case <-t.closed:
			return
		}
	}
}

// drainLocal runs loop-originated work: a handler's sends run before the
// next external event, preserving the simulator's send-then-deliver
// causality without ever blocking the loop.
func (t *Transport) drainLocal() {
	for len(t.localQ) > 0 {
		fn := t.localQ[0]
		t.localQ = t.localQ[1:]
		fn()
	}
}

// route resolves the process hosting id by longest matching prefix
// ("" when no prefix matches). Loop-goroutine only (route cache).
func (t *Transport) route(id string) string {
	if proc, ok := t.routeCache[id]; ok {
		return proc
	}
	best, bestLen := "", -1
	for _, hp := range t.prefixes {
		if len(hp.prefix) > bestLen &&
			(id == hp.prefix || strings.HasPrefix(id, hp.prefix+"/")) {
			best, bestLen = hp.process, len(hp.prefix)
		}
	}
	t.routeCache[id] = best
	return best
}

// Now returns monotonic time since the transport was created.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// AddNode registers a hosted node's handler. Registrations for identities
// routed to another process are ignored: every process builds the full
// topology, but only its hosted instances go live.
func (t *Transport) AddNode(id transport.NodeID, h transport.Handler) {
	if t.route(string(id)) != t.cfg.Process {
		return
	}
	t.nodes[id] = h
}

// RemoveNode unregisters a node.
func (t *Transport) RemoveNode(id transport.NodeID) {
	delete(t.nodes, id)
}

// JoinGroup adds a node to a multicast group. Membership is tracked in
// full (ghosts included) so Multicast fans out to every process.
func (t *Transport) JoinGroup(g transport.GroupID, id transport.NodeID) {
	for _, m := range t.groups[g] {
		if m == id {
			return
		}
	}
	t.groups[g] = append(t.groups[g], id)
	sort.Slice(t.groups[g], func(i, j int) bool { return t.groups[g][i] < t.groups[g][j] })
}

// LeaveGroup removes a node from a multicast group.
func (t *Transport) LeaveGroup(g transport.GroupID, id transport.NodeID) {
	members := t.groups[g]
	for i, m := range members {
		if m == id {
			t.groups[g] = append(members[:i], members[i+1:]...)
			return
		}
	}
}

// GroupMembers returns the members of a group in deterministic order.
func (t *Transport) GroupMembers(g transport.GroupID) []transport.NodeID {
	return append([]transport.NodeID(nil), t.groups[g]...)
}

// Send queues a unicast message. Sends from an identity hosted elsewhere
// are dropped (ghost suppression); local destinations are delivered
// asynchronously on the loop; remote destinations are framed and enqueued
// on the owning peer's bounded queue, dropping (and counting) on overflow.
// A frame above MaxFrame is refused here, and counted: the receiver would
// close the connection on it and lose everything queued behind it.
func (t *Transport) Send(from, to transport.NodeID, payload []byte) {
	if t.route(string(from)) != t.cfg.Process {
		return
	}
	if t.route(string(to)) == t.cfg.Process {
		copied := append([]byte(nil), payload...)
		t.localQ = append(t.localQ, func() { t.deliver(from, to, copied) })
		return
	}
	t.sendRemote(from, to, payload)
}

// Multicast sends to every member of the group (including the sender if it
// is a member), mirroring IP multicast semantics.
func (t *Transport) Multicast(from transport.NodeID, g transport.GroupID, payload []byte) {
	for _, m := range t.groups[g] {
		t.Send(from, m, payload)
	}
}

func (t *Transport) sendRemote(from, to transport.NodeID, payload []byte) {
	proc := t.route(string(to))
	p, ok := t.peers[proc]
	if !ok {
		t.mUnroutable.Inc()
		return
	}
	if frameBodyLen(from, to, payload) > t.maxFrame {
		t.mOversizeTx.Inc()
		return
	}
	frame, err := AppendFrame(nil, from, to, payload)
	if err != nil {
		t.mDecodeErr.Inc()
		return
	}
	// Fold what the sender counted since the previous send before this frame
	// is queued, so none of it can belong to this frame: its writes (each
	// counted before it is issued) and the queue depth its gathers found.
	found := p.found.Swap(0)
	t.mWrites.Add(p.writes.Swap(0))
	t.mResent.Add(p.resent.Swap(0))
	select {
	case p.ch <- frame:
		t.mFramesSent.Inc()
		t.mBytesSent.Add(uint64(len(frame)))
		// The deeper of the queue as this send leaves it and as the sender's
		// gathers found it since the previous send.
		p.gDepth.Set(float64(max(int64(len(p.ch)), found)))
	default:
		t.mDropped.Inc()
	}
}

// deliver hands a message to the destination handler. Loop-goroutine only.
func (t *Transport) deliver(from, to transport.NodeID, payload []byte) {
	h, ok := t.nodes[to]
	if !ok {
		t.mUnroutable.Inc()
		return
	}
	t.mFramesRecv.Inc()
	t.mBytesRecv.Add(uint64(len(payload)))
	h.Receive(from, payload)
}

// After schedules fn on the loop goroutine at now + d. The cancellation
// flag is only touched on the loop, so protocol code can Stop the timer
// from a handler without racing the firing callback.
func (t *Transport) After(d time.Duration, fn func()) transport.Timer {
	cancelled := new(bool)
	tm := time.AfterFunc(d, func() {
		t.Post(func() {
			if !*cancelled {
				fn()
			}
		})
	})
	return transport.NewTimer(func() {
		*cancelled = true
		tm.Stop()
	})
}

func (t *Transport) backoff(attempt int) time.Duration {
	base, cap := t.cfg.RetryBase, t.cfg.RetryCap
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// runSender owns the outbound socket to one peer: dial with capped
// exponential backoff (counted like smiop_conn_retries_total), then write
// frames off the bounded queue until the connection breaks. Each write takes
// the frame it waited for plus whatever is already queued behind it, up to
// the gather bounds, so a burst costs one system call; a lone frame is
// written as before.
func (t *Transport) runSender(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	attempt := 0
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	// pending holds frames taken off the queue and not yet handed to the
	// kernel whole; iov is the scratch copy WriteTo consumes.
	var pending [][]byte
	iov := make(net.Buffers, 0, gatherFrames)
	for {
		if conn == nil {
			select {
			case <-t.closed:
				return
			default:
			}
			c, err := net.Dial("tcp", p.addr)
			if err != nil {
				attempt++
				t.Post(func() { t.mReconnects.Inc() })
				tm := time.NewTimer(t.backoff(attempt))
				select {
				case <-tm.C:
				case <-t.closed:
					tm.Stop()
					return
				}
				continue
			}
			conn = c
			attempt = 0
		}
		if len(pending) == 0 {
			select {
			case frame := <-p.ch:
				pending = append(pending, frame)
			case <-t.closed:
				return
			}
		}
		pending = gather(pending, p.ch)
		p.found.Store(int64(len(pending) + len(p.ch)))
		iov = append(iov[:0], pending...)
		w := iov
		p.writes.Add(1) // a failed write(2) is a system call too
		n, err := w.WriteTo(conn)
		if err != nil {
			// Frames the kernel took whole went with the connection; the
			// protocol's retransmit machinery (SMIOP open_request retries,
			// PBFT view timers) recovers those. The rest, a partly written
			// one included, go out again in order once the redial succeeds:
			// the receiver parses the new connection from its first byte.
			conn.Close()
			conn = nil
			pending = unwritten(pending, n)
			p.resent.Add(uint64(len(pending)))
			continue
		}
		clear(pending)
		pending = pending[:0]
	}
}

// gather extends pending, without waiting, with frames already on ch, up to
// the gather bounds.
func gather(pending [][]byte, ch <-chan []byte) [][]byte {
	size := 0
	for _, f := range pending {
		size += len(f)
	}
	for len(pending) < gatherFrames && size < gatherBytes {
		select {
		case frame := <-ch:
			pending = append(pending, frame)
			size += len(frame)
		default:
			return pending
		}
	}
	return pending
}

// unwritten returns the frames a failed write of n bytes did not hand to the
// kernel whole, in order.
func unwritten(frames [][]byte, n int64) [][]byte {
	for len(frames) > 0 && n >= int64(len(frames[0])) {
		n -= int64(len(frames[0]))
		frames = frames[1:]
	}
	return frames
}

func (t *Transport) runAccept() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.connMu.Lock()
		t.conns[conn] = struct{}{}
		t.connMu.Unlock()
		select {
		case <-t.closed: // Close may have shut the connections it knew before this one
			conn.Close()
		default:
		}
		t.wg.Add(1)
		go t.runReader(conn)
	}
}

// runReader parses inbound frames and posts deliveries to the loop, one
// Post for the run of complete frames the buffer already holds: a frame is
// never held back for bytes still on the wire. The blocking Post is
// deliberate: a saturated loop exerts TCP backpressure on the sender
// instead of buffering without bound.
func (t *Transport) runReader(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.connMu.Lock()
		delete(t.conns, conn)
		t.connMu.Unlock()
	}()
	type delivery struct {
		from, to transport.NodeID
		payload  []byte
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		var run []delivery
		bad := 0
		for {
			body, err := readFrame(br, t.maxFrame)
			if err != nil {
				// Only the first read of a run can fail or block: the later
				// ones were seen whole in the buffer.
				if errors.Is(err, errFrameTooLarge) {
					t.Post(func() { t.mOversizeRx.Inc() })
				}
				return
			}
			if from, to, payload, err := DecodeFrame(body); err != nil {
				bad++
			} else {
				// payload aliases body, which is fresh per frame.
				run = append(run, delivery{from, to, payload})
			}
			if len(run) >= gatherFrames || !frameBuffered(br, t.maxFrame) {
				break
			}
		}
		t.Post(func() {
			t.mDecodeErr.Add(uint64(bad))
			for _, d := range run {
				t.deliver(d.from, d.to, d.payload)
				t.drainLocal()
			}
		})
	}
}

// frameBuffered reports whether br already holds one whole frame of at most
// maxFrame, so that reading it cannot block. An oversize prefix reports
// false: the next blocking read rejects it after the run so far is posted.
func frameBuffered(br *bufio.Reader, maxFrame int) bool {
	if br.Buffered() < frameHeaderLen {
		return false
	}
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		return false
	}
	bodyLen := binary.BigEndian.Uint32(hdr)
	return bodyLen <= uint32(maxFrame) && br.Buffered()-frameHeaderLen >= int(bodyLen)
}
