// Package srm implements ITDOS's Secure Reliable Multicast layer
// (paper §3.1): the adaptation of the Castro–Liskov request/response +
// state-transfer protocol into a totally-ordered *message passing*
// transport suitable for a CORBA ORB.
//
// The key idea from the paper: the replicated state machine PBFT drives is
// not the application object state but a *message queue*. Every message
// multicast to a replication domain is totally ordered by PBFT and appended
// to the queue; the PBFT-level reply is a static acknowledgement; the
// CORBA-level replies flow as ordinary messages in the opposite direction.
// Whenever Castro–Liskov synchronises replica state, it synchronises the
// queue — so state synchronisation cost is independent of application
// object count ("scalable to large object servers", paper §1, §5).
//
// The queue is garbage-collected to bound the contiguous memory block
// (paper: "the message queue must be garbage-collected ... this step
// essentially adds virtual synchrony to the system"): a replica that falls
// so far behind that the messages it needs have been collected cannot be
// resynchronised and must be expelled — the OnDesync callback surfaces
// exactly that condition.
package srm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/pbft"
	"itdos/internal/pool"
	"itdos/internal/transport"
)

// Ack is the static PBFT-level reply acknowledging that a message was
// ordered and enqueued (paper §3.1: "The reply expected at the
// Castro-Liskov layer is a static reply that acts as an acknowledgement").
var Ack = []byte("SRM-ACK")

// queuedMsg is one totally-ordered message. link is the queue's hash chain
// through this message (see chainLink).
type queuedMsg struct {
	seq    uint64
	sender string
	data   []byte
	link   [sha256.Size]byte
}

// Queue is the replicated state machine: an ordered window of delivered
// messages. It implements pbft.App. All replicas execute the same
// operations in the same order, so their queues — and therefore their
// digests and snapshots — are identical.
//
// The digest is running: a hash chain is extended by one link per executed
// message, base is the link just before the retained window and head the
// link through its last message, and the digest is a hash over
// (nextSeq, len(window), base, head) — constant work per checkpoint however
// many messages are retained. A window slice, once captured, is never
// written again: the live queue appends above it, reslices past it, or moves
// to a new array, so a checkpoint holds state by reference (Capture).
type Queue struct {
	queueState
	// capacity bounds the retained window (the "contiguous block of
	// memory" of the paper); older messages are garbage-collected.
	capacity int

	// onAppend delivers each newly ordered message locally.
	onAppend func(seq uint64, sender string, data []byte)
	// onRestore fires after a state transfer replaced the queue, so the
	// element can replay retained messages before execution resumes.
	onRestore func()

	// tentative marks executions driven by pbft speculation (prepared but
	// not yet committed batches); deliveries made while it is set are
	// provisional and subject to rollback.
	tentative bool

	// gDepth publishes the retained window depth, hPayloads the messages
	// each executed request carried (both nil-safe).
	gDepth    *obs.Gauge
	hPayloads *obs.Histogram
}

var (
	_ pbft.App            = (*Queue)(nil)
	_ pbft.SpeculativeApp = (*Queue)(nil)
)

// NewQueue creates a queue retaining at most capacity messages.
func NewQueue(capacity int, onAppend func(seq uint64, sender string, data []byte)) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{queueState: queueState{nextSeq: 1}, capacity: capacity, onAppend: onAppend}
}

// Execute implements pbft.App: append the request's messages — the payloads
// of a pack, else the op itself — and return the static acknowledgement. Each
// message gets its own sequence number, chain link and delivery, in order,
// all with the request's authenticated sender. A lone op's chain link takes
// opDigest, the hash the replica made of op for the request's own digests,
// as H(data); a pack's payloads are hashed one by one. The messages alias
// op, which no one writes once it is ordered: the request decoded it from a
// buffer the transport handed up.
func (q *Queue) Execute(clientID string, op []byte, opDigest pbft.Digest) []byte {
	payloads, ok := decodePack(op)
	if !ok {
		q.hPayloads.Observe(1)
		q.append(clientID, op, opDigest)
		return Ack
	}
	q.hPayloads.Observe(float64(len(payloads)))
	for _, data := range payloads {
		q.append(clientID, data, sha256.Sum256(data))
	}
	return Ack
}

// append orders one message whose hash is body: the queue owns data.
func (q *Queue) append(clientID string, data []byte, body [sha256.Size]byte) {
	seq := q.nextSeq
	q.nextSeq++
	q.head = chainLink(q.head, seq, clientID, body)
	q.window = append(q.window, queuedMsg{seq: seq, sender: clientID, data: data, link: q.head})
	if len(q.window) > q.capacity {
		// Trim by reslicing, and compact only when the dead prefix has used
		// up the backing array — into one with room for as many appends as
		// it holds messages, so a full queue copies one message per append
		// instead of the whole window. The trimmed slot is not zeroed (a
		// capture may still read it); its payload goes with the array.
		q.base = q.window[0].link
		q.window = q.window[1:]
		if cap(q.window) == len(q.window) {
			q.window = append(make([]queuedMsg, 0, 2*len(q.window)), q.window...)
		}
	}
	q.gDepth.Set(float64(len(q.window)))
	if q.onAppend != nil {
		q.onAppend(seq, clientID, data)
	}
}

// NextSeq returns the sequence number the next message will receive.
func (q *Queue) NextSeq() uint64 { return q.nextSeq }

// WindowStart returns the oldest retained sequence number (0 if empty).
func (q *Queue) WindowStart() uint64 {
	if len(q.window) == 0 {
		return 0
	}
	return q.window[0].seq
}

// Len returns the number of retained messages.
func (q *Queue) Len() int { return len(q.window) }

// chainLink extends the queue's hash chain by one message whose data hashes
// to body: H(prev ‖ seq ‖ len(sender) ‖ sender ‖ body), body being H(data).
func chainLink(prev [sha256.Size]byte, seq uint64, sender string, body [sha256.Size]byte) [sha256.Size]byte {
	b := make([]byte, 0, 128) // on the stack for any plausible sender id
	b = append(b, prev[:]...)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint64(b, uint64(len(sender)))
	b = append(b, sender...)
	b = append(b, body[:]...)
	return sha256.Sum256(b)
}

// queueState is a queue's replicated state: what a checkpoint certifies, a
// snapshot serialises and a restore installs. A Queue embeds the live one; a
// capture is a copy whose window shares the queue's array and is never
// written.
type queueState struct {
	nextSeq    uint64
	window     []queuedMsg
	base, head [sha256.Size]byte
}

// Digest implements pbft.Captured in constant time. nextSeq and the window
// length are inside the hash, so a digest certifies exactly one window: a
// shorter suffix with its base shifted to match hashes differently.
func (s *queueState) Digest() pbft.Digest {
	b := make([]byte, 0, 128)
	b = append(b, "itdos/srm-queue/2"...)
	b = binary.BigEndian.AppendUint64(b, s.nextSeq)
	b = binary.BigEndian.AppendUint64(b, uint64(len(s.window)))
	b = append(b, s.base[:]...)
	b = append(b, s.head[:]...)
	return sha256.Sum256(b)
}

// Bytes implements pbft.Captured with a canonical encoding.
func (s *queueState) Bytes() []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULongLong(s.nextSeq)
	e.WriteULong(uint32(len(s.window)))
	e.WriteOctets(s.base[:])
	for _, m := range s.window {
		e.WriteULongLong(m.seq)
		e.WriteString(m.sender)
		e.WriteOctets(m.data)
	}
	return e.Bytes()
}

// Capture implements pbft.App: the state as of now, by reference. The
// three-index slice caps the view at its own length, so the queue's later
// appends land outside it.
func (q *Queue) Capture() pbft.Captured {
	s := q.queueState
	s.window = s.window[:len(s.window):len(s.window)]
	return &s
}

// decodeSnapshot parses a snapshot and re-chains it from its base link.
// Message payloads alias snapshot. The window must be the contiguous
// sequence run ending just below nextSeq, within capacity, with nothing
// after it.
func decodeSnapshot(snapshot []byte, capacity int) (*queueState, error) {
	d := cdr.NewDecoder(snapshot, cdr.BigEndian)
	s := &queueState{}
	var err error
	if s.nextSeq, err = d.ReadULongLong(); err != nil {
		return nil, fmt.Errorf("srm: queue snapshot: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("srm: queue snapshot: %w", err)
	}
	if int(n) > capacity || uint64(n) >= s.nextSeq {
		return nil, fmt.Errorf("srm: snapshot window %d (next seq %d) exceeds capacity %d", n, s.nextSeq, capacity)
	}
	base, err := d.ReadOctets()
	if err != nil || len(base) != sha256.Size {
		return nil, fmt.Errorf("srm: queue snapshot: bad base link")
	}
	copy(s.base[:], base)
	s.head = s.base
	s.window = make([]queuedMsg, 0, n)
	for want := s.nextSeq - uint64(n); want < s.nextSeq; want++ {
		m := queuedMsg{}
		if m.seq, err = d.ReadULongLong(); err != nil {
			return nil, fmt.Errorf("srm: queue snapshot: %w", err)
		}
		if m.seq != want {
			return nil, fmt.Errorf("srm: snapshot holds seq %d where %d belongs", m.seq, want)
		}
		if m.sender, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("srm: queue snapshot: %w", err)
		}
		if m.data, err = d.ReadOctets(); err != nil {
			return nil, fmt.Errorf("srm: queue snapshot: %w", err)
		}
		s.head = chainLink(s.head, m.seq, m.sender, sha256.Sum256(m.data))
		m.link = s.head
		s.window = append(s.window, m)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("srm: queue snapshot: %d trailing bytes", d.Remaining())
	}
	return s, nil
}

// SnapshotDigest implements pbft.App: the digest a queue restored from
// snapshot would report, computed without touching the queue.
func (q *Queue) SnapshotDigest(snapshot []byte) (pbft.Digest, error) {
	s, err := decodeSnapshot(snapshot, q.capacity)
	if err != nil {
		return pbft.Digest{}, err
	}
	return s.Digest(), nil
}

// Restore implements pbft.App. The chain links carry over, so the restored
// queue's later digests agree with replicas that executed the whole history.
// A snapshot that does not parse changes nothing.
func (q *Queue) Restore(snapshot []byte) error {
	s, err := decodeSnapshot(snapshot, q.capacity)
	if err != nil {
		return err
	}
	for i := range s.window {
		s.window[i].data = append([]byte(nil), s.window[i].data...)
	}
	q.queueState = *s
	q.gDepth.Set(float64(len(q.window)))
	if q.onRestore != nil {
		q.onRestore()
	}
	return nil
}

// SetTentative implements pbft.SpeculativeApp: the replica brackets
// speculative execution with it, so deliveries made inside the bracket can
// be tagged provisional (Tentative reports the flag during delivery).
func (q *Queue) SetTentative(on bool) { q.tentative = on }

// Tentative reports whether the queue is currently executing speculatively.
func (q *Queue) Tentative() bool { return q.tentative }

// RestoreSpeculation implements pbft.SpeculativeApp: a speculative rollback
// replaces the queue from the committed-base snapshot WITHOUT the
// Resynchronise replay a real state transfer triggers — the pbft layer
// re-executes the confirmed suffix itself, and the element reconciles the
// resulting redeliveries against its tentative-delivery hashes.
func (q *Queue) RestoreSpeculation(snapshot []byte) error {
	saved := q.onRestore
	q.onRestore = nil
	err := q.Restore(snapshot)
	q.onRestore = saved
	return err
}

// Reset discards the retained window and rewinds the sequence counter to
// the initial state, without firing onRestore. pbft.Replica.Recover calls
// it (through an optional interface) when a replica restarts from clean
// state: the real queue contents come back via Restore once the
// post-recovery state transfer lands, and that Restore drives the usual
// Resynchronise replay.
func (q *Queue) Reset() {
	q.queueState = queueState{nextSeq: 1}
	q.gDepth.Set(0)
}

// messages returns the retained window (borrowed, do not modify).
func (q *Queue) messages() []queuedMsg { return q.window }

// Element is one replication domain element's SRM endpoint: a PBFT replica
// whose application is the message queue, plus the local delivery cursor.
type Element struct {
	Replica *pbft.Replica
	queue   *Queue

	lastDelivered uint64

	// OnDeliver receives every totally-ordered message exactly once, in
	// order, with the authenticated identity of its sender. It runs on the
	// delivery path (the "Castro-Liskov thread").
	OnDeliver func(seq uint64, sender string, data []byte)

	// OnDesync fires when garbage collection has outrun this element: the
	// messages needed to catch up are gone, so the element must be expelled
	// and (in a fuller system) replaced — the virtual-synchrony expulsion
	// of paper §3.1.
	OnDesync func(gapStart, gapEnd uint64)

	// specHashes records the content hash of every delivery made while the
	// queue was executing tentatively, keyed by queue sequence. After a
	// speculative rollback the confirmed replay (or the new view's
	// re-commit) re-executes those sequences; a redelivery whose content
	// matches is confirmation and is suppressed, a mismatch means the
	// consumer acted on content that never committed — irreversible, so
	// the element desyncs.
	specHashes map[uint64][32]byte

	// Delivery counters (nil-safe; nil when the domain is unobserved).
	mDelivered *obs.Counter
	mDesyncs   *obs.Counter

	// Flight ring for this element, named by its replica's identity (nil
	// recorder no-ops).
	flight   *flight.Recorder
	flightID string
}

// Domain is a replication domain: a named group of SRM elements sharing a
// PBFT group.
type Domain struct {
	Name     string
	N, F     int
	Elements []*Element
	Group    *pbft.SimGroup
}

// DomainConfig parameterises NewDomain.
type DomainConfig struct {
	// Name is the replication domain name (also the transport address
	// prefix).
	Name string
	// N, F is the group size and failure bound (N >= 3F+1).
	N, F int
	// QueueCapacity bounds each element's retained message window.
	QueueCapacity int
	// CheckpointInterval, ViewTimeout tune the underlying PBFT group.
	CheckpointInterval uint64
	ViewTimeout        time.Duration
	// MaxBatch and BatchWait tune request batching in the ordering layer
	// (see pbft.Config). Zero values select the legacy unbatched protocol.
	MaxBatch  int
	BatchWait time.Duration
	// TentativeExecution enables Castro–Liskov speculative execution in
	// the ordering layer: elements deliver prepared-but-uncommitted
	// messages tentatively (Queue.Tentative reports the flag during the
	// delivery upcall) and reconcile redeliveries after a rollback. Off by
	// default — the off path is byte-identical to the committed protocol.
	TentativeExecution bool
	// Ring and KeySeed are required: every replica and sender key is
	// derived from KeySeed into Ring (pbft.DeriveIdentity), replica i as
	// "Name/rI".
	Ring    *pbft.Keyring
	KeySeed []byte
	// Metrics, if non-nil, receives SRM delivery counters and the
	// underlying PBFT group's phase counters, labelled with Name.
	Metrics *obs.Registry
	// Flight, if non-nil, receives per-element protocol events (PBFT
	// ordering and SRM desyncs) on rings named "Name/rI".
	Flight *flight.Recorder
}

// NewDomain builds a replication domain on a transport.
func NewDomain(net transport.Transport, cfg DomainConfig) (*Domain, error) {
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = defaultQueueCapacity
	}
	d := &Domain{Name: cfg.Name, N: cfg.N, F: cfg.F}
	elements := make([]*Element, cfg.N)
	for i := range elements {
		elements[i] = &Element{}
	}
	group, err := pbft.NewSimGroup(net, cfg.Name, pbft.Config{
		N: cfg.N, F: cfg.F,
		CheckpointInterval: cfg.CheckpointInterval,
		ViewTimeout:        cfg.ViewTimeout,
		MaxBatch:           cfg.MaxBatch,
		BatchWait:          cfg.BatchWait,
		TentativeExecution: cfg.TentativeExecution,
		Metrics:            cfg.Metrics,
		Flight:             cfg.Flight,
	}, cfg.Ring, cfg.KeySeed, func(i int) pbft.App {
		el := elements[i]
		el.queue = NewQueue(cfg.QueueCapacity, func(seq uint64, sender string, data []byte) {
			el.deliver(seq, sender, data)
		})
		el.queue.onRestore = el.Resynchronise
		if cfg.Metrics != nil {
			el.queue.gDepth = cfg.Metrics.Gauge("srm_queue_depth", "group="+cfg.Name)
			el.queue.hPayloads = cfg.Metrics.Histogram("srm_request_payloads",
				[]float64{1, 2, 4, 8, 16, 32, 64}, "group="+cfg.Name)
		}
		return el.queue
	})
	if err != nil {
		return nil, fmt.Errorf("srm: build domain %s: %w", cfg.Name, err)
	}
	for i, el := range elements {
		el.Replica = group.Replicas[i]
		el.flight = cfg.Flight
		el.flightID = el.Replica.Identity()
		if cfg.Metrics != nil {
			el.mDelivered = cfg.Metrics.Counter("srm_delivered_total", "group="+cfg.Name)
			el.mDesyncs = cfg.Metrics.Counter("srm_desyncs_total", "group="+cfg.Name)
		}
	}
	d.Elements = elements
	d.Group = group
	return d, nil
}

// Addrs returns the domain's element transport addresses.
func (d *Domain) Addrs() []transport.NodeID { return d.Group.Addrs }

// deliver pushes one freshly ordered message to the consumer.
func (el *Element) deliver(seq uint64, sender string, data []byte) {
	if seq <= el.lastDelivered {
		// Redelivery: a speculative rollback rewound the queue and the
		// replay re-executed a message the consumer already received
		// tentatively. Reconcile against the recorded content hash.
		if h, ok := el.specHashes[seq]; ok {
			if h == deliveryHash(sender, data) {
				delete(el.specHashes, seq) // confirmed: suppress
				return
			}
			// The committed content diverged from what the consumer was
			// handed — the upcall cannot be undone, so virtual synchrony
			// is lost for this element (paper §3.1 expulsion).
			el.desync(seq, seq)
			return
		}
		return
	}
	if seq != el.lastDelivered+1 {
		// Ordered execution is sequential, so this indicates a restore
		// happened without replay — handled in Resynchronise.
		el.desync(el.lastDelivered+1, seq)
	}
	if el.queue.Tentative() {
		el.noteTentative(seq, sender, data)
	}
	el.lastDelivered = seq
	el.mDelivered.Inc()
	if el.OnDeliver != nil {
		el.OnDeliver(seq, sender, data)
	}
}

// noteTentative records a tentative delivery's content hash for later
// reconciliation, bounding the table at the queue capacity.
func (el *Element) noteTentative(seq uint64, sender string, data []byte) {
	if el.specHashes == nil {
		el.specHashes = make(map[uint64][32]byte)
	}
	el.specHashes[seq] = deliveryHash(sender, data)
	if len(el.specHashes) > el.queue.capacity {
		// An entry older than the retained window can never be usefully
		// reconciled anyway — an element that far behind desyncs.
		var oldest uint64
		for s := range el.specHashes {
			if oldest == 0 || s < oldest {
				oldest = s
			}
		}
		delete(el.specHashes, oldest)
	}
}

// deliveryHash is the reconciliation digest of one delivery's content.
func deliveryHash(sender string, data []byte) [32]byte {
	h := sha256.New()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(sender)))
	h.Write(n[:])
	h.Write([]byte(sender))
	h.Write(data)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Resynchronise replays retained messages after a PBFT state transfer
// replaced the queue. Messages the element never delivered are replayed in
// order; if garbage collection already discarded part of the gap, OnDesync
// fires and the element stops (it must be expelled).
//
// Call this from the same single-threaded driver as the PBFT replica after
// observing a state transfer (Element wiring does this automatically when
// built through Stack in the replica package).
func (el *Element) Resynchronise() {
	start := el.queue.WindowStart()
	if start == 0 { // empty queue
		if el.queue.NextSeq() > el.lastDelivered+1 {
			el.desync(el.lastDelivered+1, el.queue.NextSeq()-1)
		}
		return
	}
	if start > el.lastDelivered+1 {
		// Hole between what we delivered and what is retained: virtual
		// synchrony is lost for this element.
		el.desync(el.lastDelivered+1, start-1)
		return
	}
	for _, m := range el.queue.messages() {
		if m.seq <= el.lastDelivered {
			// The authoritative window covers a message the consumer may
			// have received only tentatively; reconcile its content.
			if h, ok := el.specHashes[m.seq]; ok {
				if h != deliveryHash(m.sender, m.data) {
					el.desync(m.seq, m.seq)
					return
				}
				delete(el.specHashes, m.seq)
			}
			continue
		}
		el.lastDelivered = m.seq
		if el.OnDeliver != nil {
			el.OnDeliver(m.seq, m.sender, m.data)
		}
	}
}

func (el *Element) desync(gapStart, gapEnd uint64) {
	el.mDesyncs.Inc()
	el.flight.Append(el.flightID, flight.KindDesync, 0, gapStart,
		0, fmt.Sprintf("gap=%d-%d", gapStart, gapEnd))
	if el.OnDesync != nil {
		el.OnDesync(gapStart, gapEnd)
	}
}

// LastDelivered returns the last sequence number handed to OnDeliver.
func (el *Element) LastDelivered() uint64 { return el.lastDelivered }

// Queue exposes the element's queue (primarily for tests and benchmarks).
func (el *Element) Queue() *Queue { return el.queue }

// Sender multicasts messages into a replication domain: it is a PBFT
// client of that domain's ordering group with a FIFO above it. The client
// keeps one request in flight (paper §3.6: one outstanding request per
// connection), and the unit it orders is what the sender has ready: the
// payloads handed over together (every fragment of a message), or all that
// queued behind the request in flight, go as one pack (see pack.go) of at
// most MaxPackBytes and MaxPackPayloads when its static acknowledgement
// arrives — once 1+f matching ACKs confirm it was durably ordered. Like
// every protocol structure it lives on the transport's delivery thread.
type Sender struct {
	client *pbft.Client

	// OnAck, if set, observes each acknowledged payload, by the number Send
	// returned for it, in order.
	OnAck func(n uint64)

	sent     uint64       // payloads handed over so far
	inFlight []queuedSend // the payloads of the request in flight
	queue    []queuedSend // payloads waiting for it to be acknowledged
}

// queuedSend is one payload handed to the sender: its number in the
// sender's stream, the pooled frame holding it if it came as one, and the
// span that ends when it is acknowledged.
type queuedSend struct {
	n     uint64
	data  []byte
	owner *pool.Buffer
	span  *obs.Span
}

// NewSender builds a sender with identity id at transport address addr,
// targeting domain d; its key is derived like the domain's replicas'.
func NewSender(d *Domain, id, addr string, timeout time.Duration) (*Sender, error) {
	cli, err := d.Group.NewSimClient(id, addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("srm: sender %s: %w", id, err)
	}
	s := &Sender{client: cli}
	cli.OnResult = func(_ uint64, result []byte) {
		// The static ACK is the only valid PBFT-level reply; anything else
		// leaves the queue where it is.
		if string(result) != string(Ack) {
			return
		}
		acked := s.inFlight
		s.inFlight = nil
		_ = s.flush() // a refused pack has its spans ended; nobody else waits on it
		for _, p := range acked {
			p.span.End()
			if s.OnAck != nil {
				s.OnAck(p.n)
			}
		}
	}
	return s, nil
}

// Send multicasts data into the domain, returning its number in the
// sender's stream: 1 for the first payload handed over, then 2, 3, ...
func (s *Sender) Send(data []byte) (uint64, error) { return s.SendAll([][]byte{data}, nil) }

// SendAll multicasts payloads, in order, as one message's worth: they go in
// one request if no request is in flight and they fit one pack, else with
// whatever else is ready when the request in flight is acknowledged. It
// returns the number of the last payload. The detached span sp (nil-safe)
// ends when the last payload is acknowledged, or at once if the PBFT client
// refuses the request that carries it — the error then returned.
func (s *Sender) SendAll(payloads [][]byte, sp *obs.Span) (uint64, error) {
	for _, data := range payloads {
		s.sent++
		s.queue = append(s.queue, queuedSend{n: s.sent, data: data})
	}
	return s.enqueued(len(payloads), sp)
}

// SendFrames is SendAll over pooled frames (smiop.SealGIOPWire's), which
// the sender takes over and releases once the PBFT client has encoded the
// request that carries them: a frame packed with others is copied into the
// pack, and one that goes alone is the request's op, read in place.
func (s *Sender) SendFrames(frames []*pool.Buffer, sp *obs.Span) (uint64, error) {
	for _, f := range frames {
		s.sent++
		s.queue = append(s.queue, queuedSend{n: s.sent, data: f.B, owner: f})
	}
	return s.enqueued(len(frames), sp)
}

// enqueued hands sp to the last of the n payloads just queued, and flushes
// unless a request is in flight.
func (s *Sender) enqueued(n int, sp *obs.Span) (uint64, error) {
	if n == 0 {
		sp.End()
		return s.sent, nil
	}
	s.queue[len(s.queue)-1].span = sp
	if s.inFlight != nil {
		return s.sent, nil
	}
	return s.sent, s.flush()
}

// flush sends what is queued, one pack at a time, until a request is in
// flight or nothing is left. A request the PBFT client refuses ends its
// payloads' spans, and the next pack goes; the last refusal is returned.
func (s *Sender) flush() error {
	var err error
	for s.inFlight == nil && len(s.queue) > 0 {
		k, size := 1, len(packMarker)+packHeaderLen+packEntryLen+len(s.queue[0].data)
		for ; k < len(s.queue) && k < MaxPackPayloads; k++ {
			if size += packEntryLen + len(s.queue[k].data); size > MaxPackBytes {
				break
			}
		}
		batch := s.queue[:k:k]
		s.queue = s.queue[k:]
		payloads := make([][]byte, k)
		for i, p := range batch {
			payloads[i] = p.data
		}
		// A lone payload is the op itself, read in place: the client keeps
		// the request's encoding, not op, so the frames go back once Invoke
		// returns, whether it took the request or not.
		_, err = s.client.Invoke(packOp(payloads))
		for i := range batch {
			if o := batch[i].owner; o != nil {
				o.Release()
			}
			batch[i].data, batch[i].owner = nil, nil
		}
		if err != nil {
			for _, p := range batch {
				p.span.End()
			}
			continue
		}
		s.inFlight = batch
	}
	if len(s.queue) == 0 {
		s.queue = nil
	}
	return err
}
