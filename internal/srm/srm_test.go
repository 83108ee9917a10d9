package srm

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/pbft"
)

type testDomain struct {
	net    *netsim.Network
	dom    *Domain
	seed   []byte     // what the domain's keys are derived from
	deliv  [][]string // per element, delivered payloads in order
	desync []bool
	// reqAcks counts, per sender built by sender, the requests its PBFT
	// client has had statically acknowledged.
	reqAcks map[*Sender]int
}

func newTestDomain(t *testing.T, n, f, capacity int, seed int64) *testDomain {
	t.Helper()
	return newTestDomainCfg(t, seed, DomainConfig{
		N: n, F: f,
		QueueCapacity:      capacity,
		CheckpointInterval: 4,
	})
}

// newTestDomainCfg builds domain "dom" from cfg on a fresh simulated network.
func newTestDomainCfg(t testing.TB, seed int64, cfg DomainConfig) *testDomain {
	t.Helper()
	return newTestDomainOn(t, netsim.NewNetwork(seed, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond)), cfg)
}

// testKeySeed derives the test domains' keys where a test names no seed.
var testKeySeed = []byte("srm-test")

// newTestDomainOn builds domain "dom" from cfg on net, with a fresh keyring
// and testKeySeed unless cfg names its own.
func newTestDomainOn(t testing.TB, net *netsim.Network, cfg DomainConfig) *testDomain {
	t.Helper()
	td := &testDomain{net: net, deliv: make([][]string, cfg.N), desync: make([]bool, cfg.N)}
	cfg.Name = "dom"
	if cfg.Ring == nil {
		cfg.Ring = pbft.NewKeyring()
	}
	if cfg.KeySeed == nil {
		cfg.KeySeed = testKeySeed
	}
	td.seed = cfg.KeySeed
	cfg.ViewTimeout = 200 * time.Millisecond
	dom, err := NewDomain(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range dom.Elements {
		i := i
		el.OnDeliver = func(seq uint64, sender string, data []byte) {
			td.deliv[i] = append(td.deliv[i], string(data))
		}
		el.OnDesync = func(a, b uint64) { td.desync[i] = true }
	}
	td.dom = dom
	return td
}

func (td *testDomain) sender(t testing.TB, id string) (*Sender, *int) {
	t.Helper()
	acks := new(int)
	s, err := NewSender(td.dom, id, "sender/"+id, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.OnAck = func(uint64) { *acks++ }
	onResult := s.client.OnResult
	s.client.OnResult = func(seq uint64, result []byte) {
		if string(result) == string(Ack) {
			if td.reqAcks == nil {
				td.reqAcks = make(map[*Sender]int)
			}
			td.reqAcks[s]++
		}
		onResult(seq, result)
	}
	return s, acks
}

func (td *testDomain) sendAndWait(t testing.TB, s *Sender, acks *int, data string) {
	t.Helper()
	want := *acks + 1
	if _, err := s.Send([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := td.net.RunUntil(func() bool { return *acks >= want }, 2_000_000); err != nil {
		t.Fatalf("send %q not acknowledged: %v", data, err)
	}
}

func TestTotalOrderDelivery(t *testing.T) {
	td := newTestDomain(t, 4, 1, 64, 1)
	s, acks := td.sender(t, "client:a")
	for i := 0; i < 8; i++ {
		td.sendAndWait(t, s, acks, fmt.Sprintf("msg-%d", i))
	}
	td.net.Run(1_000_000)
	for i := 1; i < 4; i++ {
		if fmt.Sprint(td.deliv[i]) != fmt.Sprint(td.deliv[0]) {
			t.Fatalf("element %d delivery order differs:\n%v\n%v", i, td.deliv[i], td.deliv[0])
		}
	}
	if len(td.deliv[0]) != 8 {
		t.Fatalf("delivered %d messages, want 8", len(td.deliv[0]))
	}
	for i, m := range td.deliv[0] {
		if m != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("order violated at %d: %q", i, m)
		}
	}
}

func TestInterleavedSendersSameOrderEverywhere(t *testing.T) {
	td := newTestDomain(t, 4, 1, 64, 2)
	sa, acksA := td.sender(t, "client:a")
	sb, acksB := td.sender(t, "client:b")
	for i := 0; i < 5; i++ {
		wantA, wantB := *acksA+1, *acksB+1
		if _, err := sa.Send([]byte(fmt.Sprintf("a-%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := sb.Send([]byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := td.net.RunUntil(func() bool {
			return *acksA >= wantA && *acksB >= wantB
		}, 2_000_000); err != nil {
			t.Fatal(err)
		}
	}
	td.net.Run(1_000_000)
	for i := 1; i < 4; i++ {
		if fmt.Sprint(td.deliv[i]) != fmt.Sprint(td.deliv[0]) {
			t.Fatalf("interleaved delivery order differs between elements:\n%v\n%v",
				td.deliv[0], td.deliv[i])
		}
	}
	if len(td.deliv[0]) != 10 {
		t.Fatalf("delivered %d, want 10", len(td.deliv[0]))
	}
}

func TestStaticAckIsDistinctFromDelivery(t *testing.T) {
	td := newTestDomain(t, 4, 1, 64, 3)
	s, acks := td.sender(t, "client:a")
	td.sendAndWait(t, s, acks, "hello")
	if *acks != 1 {
		t.Fatalf("acks = %d", *acks)
	}
	// The ACK acknowledges ordering; the payload is delivered via the
	// queue, not returned to the sender.
	if len(td.deliv[0]) != 1 || td.deliv[0][0] != "hello" {
		t.Fatalf("delivery = %v", td.deliv[0])
	}
}

// execute executes op on q as a replica does: with the op digest its request
// carries (pbft.Request.OpDigest).
func execute(q *Queue, clientID string, op []byte) []byte {
	return q.Execute(clientID, op, sha256.Sum256(op))
}

func TestQueueGarbageCollection(t *testing.T) {
	q := NewQueue(4, nil)
	for i := 0; i < 10; i++ {
		res := execute(q, "c", []byte{byte(i)})
		if !bytes.Equal(res, Ack) {
			t.Fatal("Execute must return the static ACK")
		}
	}
	if q.Len() != 4 {
		t.Fatalf("window length = %d, want 4", q.Len())
	}
	if q.WindowStart() != 7 {
		t.Fatalf("window start = %d, want 7", q.WindowStart())
	}
	if q.NextSeq() != 11 {
		t.Fatalf("nextSeq = %d", q.NextSeq())
	}
}

// TestQueueFullAppendAmortised: a queue at capacity trims without copying
// the window on every append (about one compaction per capacity appends)
// and, across several compactions, always retains exactly the newest
// capacity messages — the same window, hence the same snapshot bytes, as
// copying on every append gave.
func TestQueueFullAppendAmortised(t *testing.T) {
	const capacity = 64
	q := NewQueue(capacity, nil)
	compactions := 0
	for i := 0; i < 6*capacity; i++ {
		var second *queuedMsg
		if q.Len() == capacity {
			second = &q.window[1]
		}
		execute(q, "c", []byte{byte(i)})
		if second != nil && &q.window[0] != second {
			compactions++
		}
		if i < capacity {
			continue
		}
		if q.Len() != capacity {
			t.Fatalf("append %d: window length %d, want %d", i, q.Len(), capacity)
		}
		for j, m := range q.messages() {
			n := i - capacity + 1 + j // index of the append that made m
			if m.seq != uint64(n+1) || len(m.data) != 1 || m.data[0] != byte(n) {
				t.Fatalf("append %d: slot %d holds seq %d data %v, want seq %d data [%d]",
					i, j, m.seq, m.data, n+1, byte(n))
			}
		}
	}
	if compactions > 6 {
		t.Fatalf("%d compactions in %d appends to a full queue of %d, want about one per %d",
			compactions, 5*capacity, capacity, capacity)
	}
}

func TestQueueSnapshotRoundTrip(t *testing.T) {
	q := NewQueue(8, nil)
	for i := 0; i < 5; i++ {
		execute(q, "c", []byte(fmt.Sprintf("m%d", i)))
	}
	snap := q.Capture().Bytes()
	q2 := NewQueue(8, nil)
	if err := q2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q2.Capture().Bytes(), snap) {
		t.Fatal("snapshot round trip not canonical")
	}
	if q2.NextSeq() != q.NextSeq() || q2.Len() != q.Len() {
		t.Fatalf("restored queue differs: %d/%d vs %d/%d",
			q2.NextSeq(), q2.Len(), q.NextSeq(), q.Len())
	}
}

func TestQueueSnapshotsIdenticalAcrossElements(t *testing.T) {
	td := newTestDomain(t, 4, 1, 64, 4)
	s, acks := td.sender(t, "client:a")
	for i := 0; i < 6; i++ {
		td.sendAndWait(t, s, acks, fmt.Sprintf("m%d", i))
	}
	td.net.Run(1_000_000)
	ref := td.dom.Elements[0].Queue().Capture().Bytes()
	for i := 1; i < 4; i++ {
		if !bytes.Equal(td.dom.Elements[i].Queue().Capture().Bytes(), ref) {
			t.Fatalf("element %d queue snapshot differs", i)
		}
	}
}

func TestResynchroniseReplaysWithinWindow(t *testing.T) {
	// Element with lastDelivered=2 restores a queue holding 1..5: messages
	// 3..5 replay in order.
	delivered := []uint64{}
	el := &Element{}
	el.queue = NewQueue(16, func(seq uint64, sender string, data []byte) { el.deliver(seq, sender, data) })
	el.OnDeliver = func(seq uint64, sender string, data []byte) { delivered = append(delivered, seq) }
	for i := 0; i < 2; i++ {
		execute(el.queue, "c", []byte{byte(i)})
	}
	donor := NewQueue(16, nil)
	for i := 0; i < 5; i++ {
		execute(donor, "c", []byte{byte(i)})
	}
	if err := el.queue.Restore(donor.Capture().Bytes()); err != nil {
		t.Fatal(err)
	}
	el.Resynchronise()
	if fmt.Sprint(delivered) != "[1 2 3 4 5]" {
		t.Fatalf("delivered = %v", delivered)
	}
	if el.LastDelivered() != 5 {
		t.Fatalf("lastDelivered = %d", el.LastDelivered())
	}
}

func TestResynchroniseDetectsDesyncBeyondWindow(t *testing.T) {
	// GC has discarded the needed messages: the element must report desync
	// (virtual-synchrony expulsion, paper §3.1).
	desync := false
	el := &Element{}
	el.queue = NewQueue(2, func(seq uint64, sender string, data []byte) { el.deliver(seq, sender, data) })
	el.OnDeliver = func(uint64, string, []byte) {}
	el.OnDesync = func(a, b uint64) { desync = true }
	execute(el.queue, "c", []byte{0}) // delivered 1
	donor := NewQueue(2, nil)
	for i := 0; i < 10; i++ { // window retains only 9,10
		execute(donor, "c", []byte{byte(i)})
	}
	if err := el.queue.Restore(donor.Capture().Bytes()); err != nil {
		t.Fatal(err)
	}
	el.Resynchronise()
	if !desync {
		t.Fatal("desync not detected")
	}
}

func TestLaggingElementCatchesUpThroughQueueTransfer(t *testing.T) {
	// End-to-end: partition an element, run past checkpoints, heal; PBFT
	// state transfer moves the *queue*, and Resynchronise replays it.
	td := newTestDomain(t, 4, 1, 64, 5)
	lagged := td.dom.Addrs()[3]
	td.net.Partition([]netsim.NodeID{lagged},
		append(append([]netsim.NodeID{}, td.dom.Addrs()[:3]...), "sender/client:a"))
	s, acks := td.sender(t, "client:a")
	for i := 0; i < 9; i++ {
		td.sendAndWait(t, s, acks, fmt.Sprintf("m%d", i))
	}
	td.net.Heal()
	for i := 9; i < 14; i++ {
		td.sendAndWait(t, s, acks, fmt.Sprintf("m%d", i))
	}
	td.net.Run(2_000_000)
	// After queue transfer + replay, element 3 must have every message in
	// order (the window capacity 64 covers the whole run: no desync).
	td.dom.Elements[3].Resynchronise()
	if td.desync[3] {
		t.Fatal("unexpected desync")
	}
	if fmt.Sprint(td.deliv[3]) != fmt.Sprint(td.deliv[0]) {
		t.Fatalf("lagged element delivery differs:\n%v\n%v", td.deliv[3], td.deliv[0])
	}
}

func TestBatchedDomainDeliversIdenticalOrder(t *testing.T) {
	// A batching domain under k=8 senders: every element must deliver
	// the same payload sequence even though the ordering layer now moves
	// multi-request batches, and the queue-depth gauge must track the
	// retained window.
	net := netsim.NewNetwork(7, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
	metrics := obs.NewRegistry()
	deliv := make([][]string, 4)
	dom, err := NewDomain(net, DomainConfig{
		Name: "dom", N: 4, F: 1,
		QueueCapacity:      64,
		CheckpointInterval: 4,
		ViewTimeout:        200 * time.Millisecond,
		MaxBatch:           4,
		Ring:               pbft.NewKeyring(),
		KeySeed:            testKeySeed,
		Metrics:            metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range dom.Elements {
		i := i
		el.OnDeliver = func(seq uint64, sender string, data []byte) {
			deliv[i] = append(deliv[i], string(data))
		}
	}
	senders := make([]*Sender, 8)
	acks := 0
	for i := range senders {
		s, err := NewSender(dom, fmt.Sprintf("client:p-%d", i), fmt.Sprintf("pool/%d", i), 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		s.OnAck = func(uint64) { acks++ }
		senders[i] = s
	}
	// Wave 0 sends an identical payload from all 8 at once; later waves send
	// distinct payloads so order comparison bites.
	for _, s := range senders {
		if _, err := s.Send([]byte("w0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.RunUntil(func() bool { return acks >= 8 }, 2_000_000); err != nil {
		t.Fatalf("wave 0 not acknowledged: %v", err)
	}
	for w := 1; w < 3; w++ {
		want := acks + 8
		for i, s := range senders {
			if _, err := s.Send([]byte(fmt.Sprintf("w%d-s%d", w, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.RunUntil(func() bool { return acks >= want }, 2_000_000); err != nil {
			t.Fatalf("wave %d not acknowledged: %v", w, err)
		}
	}
	net.Run(1_000_000)
	for i := 1; i < 4; i++ {
		if fmt.Sprint(deliv[i]) != fmt.Sprint(deliv[0]) {
			t.Fatalf("element %d delivery order differs:\n%v\n%v", i, deliv[i], deliv[0])
		}
	}
	if len(deliv[0]) != 24 {
		t.Fatalf("delivered %d messages, want 24", len(deliv[0]))
	}
	// The ordering layer really batched: fewer agreement rounds than
	// requests.
	batches := metrics.Counter("pbft_batches_total", "group=dom").Value()
	reqs := metrics.Counter("pbft_batched_requests_total", "group=dom").Value()
	if batches == 0 || batches >= reqs {
		t.Fatalf("no batching at the SRM level: %d batches for %d requests", batches, reqs)
	}
	// Queue depth gauge tracks the retained window (24 < capacity 64, so
	// nothing was garbage collected yet).
	if got := metrics.Gauge("srm_queue_depth", "group=dom").Value(); got != 24 {
		t.Fatalf("srm_queue_depth = %v, want 24", got)
	}
}

// TestQueuedSender: a sender keeps one PBFT request in flight and a FIFO
// above it. A burst is delivered in order at every element, the client never
// has two requests outstanding, each payload's span ends at its own ACK (or
// at once when the send fails outright), and only the static ACK moves the
// queue.
func TestQueuedSender(t *testing.T) {
	const k = 6
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, td *testDomain, s *Sender, tr *obs.Tracer)
	}{
		{"burst-in-order-everywhere", func(t *testing.T, td *testDomain, s *Sender, _ *obs.Tracer) {
			for i := 0; i < k; i++ {
				if _, err := s.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			td.run(t, s, k)
			want := fmt.Sprint([]string{"m0", "m1", "m2", "m3", "m4", "m5"})
			for i, got := range td.deliv {
				if fmt.Sprint(got) != want {
					t.Errorf("element %d delivered %v, want %v", i, got, want)
				}
			}
		}},
		{"span-ends-at-its-ack", func(t *testing.T, td *testDomain, s *Sender, tr *obs.Tracer) {
			spans := make([]*obs.Span, k)
			for i := range spans {
				spans[i] = tr.StartDetached("srm.order")
				if seq, err := s.SendAll([][]byte{[]byte(fmt.Sprintf("m%d", i))}, spans[i]); err != nil || seq != uint64(i+1) {
					t.Fatalf("send %d: seq %d, err %v", i, seq, err)
				}
			}
			ackedAt := make([]time.Duration, k)
			s.OnAck = func(seq uint64) {
				ackedAt[seq-1] = td.net.Now()
				for i, sp := range spans {
					if sp.Ended() != (uint64(i) < seq) {
						t.Errorf("at ACK %d: span %d ended = %v", seq, i+1, sp.Ended())
					}
				}
			}
			td.run(t, s, k)
			for i, sp := range spans {
				if !sp.Ended() || sp.Finish != ackedAt[i] {
					t.Errorf("span %d ended %v at %v, ACK at %v", i+1, sp.Ended(), sp.Finish, ackedAt[i])
				}
			}
			// An outright failure ends the span at once: here the client
			// already holds a request the sender did not give it.
			if _, err := s.client.Invoke([]byte("behind the sender's back")); err != nil {
				t.Fatal(err)
			}
			failed := tr.StartDetached("srm.order")
			if _, err := s.SendAll([][]byte{[]byte("refused")}, failed); err == nil || !failed.Ended() {
				t.Fatalf("refused send: err %v, span ended %v", err, failed.Ended())
			}
		}},
		{"non-ack-result-holds-the-queue", func(t *testing.T, td *testDomain, s *Sender, tr *obs.Tracer) {
			first, second := tr.StartDetached("srm.order"), tr.StartDetached("srm.order")
			s.SendAll([][]byte{[]byte("first")}, first)
			s.SendAll([][]byte{[]byte("second")}, second)
			acks := 0
			s.OnAck = func(uint64) { acks++ }
			s.client.OnResult(1, []byte("not-the-ack"))
			if s.client.LastSeq() != 1 || acks != 0 || first.Ended() {
				t.Fatalf("a non-ACK result moved the queue: last seq %d, %d ACKs, span ended %v",
					s.client.LastSeq(), acks, first.Ended())
			}
			td.run(t, s, 2)
			if !first.Ended() || !second.Ended() || fmt.Sprint(td.deliv[0]) != "[first second]" {
				t.Fatalf("after the real ACKs: spans ended %v/%v, delivered %v", first.Ended(), second.Ended(), td.deliv[0])
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			td := newTestDomain(t, 4, 1, 64, 6)
			s, _ := td.sender(t, "client:a")
			tc.run(t, td, s, obs.NewTracer(td.net))
		})
	}
}

// run steps the network until n payloads of s are acknowledged, failing if
// s's client ever has more than one request outstanding: more issued than
// statically acknowledged. A request carries one payload or a pack of them,
// so requests are counted at the client, not at OnAck. s comes from
// td.sender.
func (td *testDomain) run(t *testing.T, s *Sender, n int) {
	t.Helper()
	acked := 0
	inner := s.OnAck
	s.OnAck = func(seq uint64) {
		acked++
		if inner != nil {
			inner(seq)
		}
	}
	if err := td.net.RunUntil(func() bool {
		if out := int(s.client.LastSeq()) - td.reqAcks[s]; out > 1 {
			t.Fatalf("%d requests outstanding", out)
		}
		return acked >= n
	}, 2_000_000); err != nil {
		t.Fatalf("%d of %d sends acknowledged: %v", acked, n, err)
	}
}

// replicaAuth returns an authenticator holding replica i's key, derived as
// the domain derived it.
func (td *testDomain) replicaAuth(t testing.TB, i int) pbft.Authenticator {
	t.Helper()
	id := td.dom.Group.Replicas[i].Identity()
	priv, err := pbft.DeriveIdentity(id, td.seed, pbft.NewKeyring())
	if err != nil {
		t.Fatal(err)
	}
	return pbft.NewEd25519Auth(id, priv, td.dom.Group.Ring)
}
