package pbft

import (
	"fmt"
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/obs"
)

// batchHarness drives a replica group under concurrent load: k independent
// clients, so the primary actually sees multiple orderable requests at once.
type batchHarness struct {
	net     *netsim.Network
	group   *SimGroup
	apps    []*logApp
	clients []*Client
	metrics *obs.Registry

	// acked[i] counts completed invocations of client i.
	acked []int
}

func newBatchHarness(t *testing.T, n, f int, seed int64, maxBatch, k int) *batchHarness {
	t.Helper()
	return newBatchHarnessWait(t, n, f, seed, maxBatch, k, 0)
}

// newBatchHarnessWait is newBatchHarness with an explicit BatchWait (0 = the
// 2 ms default).
func newBatchHarnessWait(t *testing.T, n, f int, seed int64, maxBatch, k int, wait time.Duration) *batchHarness {
	t.Helper()
	net := netsim.NewNetwork(seed, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
	apps := make([]*logApp, n)
	metrics := obs.NewRegistry()
	group, err := NewSimGroup(net, "grp", Config{
		N: n, F: f,
		CheckpointInterval: 4,
		ViewTimeout:        200 * time.Millisecond,
		MaxBatch:           maxBatch,
		BatchWait:          wait,
		Metrics:            metrics,
	}, NewKeyring(), testSeed, func(i int) App {
		apps[i] = &logApp{}
		return apps[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &batchHarness{net: net, group: group, apps: apps, metrics: metrics,
		acked: make([]int, k)}
	for i := 0; i < k; i++ {
		cli, err := group.NewSimClient(fmt.Sprintf("client:%d", i), fmt.Sprintf("client/%d", i),
			100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		idx := i
		cli.OnResult = func(uint64, []byte) { h.acked[idx]++ }
		h.clients = append(h.clients, cli)
	}
	return h
}

// invokeAll has every client invoke one op concurrently (same virtual
// instant) and returns the condition "all k invocations completed".
func (h *batchHarness) invokeAll(t *testing.T, tag string) (done func() bool) {
	t.Helper()
	want := make([]int, len(h.clients))
	for i, cli := range h.clients {
		want[i] = h.acked[i] + 1
		if _, err := cli.Invoke([]byte(fmt.Sprintf("%s-c%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
	return func() bool {
		for i := range h.clients {
			if h.acked[i] < want[i] {
				return false
			}
		}
		return true
	}
}

// wave is invokeAll, then runs the network until all k invocations complete.
func (h *batchHarness) wave(t *testing.T, tag string) {
	t.Helper()
	if err := h.net.RunUntil(h.invokeAll(t, tag), 5_000_000); err != nil {
		t.Fatalf("wave %s did not complete: %v", tag, err)
	}
}

// auditOrder verifies all replicas executed identical op sequences (prefix
// relation for laggards when strict is false) and that no op ran twice.
func (h *batchHarness) auditOrder(t *testing.T, strict bool) {
	t.Helper()
	ref := -1
	for i, a := range h.apps {
		if ref == -1 || len(a.ops) > len(h.apps[ref].ops) {
			ref = i
		}
	}
	seen := make(map[string]bool)
	for _, op := range h.apps[ref].ops {
		if seen[string(op)] {
			t.Fatalf("op %q executed twice on replica %d", op, ref)
		}
		seen[string(op)] = true
	}
	for i, a := range h.apps {
		if strict && len(a.ops) != len(h.apps[ref].ops) {
			t.Errorf("replica %d executed %d ops, want %d", i, len(a.ops), len(h.apps[ref].ops))
		}
		for j, op := range a.ops {
			if string(op) != string(h.apps[ref].ops[j]) {
				t.Fatalf("order divergence at %d: replica %d has %q, replica %d has %q",
					j, i, op, ref, h.apps[ref].ops[j])
			}
		}
	}
}

func (h *batchHarness) counter(name string) uint64 {
	return h.metrics.Counter(name, "group=grp").Value()
}

// TestBatchedOrderingExecutesAll: under concurrent load with batching on,
// every request executes exactly once, in the same order everywhere, and
// the agreement rounds genuinely carry multiple requests.
func TestBatchedOrderingExecutesAll(t *testing.T) {
	h := newBatchHarness(t, 4, 1, 21, 4, 8)
	for w := 0; w < 3; w++ {
		h.wave(t, fmt.Sprintf("w%d", w))
	}
	h.net.Run(1_000_000)
	h.auditOrder(t, true)
	if got := len(h.apps[0].ops); got != 24 {
		t.Fatalf("executed %d ops, want 24", got)
	}
	batches := h.counter("pbft_batches_total")
	reqs := h.counter("pbft_batched_requests_total")
	if reqs < 24 {
		t.Fatalf("batched_requests_total = %d, want >= 24", reqs)
	}
	// 24 requests in at most MaxBatch=4 chunks: if batching worked, far
	// fewer rounds than requests were needed. (Counters are group-wide, so
	// divide by nothing — every replica increments the same counter; the
	// ratio is what matters.)
	if batches >= reqs {
		t.Fatalf("no amortisation: %d batches for %d batched requests", batches, reqs)
	}
	if h.metrics.Histogram("pbft_batch_size", nil, "group=grp").Count() == 0 {
		t.Fatal("batch size histogram never observed")
	}
}

// TestBatchPipelining: with more pending requests than MaxBatch, the
// primary streams several pre-prepares back to back — multiple batches
// genuinely in flight inside the ordering window, not serialised round by
// round. In-flight overlap is observed at a backup: the pre-prepare for a
// later sequence arrives before an earlier sequence has finished its
// three-phase round (executed).
func TestBatchPipelining(t *testing.T) {
	h := newBatchHarness(t, 4, 1, 22, 4, 16)
	primary, backup := h.group.Addrs[0], h.group.Addrs[1]
	ppArrived := make(map[uint64]time.Duration)
	h.net.AddFilter(func(from, to netsim.NodeID, payload []byte) ([]byte, bool) {
		if from != primary || to != backup {
			return nil, false
		}
		if m, err := Decode(payload); err == nil {
			if pp, ok := m.(*PrePrepare); ok {
				if _, seen := ppArrived[pp.Seq]; !seen {
					ppArrived[pp.Seq] = h.net.Now()
				}
			}
		}
		return nil, false
	})
	executedAt := make(map[uint64]time.Duration)
	h.group.Replicas[1].OnExecute = func(seq uint64, _ *Request, _ []byte) {
		if _, seen := executedAt[seq]; !seen {
			executedAt[seq] = h.net.Now()
		}
	}
	h.wave(t, "pipe")
	if len(ppArrived) < 2 {
		t.Fatalf("expected several batches, saw %d pre-prepare sequences", len(ppArrived))
	}
	overlapped := false
	for seq, arrived := range ppArrived {
		if seq == 0 {
			continue
		}
		if done, ok := executedAt[seq-1]; ok {
			if next, ok2 := ppArrived[seq]; ok2 && next <= done && arrived <= done {
				overlapped = true
			}
		}
	}
	if !overlapped {
		t.Fatalf("no pipelining: every batch waited for its predecessor to execute\narrivals=%v\nexecuted=%v",
			ppArrived, executedAt)
	}
	h.auditOrder(t, true)
}

// TestBatchViewChangeUnderLoad crashes the primary mid-batch: after its
// batched pre-prepare is on the wire but before the round commits. The new
// primary must re-propose the prepared batch intact (or re-order the
// requests fresh); no request may be lost or executed twice.
func TestBatchViewChangeUnderLoad(t *testing.T) {
	h := newBatchHarness(t, 4, 1, 23, 8, 8)
	h.wave(t, "warm") // view 0 settled, clients know the primary
	primary := h.group.Addrs[0]
	// Strand the batch mid-round: let the batched pre-prepare and the
	// prepares through but drop every commit, so backups reach prepared and
	// the round can never complete in view 0. (Crashing the primary alone is
	// not enough — the 3 survivors are exactly 2f+1 and would finish the
	// round without a view change.)
	batchOnWire := false
	h.net.AddFilter(func(from, _ netsim.NodeID, payload []byte) ([]byte, bool) {
		m, err := Decode(payload)
		if err != nil {
			return nil, false
		}
		if pp, ok := m.(*PrePrepare); ok && from == primary && len(pp.Requests) > 1 {
			batchOnWire = true
		}
		if _, ok := m.(*Commit); ok {
			return nil, true
		}
		return nil, false
	})
	want := make([]int, len(h.clients))
	for i, cli := range h.clients {
		want[i] = h.acked[i] + 1
		if _, err := cli.Invoke([]byte(fmt.Sprintf("vc-c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Run until the batched pre-prepare is on the wire, give the prepares a
	// moment to circulate so backups hold a prepared batch, then crash the
	// primary and heal the network.
	if err := h.net.RunUntil(func() bool { return batchOnWire }, 1_000_000); err != nil {
		t.Fatalf("primary never proposed a batch: %v", err)
	}
	h.net.RunFor(15 * time.Millisecond)
	h.net.RemoveNode(primary)
	h.net.ClearFilters()
	// Watch for the new primary re-proposing the prepared batch intact.
	reproposedBatch := false
	h.net.AddFilter(func(_, _ netsim.NodeID, payload []byte) ([]byte, bool) {
		if m, err := Decode(payload); err == nil {
			if nv, ok := m.(*NewView); ok {
				for _, pp := range nv.PrePrepares {
					if len(pp.Requests) > 1 {
						reproposedBatch = true
					}
				}
			}
		}
		return nil, false
	})
	// The stalled round trips the view timeout; the new view completes all
	// outstanding invocations.
	if err := h.net.RunUntil(func() bool {
		for i := range h.clients {
			if h.acked[i] < want[i] {
				return false
			}
		}
		return true
	}, 10_000_000); err != nil {
		t.Fatalf("wave did not complete after primary crash: %v", err)
	}
	for i := 1; i < 4; i++ {
		if v := h.group.Replicas[i].View(); v == 0 {
			t.Errorf("replica %d still in view 0 after primary crash", i)
		}
	}
	if !reproposedBatch {
		t.Error("no NewView carried a multi-request pre-prepare; prepared batch not re-proposed intact")
	}
	h.auditOrder(t, false)
	// Surviving replicas executed warm wave + crash wave exactly once each.
	for i := 1; i < 4; i++ {
		if got := len(h.apps[i].ops); got != 16 {
			t.Errorf("replica %d executed %d ops, want 16", i, got)
		}
	}
}

// batchTrace records one run's executed (seq, request, batch-size) stream
// on a backup replica — the batch boundaries made observable.
func batchTrace(t *testing.T, seed int64) []string {
	t.Helper()
	h := newBatchHarness(t, 4, 1, seed, 4, 8)
	var trace []string
	rep := h.group.Replicas[1]
	rep.OnExecute = func(seq uint64, req *Request, _ []byte) {
		trace = append(trace, fmt.Sprintf("%d:%s:%d", seq, req.ClientID, req.ClientSeq))
	}
	for w := 0; w < 3; w++ {
		h.wave(t, fmt.Sprintf("w%d", w))
	}
	h.net.Run(1_000_000)
	return trace
}

// TestBatchBoundariesDeterministic: two runs from the same seed produce
// identical batch boundaries — sequence assignment included — so recorded
// experiments are reproducible under batching.
func TestBatchBoundariesDeterministic(t *testing.T) {
	a := batchTrace(t, 24)
	b := batchTrace(t, 24)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch boundaries diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) != 24 {
		t.Fatalf("trace has %d executions, want 24", len(a))
	}
}

// TestMaxBatchOneIsLegacyProtocol: a MaxBatch=1 group never arms the batch
// timer and produces single-request pre-prepares only — the regression
// guard that recorded C1/F1 schedules are untouched.
func TestMaxBatchOneIsLegacyProtocol(t *testing.T) {
	h := newBatchHarness(t, 4, 1, 25, 1, 4)
	sawBatch := false
	h.net.AddFilter(func(_, _ netsim.NodeID, payload []byte) ([]byte, bool) {
		if m, err := Decode(payload); err == nil {
			if pp, ok := m.(*PrePrepare); ok && len(pp.Requests) > 1 {
				sawBatch = true
			}
		}
		return nil, false
	})
	h.wave(t, "legacy")
	if sawBatch {
		t.Fatal("MaxBatch=1 group emitted a multi-request pre-prepare")
	}
	h.auditOrder(t, true)
	if got := h.counter("pbft_batches_total"); got == 0 {
		t.Fatal("batches counter should still count single-request rounds")
	}
}

// TestQueueDepthGauges: the backlog gauge is registered and left at zero
// once the load drains (it was non-zero while requests were pending).
func TestPrimaryBacklogGauge(t *testing.T) {
	h := newBatchHarness(t, 4, 1, 26, 4, 8)
	h.wave(t, "g")
	h.net.Run(1_000_000)
	if got := h.metrics.Gauge("pbft_primary_backlog", "group=grp").Value(); got != 0 {
		t.Fatalf("backlog gauge = %v after drain, want 0", got)
	}
}

// BenchmarkDupDetect compares duplicate-request detection on a full
// 128-entry ordering window: the digest→seq index vs the former O(window)
// sorted-scan over logSeqs.
func BenchmarkDupDetect(b *testing.B) {
	r, err := NewReplica(Config{
		N: 4, F: 1, CheckpointInterval: 64, WindowSize: 128,
		Group: "grp", Auth: nullAuth{"grp/r0"},
	}, &logApp{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const window = 128
	var last Digest
	for seq := uint64(1); seq <= window; seq++ {
		req := &Request{ClientID: "bench", ClientSeq: seq, Op: []byte(fmt.Sprintf("op-%d", seq))}
		pp := &PrePrepare{View: 0, Seq: seq, Digest: BatchDigest([]*Request{req}),
			Requests: []*Request{req}, Replica: 0}
		en := r.entryAt(seq)
		en.prePrepare = pp
		r.indexRequests(pp)
		last = req.Digest()
	}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq, ok := r.ppIndex[last]
			if !ok || r.log[seq] == nil {
				b.Fatal("index lookup failed")
			}
		}
	})
	b.Run("legacy-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			found := false
			for _, seq := range r.logSeqs() {
				en := r.log[seq]
				if en.prePrepare != nil && en.prePrepare.Digest == last && !en.executed {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("scan lookup failed")
			}
		}
	})
}
