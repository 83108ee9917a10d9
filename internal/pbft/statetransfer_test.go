package pbft

import (
	"fmt"
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/obs"
)

// stateDataTo counts the StateData frames each replica sends to replica to,
// optionally dropping them.
type stateDataTo struct {
	from map[netsim.NodeID]int
	drop func(sd *StateData) bool
}

func watchStateData(h *harness, to int, drop func(sd *StateData) bool) *stateDataTo {
	w := &stateDataTo{from: make(map[netsim.NodeID]int), drop: drop}
	h.net.AddFilter(func(from, dst netsim.NodeID, payload []byte) ([]byte, bool) {
		if dst != h.group.Addrs[to] {
			return nil, false
		}
		m, err := Decode(payload)
		if err != nil {
			return nil, false
		}
		sd, ok := m.(*StateData)
		if !ok {
			return nil, false
		}
		w.from[from]++
		return nil, w.drop != nil && w.drop(sd)
	})
	return w
}

func (h *harness) ops(t *testing.T, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		h.invoke(t, []byte(fmt.Sprintf("op-%d", i)))
	}
}

// isolate cuts replica i off from its group and the client.
func (h *harness) isolate(i int) {
	var others []netsim.NodeID
	for j, a := range h.group.Addrs {
		if j != i {
			others = append(others, a)
		}
	}
	h.net.Partition([]netsim.NodeID{h.group.Addrs[i]}, append(others, "client/test"))
}

// TestRepeatedFetchStateIsAnsweredOnce: a peer that asks a hundred times for
// the same stable checkpoint gets one StateData, built by one serialisation;
// before, each FetchState bought the full state.
func TestRepeatedFetchStateIsAnsweredOnce(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarnessWith(t, 4, 1, 21, reg)
	h.ops(t, 0, 9) // stable checkpoints at 4 and 8
	h.net.Run(1_000_000)
	w := watchStateData(h, 3, nil)
	serialised := reg.Counter("pbft_checkpoint_bytes_total", "group=grp", "kind=serialised")
	before := serialised.Value()

	fs := &FetchState{Seq: 1, Replica: 3}
	h.group.Replicas[3].sign(fs)
	for i := 0; i < 100; i++ {
		h.group.Replicas[0].HandleMessage(Encode(fs))
	}
	h.net.Run(1_000_000)
	if got := w.from[h.group.Addrs[0]]; got != 1 {
		t.Fatalf("100 FetchStates bought %d StateData, want 1", got)
	}
	cs := h.group.Replicas[0].snapshots[h.group.Replicas[0].lowWater]
	if got, want := serialised.Value()-before, uint64(len(cs.app.Bytes())); got != want {
		t.Fatalf("serialised %d bytes answering, want the application state once (%d)", got, want)
	}

	// Another peer is served from the same bytes: nothing is serialised again.
	fs2 := &FetchState{Seq: 1, Replica: 2}
	h.group.Replicas[2].sign(fs2)
	w2 := watchStateData(h, 2, nil)
	h.group.Replicas[0].HandleMessage(Encode(fs2))
	h.net.Run(1_000_000)
	if got := w2.from[h.group.Addrs[0]]; got != 1 {
		t.Fatalf("second peer got %d StateData, want 1", got)
	}
	if got, want := serialised.Value()-before, uint64(len(cs.app.Bytes())); got != want {
		t.Fatalf("second peer cost another serialisation (%d bytes in all, want %d)", got, want)
	}

	// Once the replica has executed further, the first peer may ask again:
	// that is how a requester whose reply was lost gets served.
	h.ops(t, 9, 10)
	h.net.Run(1_000_000)
	h.group.Replicas[0].HandleMessage(Encode(fs))
	h.net.Run(1_000_000)
	if got := w.from[h.group.Addrs[0]]; got != 2 {
		t.Fatalf("after progress the peer has %d StateData, want 2", got)
	}
}

// TestRecoverAndLagEachGetOneAnswerPerPeer: the two legitimate requesters —
// Recover's broadcast and a lagging replica's requestState — are each
// answered exactly once by every peer asked.
func TestRecoverAndLagEachGetOneAnswerPerPeer(t *testing.T) {
	t.Run("recover", func(t *testing.T) {
		h := newHarness(t, 4, 1, 22)
		h.ops(t, 0, 9)
		h.net.Run(1_000_000)
		w := watchStateData(h, 2, nil)
		h.group.Replicas[2].Recover()
		h.net.Run(1_000_000)
		for i, a := range h.group.Addrs {
			if want := 1; i != 2 && w.from[a] != want {
				t.Errorf("replica %d answered the recovery broadcast %d times, want %d", i, w.from[a], want)
			}
		}
		if got := h.group.Replicas[2].LastExecuted(); got != 8 {
			t.Fatalf("recovering replica restored to %d, want 8", got)
		}
	})
	t.Run("lag", func(t *testing.T) {
		h := newHarness(t, 4, 1, 23)
		h.isolate(3)
		h.ops(t, 0, 9)
		h.net.Heal()
		w := watchStateData(h, 3, nil)
		h.ops(t, 9, 14) // the quorum at 12 shows replica 3 it is behind
		h.net.Run(2_000_000)
		total := 0
		for _, n := range w.from {
			if n > 1 {
				t.Errorf("a peer answered %d times, want at most 1", n)
			}
			total += n
		}
		if total == 0 {
			t.Fatal("nobody answered the lagging replica")
		}
		if got := h.group.Replicas[3].LastExecuted(); got < 12 {
			t.Fatalf("lagging replica lastExec = %d, want >= 12", got)
		}
		h.auditOrder(t, false)
	})
}

// TestLostStateDataDoesNotWedgeStateTransfer: every StateData answering the
// first request is lost. The replica used to keep waiting for it and never
// asked again; it now asks at the next checkpoint quorum above the one it
// asked for, and catches up there.
func TestLostStateDataDoesNotWedgeStateTransfer(t *testing.T) {
	h := newHarness(t, 4, 1, 24)
	h.isolate(3)
	h.ops(t, 0, 9)
	h.net.Heal()
	var first uint64
	w := watchStateData(h, 3, func(sd *StateData) bool {
		if first == 0 {
			first = sd.Seq
		}
		return sd.Seq == first
	})
	// Bounded runs: a replica left behind for a whole ViewTimeout starts
	// demanding view changes, which is not what this test is about.
	h.ops(t, 9, 14)
	h.net.RunFor(50 * time.Millisecond)
	if first == 0 || len(w.from) == 0 {
		t.Fatal("no StateData was sent at all")
	}
	if got := h.group.Replicas[3].LastExecuted(); got != 0 {
		t.Fatalf("replica 3 executed to %d although every StateData was dropped", got)
	}
	h.ops(t, 14, 18) // next stable checkpoint
	h.net.RunFor(50 * time.Millisecond)
	if got := h.group.Replicas[3].LastExecuted(); got <= first {
		t.Fatalf("replica 3 lastExec = %d: it never asked again after losing the state at %d", got, first)
	}
	h.auditOrder(t, false)
}

// TestStateTransferWithManyClients: the client table has one record per
// client identity ever served and never shrinks. restoreState used to reject
// more than 4096 records, silently, so such a group could never transfer
// state again.
func TestStateTransferWithManyClients(t *testing.T) {
	const clients = 5000
	reg := obs.NewRegistry()
	h := newHarnessWith(t, 4, 1, 25, reg)
	h.isolate(3)
	h.ops(t, 0, 3)
	// The table is replicated state: plant the same records everywhere, as
	// 5000 served clients would have left them.
	for _, r := range h.group.Replicas[:3] {
		for i := 0; i < clients; i++ {
			r.clientTable[fmt.Sprintf("client:%04d", i)] = &clientRecord{seq: 1, result: []byte("ok"), hasReply: true}
		}
	}
	h.ops(t, 3, 9)
	h.net.Heal()
	h.ops(t, 9, 14)
	h.net.Run(2_000_000)
	r3 := h.group.Replicas[3]
	if r3.LastExecuted() < 12 {
		t.Fatalf("lagging replica lastExec = %d, want >= 12", r3.LastExecuted())
	}
	if got := len(r3.clientTable); got < clients {
		t.Fatalf("restored client table has %d records, want >= %d", got, clients)
	}
	for _, reason := range []string{"digest", "proof", "decode"} {
		if n := reg.Counter("pbft_state_rejected_total", "group=grp", "reason="+reason).Value(); n != 0 {
			t.Errorf("%d StateData rejected for %s", n, reason)
		}
	}
	h.auditOrder(t, false)
}

// TestClientTableCountBoundedByBytes: a claimed record count the remaining
// bytes cannot hold is refused before anything is allocated for it.
func TestClientTableCountBoundedByBytes(t *testing.T) {
	if _, err := decodeClientTable([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("accepted a table claiming 4G records in 0 bytes")
	}
	r := &Replica{clientTable: map[string]*clientRecord{
		"b": {seq: 2, result: []byte("r"), hasReply: true},
		"a": {seq: 1},
	}}
	buf := r.clientTableBytes()
	table, err := decodeClientTable(buf)
	if err != nil || len(table) != 2 || table["b"].seq != 2 || string(table["b"].result) != "r" || table["a"].hasReply {
		t.Fatalf("round trip: %v %v", table, err)
	}
	if _, err := decodeClientTable(append(buf, 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}
