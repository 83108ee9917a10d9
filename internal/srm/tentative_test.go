package srm

import (
	"fmt"
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/pbft"
)

// newTentativeDomain mirrors newTestDomain with speculation enabled and the
// delivery tentativeness observed per message.
func newTentativeDomain(t *testing.T, n, f, capacity int, seed int64) (*testDomain, []*int) {
	t.Helper()
	net := netsim.NewNetwork(seed, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
	td := &testDomain{net: net, deliv: make([][]string, n), desync: make([]bool, n)}
	dom, err := NewDomain(net, DomainConfig{
		Name: "dom", N: n, F: f,
		QueueCapacity:      capacity,
		CheckpointInterval: 4,
		ViewTimeout:        200 * time.Millisecond,
		TentativeExecution: true,
		Ring:               pbft.NewKeyring(),
		KeySeed:            testKeySeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tentCounts := make([]*int, n)
	for i, el := range dom.Elements {
		i := i
		el := el
		tentCounts[i] = new(int)
		el.OnDeliver = func(seq uint64, sender string, data []byte) {
			td.deliv[i] = append(td.deliv[i], string(data))
			if el.Queue().Tentative() {
				*tentCounts[i]++
			}
		}
		el.OnDesync = func(a, b uint64) { td.desync[i] = true }
	}
	td.dom = dom
	return td, tentCounts
}

// Speculation on, failure-free: deliveries stay exactly-once and in total
// order, some arrive tentatively, and no element desyncs.
func TestTentativeDeliveryExactlyOnce(t *testing.T) {
	td, tentCounts := newTentativeDomain(t, 4, 1, 64, 31)
	s, acks := td.sender(t, "client:a")
	for i := 0; i < 8; i++ {
		td.sendAndWait(t, s, acks, fmt.Sprintf("msg-%d", i))
	}
	td.net.Run(1_000_000)
	for i := 0; i < 4; i++ {
		if fmt.Sprint(td.deliv[i]) != fmt.Sprint(td.deliv[0]) {
			t.Fatalf("element %d delivery order differs:\n%v\n%v", i, td.deliv[i], td.deliv[0])
		}
		if td.desync[i] {
			t.Fatalf("element %d desynced during failure-free run", i)
		}
	}
	if len(td.deliv[0]) != 8 {
		t.Fatalf("delivered %d messages, want 8 (no duplicate delivery)", len(td.deliv[0]))
	}
	tentTotal := 0
	for _, c := range tentCounts {
		tentTotal += *c
	}
	if tentTotal == 0 {
		t.Fatal("no tentative deliveries observed with TentativeExecution on")
	}
}

// A view change over speculated deliveries: the rollback replay redelivers
// the same content, the element reconciles by content hash and suppresses
// the duplicates — the consumer sees each message exactly once and no
// element desyncs.
func TestTentativeRollbackReconcilesRedelivery(t *testing.T) {
	td, _ := newTentativeDomain(t, 4, 1, 64, 32)
	s, acks := td.sender(t, "client:a")
	td.sendAndWait(t, s, acks, "committed")

	// Suppress view-0 commits so the next message prepares (and is
	// delivered tentatively) everywhere but commits only after the view
	// change re-proposes it.
	td.net.AddFilter(func(from, to netsim.NodeID, payload []byte) ([]byte, bool) {
		m, err := pbft.Decode(payload)
		if err != nil {
			return nil, false
		}
		if c, ok := m.(*pbft.Commit); ok && c.View == 0 {
			return nil, true
		}
		return nil, false
	})
	want := *acks + 1
	if _, err := s.Send([]byte("speculated")); err != nil {
		t.Fatal(err)
	}
	if err := td.net.RunUntil(func() bool { return *acks >= want }, 5_000_000); err != nil {
		t.Fatalf("speculated send not acknowledged after view change: %v", err)
	}
	td.net.ClearFilters()
	td.sendAndWait(t, s, acks, "after")
	td.net.Run(1_000_000)

	rollbacks := false
	for _, el := range td.dom.Elements {
		if el.Replica.View() > 0 {
			rollbacks = true
		}
	}
	if !rollbacks {
		t.Fatal("no view change occurred; test exercised nothing")
	}
	for i := 0; i < 4; i++ {
		if td.desync[i] {
			t.Fatalf("element %d desynced: matching redelivery must be suppressed, not expelled", i)
		}
	}
	// Every element that progressed delivered the three messages exactly
	// once, in order.
	wantSeq := []string{"committed", "speculated", "after"}
	for i := 0; i < 4; i++ {
		if len(td.deliv[i]) < len(wantSeq) {
			continue // a laggard may still be behind; order is what matters
		}
		if fmt.Sprint(td.deliv[i]) != fmt.Sprint(wantSeq) {
			t.Fatalf("element %d delivered %v, want %v", i, td.deliv[i], wantSeq)
		}
	}
}
