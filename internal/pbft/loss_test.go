package pbft

import (
	"fmt"
	"testing"
	"time"

	"itdos/internal/netsim"
)

// TestProgressUnderPacketLoss checks liveness of the full protocol under a
// lossy network: client retransmission, primary pre-prepare
// retransmission, FetchEntry recovery and checkpoint-driven state transfer
// must together keep the group live.
func TestProgressUnderPacketLoss(t *testing.T) {
	// Loss rates above ~5%% still make progress but converge slowly (view
	// changes with large NEW-VIEW messages are themselves lossy), so the
	// test pins the moderate-loss regime where the retransmission paths —
	// client retransmit, duplicate pre-prepare → phase re-broadcast,
	// FetchEntry, checkpoint state transfer — carry the load.
	for _, rate := range []float64{0.02, 0.05} {
		t.Run(fmt.Sprintf("loss_%.0f%%", rate*100), func(t *testing.T) {
			h := newHarness(t, 4, 1, 21)
			h.net.SetDropRate(rate)
			for i := 0; i < 10; i++ {
				h.invoke(t, []byte(fmt.Sprintf("op-%d", i)))
			}
			h.net.SetDropRate(0)
			h.net.Run(2_000_000)
			h.auditOrder(t, false)
			// Every replica eventually executes everything once loss stops.
			for i, a := range h.apps {
				if len(a.ops) < 8 {
					t.Errorf("replica %d executed only %d/10 ops", i, len(a.ops))
				}
			}
		})
	}
}

// TestProgressUnderChurnedLatency mixes high jitter with reordering-prone
// delivery: total order must hold regardless.
func TestProgressUnderChurnedLatency(t *testing.T) {
	net := netsim.NewNetwork(5, netsim.UniformLatency(100*time.Microsecond, 20*time.Millisecond))
	apps := make([]*logApp, 4)
	group, err := NewSimGroup(net, "grp", Config{
		N: 4, F: 1, CheckpointInterval: 4, ViewTimeout: 300 * time.Millisecond,
	}, NewKeyring(), testSeed, func(i int) App {
		apps[i] = &logApp{}
		return apps[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	results := map[uint64]bool{}
	cli, err := group.NewSimClient("client:x", "client/x", 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cli.OnResult = func(seq uint64, _ []byte) { results[seq] = true }
	for i := 0; i < 12; i++ {
		seq, err := cli.Invoke([]byte(fmt.Sprintf("op-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.RunUntil(func() bool { return results[seq] }, 3_000_000); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	net.Run(2_000_000)
	// All replicas executed identical sequences.
	for i := 1; i < 4; i++ {
		if fmt.Sprint(apps[i].ops) != fmt.Sprint(apps[0].ops) {
			t.Fatalf("replica %d diverged under jitter", i)
		}
	}
}
