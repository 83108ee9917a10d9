package pbft

import (
	"fmt"
	"testing"
	"time"
)

// proposals reads pbft_proposals_total for one trigger.
func (h *batchHarness) proposals(trigger string) uint64 {
	return h.metrics.Counter("pbft_proposals_total", "group=grp", "trigger="+trigger).Value()
}

// TestLoneSenderNeverWaitsForBatchTimer: one closed-loop sender against a
// MaxBatch 16 group is proposed at once every time — each call completes at
// the same virtual instant as in the unbatched run of the same seed.
func TestLoneSenderNeverWaitsForBatchTimer(t *testing.T) {
	const calls = 10
	completions := func(maxBatch int) ([]time.Duration, *batchHarness) {
		h := newBatchHarness(t, 4, 1, 31, maxBatch, 1)
		var done []time.Duration
		for i := 0; i < calls; i++ {
			h.wave(t, fmt.Sprintf("lone%d", i))
			done = append(done, h.net.Now())
		}
		return done, h
	}
	unbatched, _ := completions(1)
	batched, h := completions(16)
	for i := range unbatched {
		if batched[i] != unbatched[i] {
			t.Fatalf("call %d completed at %v with MaxBatch 16, at %v unbatched", i, batched[i], unbatched[i])
		}
	}
	if idle, timer, full := h.proposals("idle"), h.proposals("timer"), h.proposals("full"); idle != calls || timer != 0 || full != 0 {
		t.Fatalf("proposals idle/timer/full = %d/%d/%d, want %d/0/0", idle, timer, full, calls)
	}
}

// TestConcurrentSendersStillCoalesce: 16 senders invoking together stay on
// the timer path and keep the amortisation itdos-bench -check P1 pins (3x
// fewer messages per request than unbatched).
func TestConcurrentSendersStillCoalesce(t *testing.T) {
	const k, waves = 16, 4
	msgsPerRequest := func(maxBatch int) (float64, *batchHarness) {
		h := newBatchHarness(t, 4, 1, 32, maxBatch, k)
		h.wave(t, "warm")
		before := h.net.Stats().MessagesSent
		for w := 0; w < waves; w++ {
			h.wave(t, fmt.Sprintf("w%d", w))
		}
		return float64(h.net.Stats().MessagesSent-before) / (k * waves), h
	}
	unbatched, _ := msgsPerRequest(1)
	batched, h := msgsPerRequest(16)
	if gain := unbatched / batched; gain < 3 {
		t.Fatalf("msgs/request %.1f batched vs %.1f unbatched (%.2fx, want >= 3x)", batched, unbatched, gain)
	}
	// Only the cold group's very first request may go out alone.
	if idle := h.proposals("idle"); idle > 1 {
		t.Fatalf("%d idle proposals under 16 concurrent senders, want at most the first", idle)
	}
	h.auditOrder(t, true)
}

// TestBurstProposedOnFill: a burst larger than MaxBatch is proposed as its
// batches fill, without waiting out the accumulation window.
func TestBurstProposedOnFill(t *testing.T) {
	const wait = 50 * time.Millisecond
	h := newBatchHarnessWait(t, 4, 1, 33, 4, 9, wait)
	// Nine requests reach the cold primary within 3 ms of each other: the
	// first goes out alone, the other eight fill two batches of four.
	h.wave(t, "burst")
	if now := h.net.Now(); now >= wait {
		t.Fatalf("burst completed at %v: it waited for the %v batch timer", now, wait)
	}
	h.net.Run(1_000_000) // the armed timer fires on nothing
	if idle, timer, full := h.proposals("idle"), h.proposals("timer"), h.proposals("full"); idle != 1 || timer != 0 || full != 2 {
		t.Fatalf("proposals idle/timer/full = %d/%d/%d, want 1/0/2", idle, timer, full)
	}
	h.auditOrder(t, true)
}

// TestViewChangeWithPendingBatch: the primary is holding an open batch — the
// timer armed, requests only it has seen — when the group changes view.
// Nothing is lost, nothing executes twice, and no replica is left with the
// timer flag set for a timer that will propose nothing.
func TestViewChangeWithPendingBatch(t *testing.T) {
	// MaxBatch above the sender count: the batch stays open for the whole
	// window instead of going out on fill.
	h := newBatchHarnessWait(t, 4, 1, 34, 16, 8, 20*time.Millisecond)
	h.wave(t, "warm") // 1 + 7: the primary is on the timer path from here
	h.net.Run(1_000_000)

	allAcked := h.invokeAll(t, "vc")
	old := h.group.Replicas[0]
	if err := h.net.RunUntil(func() bool { return len(old.pending) > 0 }, 1_000_000); err != nil {
		t.Fatalf("primary never held a pending request: %v", err)
	}
	if !old.batchTimerArmed {
		t.Fatal("primary holds a pending request with no batch timer armed")
	}
	// f+1 backups suspect the primary; the rest, the primary included, join.
	h.group.Replicas[1].HandleTimer()
	h.group.Replicas[2].HandleTimer()
	if err := h.net.RunUntil(allAcked, 10_000_000); err != nil {
		t.Fatalf("wave did not complete across the view change: %v", err)
	}
	h.net.Run(1_000_000)
	h.auditOrder(t, true)
	for i, r := range h.group.Replicas {
		if r.View() != 1 || r.InViewChange() {
			t.Errorf("replica %d: view %d, in view change %v; want settled in view 1", i, r.View(), r.InViewChange())
		}
		if got := len(h.apps[i].ops); got != 16 {
			t.Errorf("replica %d executed %d ops, want 16", i, got)
		}
		if r.batchTimerArmed || len(r.pending) != 0 || len(r.pendingSet) != 0 {
			t.Errorf("replica %d left with timer flag %v, %d pending, %d in the pending set",
				i, r.batchTimerArmed, len(r.pending), len(r.pendingSet))
		}
	}
	// The new primary batches on: another wave completes in the same view.
	h.wave(t, "after")
	for i, r := range h.group.Replicas {
		if r.View() != 1 {
			t.Errorf("replica %d moved to view %d serving the wave after the view change", i, r.View())
		}
	}
	h.auditOrder(t, true)
}
