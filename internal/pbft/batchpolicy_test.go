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
// timer flag set for a timer that will propose nothing. Only the new
// primary awaits callers: those it answered in view 1. The old primary,
// which entered the view change awaiting the warm wave's callers, awaits
// no one.
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
	if len(old.awaited) == 0 {
		t.Fatal("primary answered the warm wave but awaits no one")
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
		if got := len(r.awaited); (i != 1 && got != 0) || got > len(h.clients) {
			t.Errorf("replica %d awaits %d callers", i, got)
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

// TestViewChangeDropsOlderViewProposals: with MaxBatch equal to the sender
// count a full batch goes out as the backups suspect the primary, so some
// replicas hold a view-0 pre-prepare that no prepared certificate carries
// into view 1. A log entry belongs to one view: the new primary's proposal
// at that sequence must not look like equivocation and send a replica alone
// into view 2.
func TestViewChangeDropsOlderViewProposals(t *testing.T) {
	for seed := int64(30); seed < 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			h := newBatchHarnessWait(t, 4, 1, seed, 8, 8, 20*time.Millisecond)
			h.wave(t, "warm")
			h.net.Run(1_000_000)
			allAcked := h.invokeAll(t, "vc")
			old := h.group.Replicas[0]
			if err := h.net.RunUntil(func() bool { return len(old.pending) > 0 }, 1_000_000); err != nil {
				t.Fatalf("primary never held a pending request: %v", err)
			}
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
			}
		})
	}
}

// settle runs warm waves of every sender until the primary awaits all of
// them. A cold primary proposes the first arrival alone and the rest on the
// timer, and each proposal empties the awaited set, so the set holds every
// sender only after a wave went out as one batch. The queue is drained
// afterwards, so a leftover batch timer has fired.
func (h *batchHarness) settle(t *testing.T) {
	t.Helper()
	p := h.group.Replicas[0]
	for w := 0; w < 8; w++ {
		h.wave(t, fmt.Sprintf("warm%d", w))
		if len(p.awaited) == len(h.clients) {
			h.net.Run(1_000_000)
			return
		}
	}
	t.Fatalf("primary awaits %d of %d senders after 8 warm waves", len(p.awaited), len(h.clients))
}

// waveOf has the clients at idx invoke one op each at the same virtual
// instant and runs until they have all completed.
func (h *batchHarness) waveOf(t *testing.T, tag string, idx ...int) {
	t.Helper()
	want := make(map[int]int, len(idx))
	for _, i := range idx {
		want[i] = h.acked[i] + 1
		if _, err := h.clients[i].Invoke([]byte(fmt.Sprintf("%s-c%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
	done := func() bool {
		for i, n := range want {
			if h.acked[i] < n {
				return false
			}
		}
		return true
	}
	if err := h.net.RunUntil(done, 5_000_000); err != nil {
		t.Fatalf("wave %s did not complete: %v", tag, err)
	}
}

// openWindow runs until the primary holds a pending request and returns
// the virtual instant its batch window opened.
func (h *batchHarness) openWindow(t *testing.T) time.Duration {
	t.Helper()
	p := h.group.Replicas[0]
	if err := h.net.RunUntil(func() bool { return len(p.pending) > 0 }, 1_000_000); err != nil {
		t.Fatalf("primary never held a pending request: %v", err)
	}
	return h.net.Now()
}

// closeWindow runs until the primary has proposed what it holds and
// returns how long the window was open.
func (h *batchHarness) closeWindow(t *testing.T, opened time.Duration) time.Duration {
	t.Helper()
	p := h.group.Replicas[0]
	if err := h.net.RunUntil(func() bool { return len(p.pending) == 0 }, 1_000_000); err != nil {
		t.Fatalf("primary never proposed its pending requests: %v", err)
	}
	return h.net.Now() - opened
}

// triggers reads every proposal trigger, in the order awaited, idle,
// timer, full.
func (h *batchHarness) triggers() [4]uint64 {
	return [4]uint64{h.proposals("awaited"), h.proposals("idle"), h.proposals("timer"), h.proposals("full")}
}

// TestAwaitedCallersCloseTheWindow: four closed-loop senders under a 50 ms
// BatchWait. Once the primary has answered all four, each wave goes out as
// one batch the moment the last of them asks again, so it completes in a
// few network hops instead of waiting out the window — and costs the same
// messages per request as the same batches closed by the timer, which a
// primary still awaiting a fifth, silent caller falls back to.
func TestAwaitedCallersCloseTheWindow(t *testing.T) {
	const wait, waves = 50 * time.Millisecond, 8 // waves: a multiple of CheckpointInterval
	run := func(phantom bool) float64 {
		h := newBatchHarnessWait(t, 4, 1, 35, 16, 4, wait)
		h.settle(t)
		p := h.group.Replicas[0]
		before := h.net.Stats().MessagesSent
		for w := 0; w < waves; w++ {
			if phantom {
				p.awaited["phantom"] = struct{}{}
			}
			was, start := h.triggers(), h.net.Now()
			h.wave(t, fmt.Sprintf("w%d", w))
			took, now := h.net.Now()-start, h.triggers()
			want := was
			if phantom {
				want[2]++
				if took < wait {
					t.Fatalf("phantom wave %d completed in %v, inside the %v window", w, took, wait)
				}
			} else {
				want[0]++
				if took >= wait/4 {
					t.Fatalf("wave %d completed in %v: it waited on the %v batch timer", w, took, wait)
				}
			}
			if now != want {
				t.Fatalf("wave %d (phantom %v): proposals awaited/idle/timer/full %v -> %v, want %v", w, phantom, was, now, want)
			}
		}
		h.net.Run(1_000_000)
		h.auditOrder(t, true)
		return float64(h.net.Stats().MessagesSent-before) / (4 * waves)
	}
	awaited, timer := run(false), run(true)
	if awaited != timer {
		t.Fatalf("msgs/request %.3f closed by awaited callers, %.3f closed by the timer", awaited, timer)
	}
}

// TestWindowWaitsForEveryAwaitedCaller: only three of the four senders the
// primary answered ask again. The fourth may still come, so their window
// closes on the timer, not before. That proposal stops the primary awaiting
// the silent sender: the three's next wave closes as soon as they have all
// asked again.
func TestWindowWaitsForEveryAwaitedCaller(t *testing.T) {
	const wait = 50 * time.Millisecond
	h := newBatchHarnessWait(t, 4, 1, 36, 16, 4, wait)
	h.settle(t)
	was := h.triggers()
	for i := 0; i < 3; i++ {
		if _, err := h.clients[i].Invoke([]byte(fmt.Sprintf("three-c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if open := h.closeWindow(t, h.openWindow(t)); open < wait {
		t.Fatalf("window closed after %v with a caller still awaited, want the %v timer", open, wait)
	}
	if now, want := h.triggers(), [4]uint64{was[0], was[1], was[2] + 1, was[3]}; now != want {
		t.Fatalf("proposals awaited/idle/timer/full %v -> %v, want %v", was, now, want)
	}
	h.net.Run(1_000_000)

	was, start := h.triggers(), h.net.Now()
	h.waveOf(t, "again", 0, 1, 2)
	if took := h.net.Now() - start; took >= wait/4 {
		t.Fatalf("the three's next wave completed in %v: it waited for the silent sender", took)
	}
	if now, want := h.triggers(), [4]uint64{was[0] + 1, was[1], was[2], was[3]}; now != want {
		t.Fatalf("proposals awaited/idle/timer/full %v -> %v, want %v", was, now, want)
	}
	h.net.Run(1_000_000)
	h.auditOrder(t, true)
}

// TestLeftoverBatchTimerProposesNothing: a window closed by its awaited
// callers leaves its timer running. When that timer fires on an empty
// primary it proposes nothing, and a window opened before it fires runs
// for its own full BatchWait.
func TestLeftoverBatchTimerProposesNothing(t *testing.T) {
	const wait = 50 * time.Millisecond
	h := newBatchHarnessWait(t, 4, 1, 37, 16, 4, wait)
	h.settle(t)
	p := h.group.Replicas[0]

	// Closed by its awaited callers; the leftover timer fires on nothing.
	was := h.triggers()
	h.wave(t, "closed")
	h.net.Run(1_000_000)
	if now, want := h.triggers(), [4]uint64{was[0] + 1, was[1], was[2], was[3]}; now != want {
		t.Fatalf("proposals awaited/idle/timer/full %v -> %v, want %v", was, now, want)
	}
	if p.batchTimerArmed || len(p.pending) != 0 {
		t.Fatalf("after the leftover timer: timer flag %v, %d pending", p.batchTimerArmed, len(p.pending))
	}

	// Closed by its awaited callers again, and three of them ask again at
	// once: their window opens well inside the leftover timer's span, and
	// with a caller still awaited it lasts the whole BatchWait.
	was = h.triggers()
	h.wave(t, "again")
	for i := 0; i < 3; i++ {
		if _, err := h.clients[i].Invoke([]byte(fmt.Sprintf("next-c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if open := h.closeWindow(t, h.openWindow(t)); open < wait {
		t.Fatalf("window opened after an awaited close lasted %v, want the full %v", open, wait)
	}
	if now, want := h.triggers(), [4]uint64{was[0] + 1, was[1], was[2] + 1, was[3]}; now != want {
		t.Fatalf("proposals awaited/idle/timer/full %v -> %v, want %v", was, now, want)
	}
	h.net.Run(1_000_000)
	h.auditOrder(t, true)
}

// TestBackupsAwaitNoOne: after a loaded run only the primary has a set of
// awaited callers, and it holds no more than the callers it answered since
// its last proposal — never more than the senders there are. A view change
// empties it, and in the next view only the new primary awaits anyone.
func TestBackupsAwaitNoOne(t *testing.T) {
	const k = 16
	h := newBatchHarness(t, 4, 1, 38, 16, k)
	onlyPrimaryAwaits := func(primary int) {
		t.Helper()
		for i, r := range h.group.Replicas {
			switch got := len(r.awaited); {
			case i == primary && (got == 0 || got > k):
				t.Errorf("primary %d awaits %d callers after answering all %d senders", i, got, k)
			case i != primary && got != 0:
				t.Errorf("backup %d awaits %d callers", i, got)
			}
		}
	}
	for w := 0; w < 6; w++ {
		h.wave(t, fmt.Sprintf("w%d", w))
	}
	h.net.Run(1_000_000)
	onlyPrimaryAwaits(0)

	for i, r := range h.group.Replicas {
		r.HandleTimer()
		if got := len(r.awaited); got != 0 {
			t.Errorf("replica %d entered the view change awaiting %d callers", i, got)
		}
	}
	h.wave(t, "after")
	h.net.Run(1_000_000)
	onlyPrimaryAwaits(1)
	h.auditOrder(t, true)
}
