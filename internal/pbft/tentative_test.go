package pbft

import (
	"fmt"
	"testing"
	"time"

	"itdos/internal/netsim"
)

// newTentativeHarness mirrors newHarness with speculation enabled and hooks
// installed to observe tentative executions and rollbacks.
func newTentativeHarness(t *testing.T, n, f int, seed int64) (*harness, *tentProbe) {
	t.Helper()
	net := netsim.NewNetwork(seed, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
	ring := NewKeyring()
	apps := make([]*logApp, n)
	group, err := NewSimGroup(net, "grp", Config{
		N: n, F: f,
		CheckpointInterval: 4,
		ViewTimeout:        200 * time.Millisecond,
		TentativeExecution: true,
	}, ring, testSeed, func(i int) App {
		apps[i] = &logApp{}
		return apps[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := &tentProbe{}
	for _, rep := range group.Replicas {
		rep.OnTentativeExecute = func(seq uint64, _ *Request, _ []byte) {
			probe.execs = append(probe.execs, seq)
		}
		rep.OnTentativeRollback = func(lastExec uint64) {
			probe.rollbacks++
		}
	}
	h := &harness{net: net, group: group, apps: apps, ring: ring,
		results: make(map[uint64][]byte)}
	cli, err := group.NewSimClient("client:test", "client/test", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cli.OnResult = func(seq uint64, result []byte) {
		h.results[seq] = append([]byte(nil), result...)
	}
	h.client = cli
	return h, probe
}

type tentProbe struct {
	execs     []uint64 // sequences speculatively executed, across replicas
	rollbacks int
}

// Normal operation with speculation on: replicas execute tentatively at
// prepared, the commit confirms the journal, and nothing runs twice.
func TestTentativeSpeculationExecutesOnce(t *testing.T) {
	h, probe := newTentativeHarness(t, 4, 1, 21)
	for i := 0; i < 10; i++ {
		h.invoke(t, []byte(fmt.Sprintf("op-%d", i)))
	}
	h.net.Run(1_000_000)
	h.auditOrder(t, true)
	for i, a := range h.apps {
		if len(a.ops) != 10 {
			t.Fatalf("replica %d executed %d ops, want 10 (journal confirm must not re-execute)", i, len(a.ops))
		}
	}
	if len(probe.execs) == 0 {
		t.Fatal("no tentative executions observed with TentativeExecution on")
	}
	if probe.rollbacks != 0 {
		t.Fatalf("%d rollbacks during failure-free operation", probe.rollbacks)
	}
}

// The checkpoint boundary rule: a sequence that is 0 mod CheckpointInterval
// must never execute tentatively, so checkpoint snapshots always capture
// exactly-committed state.
func TestTentativeHoldsAtCheckpointBoundary(t *testing.T) {
	h, probe := newTentativeHarness(t, 4, 1, 22)
	for i := 0; i < 9; i++ { // crosses boundaries at seq 4 and 8
		h.invoke(t, []byte(fmt.Sprintf("op-%d", i)))
	}
	h.net.Run(1_000_000)
	for _, seq := range probe.execs {
		if seq%4 == 0 {
			t.Fatalf("sequence %d speculated across a checkpoint boundary", seq)
		}
	}
	if len(probe.execs) == 0 {
		t.Fatal("no tentative executions observed")
	}
	h.auditOrder(t, true)
	for i, rep := range h.group.Replicas {
		if rep.StableCheckpoint() < 4 {
			t.Errorf("replica %d stable checkpoint = %d, want >= 4", i, rep.StableCheckpoint())
		}
	}
}

// A view change while batches are prepared-but-uncommitted must roll the
// speculative suffix back; the new view re-proposes the prepared batches
// and every replica converges on exactly-once execution.
func TestTentativeRollbackOnViewChange(t *testing.T) {
	h, probe := newTentativeHarness(t, 4, 1, 23)
	h.invoke(t, []byte("committed"))

	// Suppress every view-0 commit: batches prepare (and speculate)
	// everywhere but cannot commit until the view changes.
	h.net.AddFilter(func(from, to netsim.NodeID, payload []byte) ([]byte, bool) {
		m, err := Decode(payload)
		if err != nil {
			return nil, false
		}
		if c, ok := m.(*Commit); ok && c.View == 0 {
			return nil, true
		}
		return nil, false
	})
	seq, err := h.client.Invoke([]byte("speculated"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.net.RunUntil(func() bool {
		_, ok := h.results[seq]
		return ok
	}, 5_000_000); err != nil {
		t.Fatalf("invocation did not survive the view change: %v", err)
	}
	if probe.rollbacks == 0 {
		t.Fatal("no rollback observed despite a view change over speculated state")
	}
	h.net.ClearFilters()
	h.invoke(t, []byte("after"))
	h.net.Run(1_000_000)
	h.auditOrder(t, false)
	// Each live replica that reached the end executed every op exactly once:
	// rollback + re-proposal must not duplicate the speculated op.
	for i, a := range h.apps {
		if len(a.ops) == 3 {
			continue
		}
		if v := h.group.Replicas[i].View(); v > 0 && len(a.ops) > 3 {
			t.Errorf("replica %d executed %d ops, want <= 3", i, len(a.ops))
		}
	}
}

// Speculation must respect at-most-once: a retransmitted request that was
// already speculated is not executed again, and the committed reply matches.
func TestTentativeAtMostOnceUnderRetransmission(t *testing.T) {
	h, _ := newTentativeHarness(t, 4, 1, 24)
	// Drop the client's first transmission so its retransmission timer
	// re-broadcasts the same request while replicas may hold it speculated.
	dropFirst := true
	h.net.AddFilter(func(from, to netsim.NodeID, payload []byte) ([]byte, bool) {
		if dropFirst && from == "client/test" {
			dropFirst = false
			return nil, true
		}
		return nil, false
	})
	h.invoke(t, []byte("op-a"))
	h.invoke(t, []byte("op-b"))
	h.net.Run(1_000_000)
	h.auditOrder(t, true)
	for i, a := range h.apps {
		if len(a.ops) != 2 {
			t.Fatalf("replica %d executed %d ops, want 2", i, len(a.ops))
		}
	}
}

// Recovery wipes speculative state: a replica that recovers mid-speculation
// must come back with a clean journal and re-converge.
func TestTentativeSurvivesRecovery(t *testing.T) {
	h, _ := newTentativeHarness(t, 4, 1, 25)
	for i := 0; i < 5; i++ {
		h.invoke(t, []byte(fmt.Sprintf("op-%d", i)))
	}
	h.group.Replicas[2].Recover()
	for i := 5; i < 10; i++ {
		h.invoke(t, []byte(fmt.Sprintf("op-%d", i)))
	}
	h.net.Run(3_000_000)
	h.auditOrder(t, false)
	if got := h.group.Replicas[2].LastExecuted(); got < 8 {
		t.Fatalf("recovered replica lastExec = %d, want >= 8", got)
	}
}
