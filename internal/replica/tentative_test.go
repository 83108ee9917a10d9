package replica

import (
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/netsim"
	"itdos/internal/orb"
)

// TestTentativeExecutionHappyPath: with speculation on, every call decides
// from 2f+1 matching tentative replies — no fallback — and ordered
// execution still happens exactly once on every replica.
func TestTentativeExecutionHappyPath(t *testing.T) {
	ts := newKVSystem(t, 41, func(cfg *SystemConfig) { cfg.TentativeExecution = true })
	alice := ts.sys.Client("alice")
	const calls = 3
	for i := 0; i < calls; i++ {
		res, err := alice.CallAndRun(kvRef, "add",
			[]cdr.Value{float64(i), float64(i + 1)}, 5_000_000)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := res[0].(float64); got != float64(2*i+1) {
			t.Fatalf("call %d: result %v", i, got)
		}
	}
	ts.sys.Net.Run(1_000_000)
	for i, s := range ts.servants {
		if s.mutations != calls {
			t.Errorf("replica %d executed %d calls, want %d", i, s.mutations, calls)
		}
	}
	if got := ts.metrics.Counter("tentative_replies_armed_total").Value(); got != calls {
		t.Errorf("armed = %d, want %d", got, calls)
	}
	if got := ts.metrics.Counter("pbft_tentative_execs_total", "group=kv").Value(); got == 0 {
		t.Error("no speculative executions recorded in the ordering layer")
	}
	if got := ts.metrics.Counter("pbft_tentative_rollbacks_total", "group=kv").Value(); got != 0 {
		t.Errorf("rollbacks = %d, want 0 on the happy path", got)
	}
	if got := ts.metrics.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
	if len(alice.FaultEvents) != 0 {
		t.Errorf("fault events filed on the happy path: %+v", alice.FaultEvents)
	}
}

// TestTentativeLyingReplicaFallsBack is the P5 failure scenario: one
// replica lies and another is silent toward the client, so the 2f+1
// tentative quorum cannot form. The timeout falls the call back to the
// committed f+1 vote under the same request id — answered from reply
// caches, so execution stays at-most-once — and the honest value wins.
func TestTentativeLyingReplicaFallsBack(t *testing.T) {
	ts := newKVSystem(t, 42, func(cfg *SystemConfig) { cfg.TentativeExecution = true })
	alice := ts.sys.Client("alice")
	// Warm call: establishes the connection before the filter goes up.
	if _, err := alice.CallAndRun(kvRef, "add", []cdr.Value{1.0, 1.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	evil := orb.ServantFunc(func(_ *orb.CallContext, _ string, _ []cdr.Value) ([]cdr.Value, error) {
		return []cdr.Value{666.0}, nil
	})
	if err := ts.sys.Domain("kv").Elements[2].Adapter.Register("kv", kvIface, evil); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.AddFilter(func(from, to netsim.NodeID, _ []byte) ([]byte, bool) {
		if string(from) == "kv/r3" && string(to) == clientInboxAddr("alice") {
			return nil, true // silence replica 3 toward the client
		}
		return nil, false
	})
	res, err := alice.CallAndRun(kvRef, "add", []cdr.Value{2.0, 3.0}, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); got != 5.0 {
		t.Fatalf("lying replica's value won: %v", got)
	}
	if got := ts.metrics.Counter("smiop_reply_fallback_total", ts.connLabel(t, "alice")).Value(); got == 0 {
		t.Error("no fallback recorded despite a broken tentative quorum")
	}
	// Exactly-once held through the fallback: the retried id was answered
	// from caches, not re-executed.
	for i, s := range ts.servants {
		if i == 2 {
			continue // replaced by the liar
		}
		if s.mutations != 2 {
			t.Errorf("replica %d executed %d calls, want 2", i, s.mutations)
		}
	}
}
