package cluster

import (
	"testing"
	"time"

	"itdos/internal/obs"
)

// TestRunLoad drives RunLoad, itdos-load's open-loop generator, through an
// in-process loopback cluster: two clients take overlapping arrivals, so
// completions tally concurrently, and the report must account for every
// offered call — all completed and checked, none failed, each latency in
// the histogram. A tally that never releases its lock hangs the run; the
// test reports that as a failure instead of waiting for the test timeout.
func TestRunLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster; skipped in -short")
	}
	spec := eqSpec()
	spec.Nodes[len(spec.Nodes)-1].Clients = []string{"alice", "bob"}
	cl, err := StartInProc(spec, func(string) NodeOptions { return NodeOptions{} })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const total = 24
	for _, op := range []string{"add", "echo"} {
		hist := obs.NewRegistry().Histogram("lat_ms", LatencyBounds)
		done := make(chan *LoadResult, 1)
		go func() {
			res, err := cl.Nodes["load"].RunLoad(LoadConfig{Rate: 400, Total: total, Op: op,
				Timeout: 10 * time.Second, Seed: 7, Hist: hist, Warmup: true})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		var res *LoadResult
		select {
		case res = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: RunLoad did not return", op)
		}
		if res == nil {
			return
		}
		if res.Offered != total || res.Completed != total || res.Errors != 0 {
			t.Errorf("%s: offered %d, completed %d, %d errors (%s)", op, res.Offered, res.Completed, res.Errors, res.FirstError)
		}
		if hist.Count() != total || res.Elapsed <= 0 || res.Throughput() <= 0 {
			t.Errorf("%s: %d latencies recorded, elapsed %v, %.1f calls/s", op, hist.Count(), res.Elapsed, res.Throughput())
		}
	}
	if _, err := cl.Nodes["node0"].RunLoad(LoadConfig{Rate: 1, Total: 1}); err == nil {
		t.Error("RunLoad on a process hosting no clients did not fail")
	}
}
