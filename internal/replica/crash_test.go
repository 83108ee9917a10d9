package replica

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/netsim"
)

// TestPrimaryCrashTwin is the seeded twin of the repo benchmark's
// primary_crash workload: four clients call a four-element domain in closed
// loops on the deployed cluster's batching and retransmission settings, and
// mid-run every */r0 identity falls silent at once — the view-0 primary of
// the calc group and of the Group Manager, which one killed node hosts — so
// every ordering quorum needs all three survivors. A seed wedges when the
// loops stop completing calls. The sweep runs in virtual time; make campaign
// runs it without -short.
func TestPrimaryCrashTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed sweep (make campaign)")
	}
	var wedged []int64
	for seed := int64(1); seed <= 100; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if !primaryCrashSurvives(t, seed) {
				wedged = append(wedged, seed)
			}
		})
	}
	t.Logf("%d of 100 seeds wedged %v", len(wedged), wedged)
}

// primaryCrashSurvives runs one seed: warm-up calls on every client, the
// crash, then calls until each client has completed its quota or a virtual
// minute has passed.
func primaryCrashSurvives(t *testing.T, seed int64) bool {
	const clients, warm, calls = 4, 5, 40
	ts := newCalcSystem(t, seed, func(cfg *SystemConfig) {
		cfg.Clients = nil
		for i := 0; i < clients; i++ {
			cfg.Clients = append(cfg.Clients, ClientSpec{Name: fmt.Sprintf("load%d", i)})
		}
		cfg.MaxBatch, cfg.BatchWait, cfg.SendTimeout = 16, 2*time.Millisecond, 500*time.Millisecond
	})
	net := ts.sys.Net
	done := make([]int, clients)
	loops := make([]*Async, clients)
	for i := range loops {
		c := ts.sys.Client(fmt.Sprintf("load%d", i))
		loops[i] = c.Go(func() error {
			for done[i] < calls {
				x := float64(i*1000 + done[i])
				res, err := c.Call(calcRef, "add", []cdr.Value{x, 1.0})
				if err != nil {
					return err
				}
				if got := res[0].(float64); got != x+1 {
					return fmt.Errorf("load%d call %d: add returned %v, want %v", i, done[i], got, x+1)
				}
				done[i]++
			}
			return nil
		})
	}
	all := func(n int) func() bool {
		return func() bool {
			for _, d := range done {
				if d < n {
					return false
				}
			}
			return true
		}
	}
	if err := ts.sys.RunUntil(all(warm), 50_000_000); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	net.AddFilter(func(from, to netsim.NodeID, _ []byte) ([]byte, bool) {
		return nil, isR0(from) || isR0(to)
	})
	deadline := net.Now() + time.Minute
	for !all(calls)() && net.Now() < deadline {
		net.RunFor(100 * time.Millisecond)
	}
	for i, a := range loops {
		if a.Done() && a.Err() != nil {
			t.Errorf("load%d: %v", i, a.Err())
		}
	}
	if !all(calls)() {
		t.Errorf("wedged: calls completed per client %v, want %d each", done, calls)
		return false
	}
	return true
}

// isR0 reports whether a network address belongs to a member-0 identity
// ("calc/r0", "gm/r0/tx/calc", ...).
func isR0(id netsim.NodeID) bool {
	parts := strings.Split(string(id), "/")
	return len(parts) > 1 && parts[1] == "r0"
}
