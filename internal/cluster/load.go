package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/obs"
)

// LatencyBounds are the wall-clock latency histogram bucket upper bounds,
// in milliseconds, of cmd/itdos-load's call-latency histogram.
var LatencyBounds = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// LoadConfig parameterises one open-loop run against a client-hosting
// node. The generator issues arrivals on a Poisson process at Rate
// regardless of completions (open loop): every arrival is handed to the
// next client of the node's pool round-robin, and a busy client queues the
// call on its logical thread, so queueing delay under overload shows up in
// the measured latency — exactly what an arrival-rate sweep is after.
type LoadConfig struct {
	// Rate is the offered arrival rate, in calls per second.
	Rate float64
	// Total is the number of arrivals to offer.
	Total int
	// Op is the calculator operation to invoke ("add" or "echo").
	Op string
	// Timeout bounds each call's wall-clock completion.
	Timeout time.Duration
	// Seed drives the arrival process RNG.
	Seed int64
	// Hist, when non-nil, receives each completed call's wall-clock
	// latency in milliseconds. Observations are serialised internally (an
	// obs.Registry is not locked).
	Hist *obs.Histogram
	// Warmup, when set, issues one unmeasured call per client first, so
	// the measured window sees warm Group Manager connections (connection
	// establishment amortisation is C5's claim; a latency sweep should
	// not re-measure it on every client's first call).
	Warmup bool
}

// LoadResult summarises one open-loop run.
type LoadResult struct {
	Offered   int
	Completed int
	// Errors counts calls that failed or timed out, and replies whose
	// decided value was wrong (the voter let a bad answer through).
	Errors int
	// FirstError is a sample failure for diagnostics.
	FirstError string
	// Elapsed is the wall-clock span from first arrival to last completion.
	Elapsed time.Duration
}

// Throughput returns the achieved completion rate in calls per second.
func (r *LoadResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// LocalClients returns the client names this node's process hosts.
func (n *Node) LocalClients() []string {
	for _, nd := range n.Spec.Nodes {
		if nd.Name == n.Process {
			return nd.ClientNames()
		}
	}
	return nil
}

// RunLoad drives one open-loop workload through node's hosted clients and
// blocks until every offered call completed or timed out.
func (n *Node) RunLoad(cfg LoadConfig) (*LoadResult, error) {
	clients := n.LocalClients()
	if len(clients) == 0 {
		return nil, fmt.Errorf("cluster: process %q hosts no clients", n.Process)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("cluster: arrival rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Total <= 0 {
		return nil, fmt.Errorf("cluster: total arrivals must be positive, got %d", cfg.Total)
	}
	if cfg.Op == "" {
		cfg.Op = "add"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	ref := CalcRef(n.Spec.Domain)
	rng := rand.New(rand.NewSource(cfg.Seed))

	if cfg.Warmup {
		var wwg sync.WaitGroup
		for _, client := range clients {
			wwg.Add(1)
			go func(client string) {
				defer wwg.Done()
				args, _ := loadCall(cfg.Op, 0)
				_, _ = n.Call(client, ref, cfg.Op, args, cfg.Timeout)
			}(client)
		}
		wwg.Wait()
	}

	res := &LoadResult{Offered: cfg.Total}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for i := 0; i < cfg.Total; i++ {
		// Poisson arrivals: exponential inter-arrival gaps at rate λ.
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		client := clients[i%len(clients)]
		wg.Add(1)
		go func(i int, client string) {
			defer wg.Done()
			args, check := loadCall(cfg.Op, i)
			t0 := time.Now()
			vals, err := n.Call(client, ref, cfg.Op, args, cfg.Timeout)
			lat := time.Since(t0)
			if err == nil {
				err = check(vals)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.Errors++
				if res.FirstError == "" {
					res.FirstError = fmt.Sprintf("%s on %s: %v", cfg.Op, client, err)
				}
				return
			}
			res.Completed++
			cfg.Hist.Observe(float64(lat.Microseconds()) / 1000)
		}(i, client)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}

// loadCall builds the i-th call's arguments and its reply validator: the
// generator checks decided values, so a voter that lets a wrong answer
// through counts as an error, not a completion.
func loadCall(op string, i int) ([]cdr.Value, func([]cdr.Value) error) {
	switch op {
	case "echo":
		want := fmt.Sprintf("load-%d", i)
		return []cdr.Value{want}, func(vals []cdr.Value) error {
			if len(vals) != 1 || vals[0] != cdr.Value(want) {
				return fmt.Errorf("echo decided %v, want %q", vals, want)
			}
			return nil
		}
	default: // add
		a, b := float64(i), float64(2*i+1)
		return []cdr.Value{a, b}, func(vals []cdr.Value) error {
			if len(vals) != 1 || vals[0] != cdr.Value(a+b) {
				return fmt.Errorf("add decided %v, want %g", vals, a+b)
			}
			return nil
		}
	}
}
