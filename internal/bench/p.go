package bench

import (
	"fmt"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/pbft"
	"itdos/internal/srm"
)

// p1Payload matches the C1 request payload so per-request byte costs are
// comparable across the two experiments.
const p1Payload = "payload-of-a-realistic-size-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxx"

// p1Point is one measured (k, MaxBatch) cell of the P1 sweep.
type p1Point struct {
	msgsPerReq  float64
	bytesPerReq float64
	latency     time.Duration
}

// p1Measure drives k concurrent senders against an n=4 ordering group and
// reports the amortised per-request protocol cost. Load arrives in
// synchronised waves: all k senders invoke at the same virtual instant,
// and the wave completes when every sender has its f+1 acknowledgement —
// the paper's "heavy traffic" shape in its most reproducible form.
func p1Measure(k, maxBatch int, m *obs.Registry) (p1Point, error) {
	// Same seed for both MaxBatch columns of a given k: identical arrival
	// schedules, so the cost difference is purely the protocol's.
	net := netsim.NewNetwork(int64(40+k), netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
	ring := pbft.NewKeyring()
	dom, err := srm.NewDomain(net, srm.DomainConfig{
		Name: "grp", N: 4, F: 1, ViewTimeout: 500 * time.Millisecond,
		MaxBatch: maxBatch, Ring: ring, Metrics: m,
	})
	if err != nil {
		return p1Point{}, err
	}
	acks := 0
	measuring := false
	var waveStart time.Duration
	var latSum time.Duration
	latN := 0
	// k independent senders, each a PBFT client with one request in flight:
	// concurrency is a pool of clients, as a multi-threaded ORB endpoint
	// would look to the ordering layer.
	senders := make([]*srm.Sender, k)
	for i := range senders {
		s, err := srm.NewSender(dom, fmt.Sprintf("bench-client-%d", i), fmt.Sprintf("bench/tx/%d", i), ring, 200*time.Millisecond)
		if err != nil {
			return p1Point{}, err
		}
		s.OnAck = func(uint64) {
			acks++
			if measuring {
				latSum += net.Now() - waveStart
				latN++
			}
		}
		senders[i] = s
	}
	wave := func() error {
		waveStart = net.Now()
		want := acks + k
		for _, s := range senders {
			if _, err := s.Send([]byte(p1Payload)); err != nil {
				return err
			}
		}
		return net.RunUntil(func() bool { return acks >= want }, 5_000_000)
	}
	// One warmup wave, then measure.
	if err := wave(); err != nil {
		return p1Point{}, err
	}
	const rounds = 4
	measuring = true
	d := snap(net)
	for i := 0; i < rounds; i++ {
		if err := wave(); err != nil {
			return p1Point{}, err
		}
	}
	reqs := float64(rounds * k)
	return p1Point{
		msgsPerReq:  float64(d.msgs()) / reqs,
		bytesPerReq: float64(d.bytes()) / reqs,
		latency:     latSum / time.Duration(latN),
	}, nil
}

// p1Batches is the batching column of the sweep; index 0 is the unbatched
// baseline the gain is computed against.
var p1Batches = []int{1, 16}

// P1 measures offered load vs amortised ordering cost: the request-batching
// extension of the paper's §3.2 cost model. With MaxBatch=1 every concurrent
// request pays its own quadratic prepare/commit round (per-request cost is
// flat in k); with batching the primary folds each arrival wave into one
// agreement round and the per-request cost collapses toward the floor of
// 1 request + n replies + round-cost/batch.
func P1() (*Table, error) {
	t := &Table{
		ID:     "P1",
		Title:  "Offered load vs amortised ordering cost (request batching)",
		Source: "claim §3.2 (ordering cost), Castro–Liskov batching",
		Headers: []string{"k concurrent", "max batch", "msgs/request",
			"bytes/request", "sim latency/request", "msgs amortisation"},
		Metrics: obs.NewRegistry(),
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		var baseline float64
		for _, mb := range p1Batches {
			pt, err := p1Measure(k, mb, t.Metrics)
			if err != nil {
				return nil, err
			}
			gain := "baseline"
			if mb == 1 {
				baseline = pt.msgsPerReq
			} else {
				gain = fmt.Sprintf("%.2fx fewer", baseline/pt.msgsPerReq)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", k), fmt.Sprintf("%d", mb),
				fmt.Sprintf("%.1f", pt.msgsPerReq),
				fmt.Sprintf("%.0f", pt.bytesPerReq),
				ms(pt.latency),
				gain,
			})
		}
	}
	t.Note = "unbatched, per-request cost is flat in k (every request pays a full " +
		"three-phase round: the C1 n=4 cost); with MaxBatch=16 the primary coalesces " +
		"each arrival wave into one pre-prepare, so prepare/commit traffic amortises " +
		"across the batch and msgs/request approaches the 1-request+4-replies floor. " +
		"Batching sharpens, not contradicts, the paper's super-linear group-size " +
		"penalty: the quadratic term is paid per round, so the fix is fewer rounds. " +
		"The batch wait is load-adaptive: an idle primary whose last batch held at " +
		"most one request proposes at once, so k=1 pays the unbatched latency and " +
		"k=2 (each window closes on a lone request) does not coalesce; from k=4 " +
		"the primary stays on the BatchWait timer."
	return t, nil
}

// CheckP1 re-runs the headline cell of P1 and returns an error unless
// batching beats the unbatched baseline at k=16 by at least minGain, and
// the k=1 cell unless a lone sender pays no batch wait. CI runs it (via
// itdos-bench -check P1) so both are guarded per commit.
func CheckP1(minGain float64) error {
	unbatched, err := p1Measure(16, 1, nil)
	if err != nil {
		return err
	}
	batched, err := p1Measure(16, 16, nil)
	if err != nil {
		return err
	}
	gain := unbatched.msgsPerReq / batched.msgsPerReq
	if gain < minGain {
		return fmt.Errorf("P1 regression: batched msgs/request %.1f vs unbatched %.1f at k=16 (%.2fx, want >= %.2fx)",
			batched.msgsPerReq, unbatched.msgsPerReq, gain, minGain)
	}
	loneUnbatched, err := p1Measure(1, 1, nil)
	if err != nil {
		return err
	}
	loneBatched, err := p1Measure(1, 16, nil)
	if err != nil {
		return err
	}
	if loneBatched.latency > loneUnbatched.latency {
		return fmt.Errorf("P1 regression: k=1 latency %s batched vs %s unbatched (an idle primary waited on the batch timer)",
			ms(loneBatched.latency), ms(loneUnbatched.latency))
	}
	return nil
}
