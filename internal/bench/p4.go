package bench

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/orb"
	"itdos/internal/replica"
	"itdos/internal/seckey"
	"itdos/internal/smiop"
)

// P4 and P5 pin the zero-copy tentpole. P4 measures the seal chain in
// isolation — SealGIOPWire over an AppendReply closure — in real
// allocations per sealed reply, via the Go benchmark harness, against the
// recorded cost of the copying pipeline it replaced. P5 measures tentative
// execution end to end: simulated latency of a call decided from 2f+1
// matching tentative replies against the committed baseline, plus the
// lying-replica fallback row.

// p4Conn builds one server-side member connection of an n=4 domain toward
// a singleton client — the element→client reply shape the seal chain runs
// on in production.
func p4Conn() (*smiop.Connection, error) {
	var k seckey.Key
	for i := range k {
		k[i] = 3
	}
	local := smiop.PeerInfo{Name: "bank", N: 4, F: 1}
	peer := smiop.PeerInfo{Name: "client", N: 1, F: 0}
	return smiop.NewConnection(11, local, 2, peer, k)
}

type p4Point struct {
	allocs int64 // heap allocations per sealed reply
	allocB int64 // heap bytes per sealed reply
}

// p4Copying is the copying pipeline (EncodeReply, a SignedPayload encoding,
// one seal and one Envelope.Encode per fragment) by payload size: recorded
// at 4aeb63d, path since deleted. It produced the same wire bytes
// (internal/smiop/testdata/wire_golden.json was generated from it), so the
// difference to the pooled chain is purely buffer management.
var p4Copying = map[int]p4Point{
	512:      {allocs: 24, allocB: 5288},
	4 << 10:  {allocs: 23, allocB: 25384},
	64 << 10: {allocs: 59, allocB: 373016},
}

// p4Measure runs the seal chain under the benchmark harness and reports
// allocations per operation.
func p4Measure(size int) (p4Point, error) {
	conn, err := p4Conn()
	if err != nil {
		return p4Point{}, err
	}
	rep := &giop.Reply{RequestID: 7, Status: giop.StatusNoException,
		Body: make([]byte, size)}
	sign := func(msg []byte) []byte {
		sum := sha256.Sum256(msg)
		return sum[:]
	}
	var sink int
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frames, err := conn.SealGIOPWire(uint64(i+1), true, func(dst []byte) []byte {
				return giop.AppendReply(dst, cdr.BigEndian, rep)
			}, sign, 0)
			if err != nil {
				benchErr = err
				return
			}
			for _, f := range frames {
				sink += len(f.B)
			}
			smiop.ReleaseFrames(frames)
		}
	})
	if benchErr != nil {
		return p4Point{}, benchErr
	}
	if sink == 0 {
		return p4Point{}, fmt.Errorf("P4: sealed zero bytes")
	}
	return p4Point{allocs: res.AllocsPerOp(), allocB: res.AllocedBytesPerOp()}, nil
}

// P4 measures what the pooled pipeline buys on the reply hot path: the
// copying chain materialised the GIOP message, the signed payload, each
// envelope, and each wire image as separate heap blocks, while the pooled
// chain encodes once at final payload offset and slices fragments out of
// recycled arenas.
func P4() (*Table, error) {
	t := &Table{
		ID:    "P4",
		Title: "Seal-chain heap cost: pooled zero-copy vs copying pipeline",
		Source: "tentpole refactor — marshal→sign→seal→fragment fused over " +
			"pooled buffers; wire bytes pinned identical to the legacy chain",
		Headers: []string{"payload", "pipeline", "allocs/req", "alloc B/req",
			"allocs gain"},
		Metrics: obs.NewRegistry(),
	}
	for _, size := range []int{512, 4 << 10, 64 << 10} {
		was := p4Copying[size]
		pt, err := p4Measure(size)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows,
			[]string{fmt.Sprintf("%d B", size), "copying (recorded)",
				fmt.Sprintf("%d", was.allocs), fmt.Sprintf("%d", was.allocB), "baseline"},
			[]string{fmt.Sprintf("%d B", size), "pooled",
				fmt.Sprintf("%d", pt.allocs), fmt.Sprintf("%d", pt.allocB),
				fmt.Sprintf("%.2fx fewer", float64(was.allocs)/float64(pt.allocs))})
	}
	t.Note = "allocs/req counts every heap block the chain touches per sealed " +
		"reply, measured by the Go benchmark harness over the real connection " +
		"code. The copying rows were recorded at 4aeb63d, the last commit that " +
		"had that chain: it paid one block per stage (GIOP bytes, signed " +
		"payload, per-fragment seal, per-fragment wire image); the pooled chain " +
		"encodes the GIOP message directly into a recycled arena at its final " +
		"offset, seals in place, and slices fragments without copying, so its " +
		"per-request allocations stay near-constant as payloads grow."
	return t, nil
}

// CheckP4 re-runs the headline cell of P4 and fails unless the pooled
// chain stays at least minGain below the copying chain's recorded
// allocations per sealed 4 KiB reply. CI runs it via itdos-bench -check P4.
func CheckP4(minGain float64) error {
	const size = 4 << 10
	was := p4Copying[size]
	pooled, err := p4Measure(size)
	if err != nil {
		return err
	}
	gain := float64(was.allocs) / float64(pooled.allocs)
	if gain < minGain {
		return fmt.Errorf("P4 regression: pooled seal chain %d allocs/req vs copying %d (recorded) at 4 KiB (%.2fx, want >= %.2fx)",
			pooled.allocs, was.allocs, gain, minGain)
	}
	return nil
}

const p5Iface = "IDL:bench/Adder:1.0"

type p5Point struct {
	msgsPerCall float64
	latency     time.Duration
	fallbacks   uint64
	tentExecs   uint64
}

// p5Measure runs rounds of ordered adds against an n=4 domain and reports
// the per-call cost. With tentative on, replicas execute at the prepared
// point and the client decides on 2f+1 matching tentative replies — one
// virtual commit round earlier. With adversarial set, one replica lies and
// another is silenced toward the client, so the tentative quorum cannot
// form and the call must fall back to the committed f+1 vote.
func p5Measure(tentative, adversarial bool, m *obs.Registry) (p5Point, error) {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(p5Iface).
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}))
	if m == nil {
		m = obs.NewRegistry()
	}
	// Fixed latency keeps every replica in lockstep, so the tentative
	// saving reads as an exact number of virtual network rounds instead of
	// an order statistic over jittered reply arrivals (tentative decides on
	// the 3rd-fastest of 4 replies, committed on the 2nd-fastest).
	sys, err := replica.NewSystem(replica.SystemConfig{
		Seed:               41,
		Latency:            netsim.UniformLatency(2*time.Millisecond, 2*time.Millisecond),
		Registry:           reg,
		Metrics:            m,
		TentativeExecution: tentative,
		Domains: []replica.DomainSpec{{
			Name: "acc", N: 4, F: 1,
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("acc", p5Iface, orb.ServantFunc(
					func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
						return []cdr.Value{args[0].(float64) + args[1].(float64)}, nil
					}))
			},
		}},
		Clients: []replica.ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		return p5Point{}, err
	}
	defer sys.Close()
	ref := orb.ObjectRef{Domain: "acc", ObjectKey: "acc", Interface: p5Iface}
	alice := sys.Client("alice")
	// Warm call: connection establishment and the first checkpoint stay
	// out of the per-call numbers.
	if _, err := alice.CallAndRun(ref, "add", []cdr.Value{1.0, 1.0}, 50_000_000); err != nil {
		return p5Point{}, err
	}
	if adversarial {
		evil := orb.ServantFunc(func(_ *orb.CallContext, _ string, _ []cdr.Value) ([]cdr.Value, error) {
			return []cdr.Value{666.0}, nil
		})
		if err := sys.Domain("acc").Elements[2].Adapter.Register("acc", p5Iface, evil); err != nil {
			return p5Point{}, err
		}
		sys.Net.AddFilter(func(from, to netsim.NodeID, _ []byte) ([]byte, bool) {
			// Silence replica 3 toward the client; ordering traffic flows.
			drop := string(from) == "acc/r3" && string(to) == "alice/inbox"
			return nil, drop
		})
	}
	const rounds = 4
	var latSum time.Duration
	d := snap(sys.Net)
	for i := 0; i < rounds; i++ {
		// Think time between calls: a tentative decision lands before the
		// batch's commit round finishes, and the ordering layer admits one
		// outstanding request per sender — a back-to-back send would queue
		// behind the previous call's in-flight commit traffic and hide the
		// saving the client just realised.
		sys.Net.Run(10_000_000)
		a, b := float64(i), float64(i+2)
		t0 := sys.Net.Now()
		res, err := alice.CallAndRun(ref, "add", []cdr.Value{a, b}, 200_000_000)
		if err != nil {
			return p5Point{}, err
		}
		if got := res[0].(float64); got != a+b {
			return p5Point{}, fmt.Errorf("P5: add(%v,%v) = %v", a, b, got)
		}
		latSum += sys.Net.Now() - t0
	}
	sys.Net.Run(10_000_000)
	pt := p5Point{
		msgsPerCall: float64(d.msgs()) / rounds,
		latency:     latSum / rounds,
		tentExecs:   m.Counter("pbft_tentative_execs_total", "group=acc").Value(),
	}
	if id, ok := alice.ConnTo("acc"); ok {
		pt.fallbacks = m.Counter("smiop_reply_fallback_total",
			fmt.Sprintf("conn=%d", id)).Value()
	}
	return pt, nil
}

// P5 measures tentative execution (Castro–Liskov): replicas execute at the
// prepared point and reply flagged tentative; the client accepts 2f+1
// matching tentative replies without waiting for the commit phase, and on
// any shortfall falls back to the committed f+1 vote under the same
// request id.
func P5() (*Table, error) {
	t := &Table{
		ID:    "P5",
		Title: "Tentative execution: reply latency vs the committed baseline (n=4)",
		Source: "Castro–Liskov tentative execution; acceptance on 2f+1 " +
			"matching tentative replies, committed f+1 fallback",
		Headers: []string{"mode", "msgs/call", "sim latency/call",
			"fallbacks", "latency gain"},
		Metrics: obs.NewRegistry(),
	}
	committed, err := p5Measure(false, false, t.Metrics)
	if err != nil {
		return nil, err
	}
	tent, err := p5Measure(true, false, t.Metrics)
	if err != nil {
		return nil, err
	}
	if tent.tentExecs == 0 {
		return nil, fmt.Errorf("P5: no speculative executions recorded with tentative on")
	}
	adv, err := p5Measure(true, true, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	if adv.fallbacks == 0 {
		return nil, fmt.Errorf("P5: lying-replica row decided without a fallback")
	}
	for _, row := range []struct {
		mode string
		pt   p5Point
		gain string
	}{
		{"committed", committed, "baseline"},
		{"tentative", tent, fmt.Sprintf("-%s", ms(committed.latency-tent.latency))},
		{"tentative + liar", adv, "fallback path"},
	} {
		t.Rows = append(t.Rows, []string{
			row.mode,
			fmt.Sprintf("%.1f", row.pt.msgsPerCall),
			ms(row.pt.latency),
			fmt.Sprintf("%d", row.pt.fallbacks),
			row.gain,
		})
	}
	t.Note = "committed mode replies only after the three-phase commit; tentative " +
		"mode executes speculatively once a request is prepared and the client " +
		"accepts 2f+1=3 matching tentative replies, saving the commit round on the " +
		"reply path. The liar row replaces one servant with a lying one and " +
		"silences a second replica toward the client: the tentative quorum cannot " +
		"form, the timeout retries the same request id on the committed vote " +
		"(answered from reply caches, so execution stays at-most-once), and the " +
		"honest value wins. Checkpoint-boundary sequence numbers are never " +
		"speculated, so checkpoints always snapshot exactly-committed state."
	return t, nil
}

// CheckP5 re-runs P5's headline comparison and fails unless tentative
// acceptance lands at least minSaving of simulated time before the
// committed baseline — one virtual network round at the configured
// minimum latency — and the lying-replica row still falls back cleanly.
// CI runs it via itdos-bench -check P5.
func CheckP5(minSaving time.Duration) error {
	committed, err := p5Measure(false, false, nil)
	if err != nil {
		return err
	}
	tent, err := p5Measure(true, false, nil)
	if err != nil {
		return err
	}
	saving := committed.latency - tent.latency
	if saving < minSaving {
		return fmt.Errorf("P5 regression: tentative latency %s vs committed %s saves %s (want >= %s)",
			ms(tent.latency), ms(committed.latency), ms(saving), ms(minSaving))
	}
	if tent.fallbacks != 0 {
		return fmt.Errorf("P5 regression: %d fallbacks on the happy path", tent.fallbacks)
	}
	adv, err := p5Measure(true, true, nil)
	if err != nil {
		return err
	}
	if adv.fallbacks == 0 {
		return fmt.Errorf("P5 regression: lying-replica row decided without a committed fallback")
	}
	return nil
}
