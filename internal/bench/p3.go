package bench

import (
	"fmt"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/orb"
	"itdos/internal/replica"
)

// P3 measures the read-only reply fast path (Castro–Liskov, re-derived for
// ITDOS heterogeneity) against the fully ordered baseline. The IDL
// declaration is the switch, so the experiment runs the same workload twice
// and reports the delta.

const p3Iface = "IDL:bench/KV:1.0"

// p3Measure runs one put (warmup, always ordered) then rounds gets against
// an n=4 domain and reports the per-get cost, with the read-only fast path
// on or off.
func p3Measure(fast bool, m *obs.Registry) (p1Point, error) {
	// The IDL declaration is the switch: the "off" row declares get plain.
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(p3Iface).
		Op("put",
			[]idl.Param{{Name: "v", Type: cdr.String}}, nil).
		Define(&idl.Operation{Name: "get", ReadOnly: fast,
			Results: []idl.Param{{Name: "v", Type: cdr.String}}}))
	stores := make([]string, 4)
	sys, err := replica.NewSystem(replica.SystemConfig{
		Seed:     97,
		Latency:  netsim.UniformLatency(time.Millisecond, 3*time.Millisecond),
		Registry: reg,
		Metrics:  m,
		Domains: []replica.DomainSpec{{
			Name: "kv", N: 4, F: 1,
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("kv", p3Iface, orb.ServantFunc(
					func(_ *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
						switch op {
						case "put":
							stores[member] = args[0].(string)
							return nil, nil
						case "get":
							return []cdr.Value{stores[member]}, nil
						}
						return nil, orb.ErrBadOperation
					}))
			},
		}},
		Clients: []replica.ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		return p1Point{}, err
	}
	defer sys.Close()
	ref := orb.ObjectRef{Domain: "kv", ObjectKey: "kv", Interface: p3Iface}
	alice := sys.Client("alice")
	if _, err := alice.CallAndRun(ref, "put", []cdr.Value{p1Payload}, 50_000_000); err != nil {
		return p1Point{}, err
	}
	const rounds = 4
	var latSum time.Duration
	d := snap(sys.Net)
	for i := 0; i < rounds; i++ {
		t0 := sys.Net.Now()
		res, err := alice.CallAndRun(ref, "get", nil, 50_000_000)
		if err != nil {
			return p1Point{}, err
		}
		if res[0].(string) != p1Payload {
			return p1Point{}, fmt.Errorf("P3: wrong value %q", res[0])
		}
		latSum += sys.Net.Now() - t0
	}
	sys.Net.Run(10_000_000)
	return p1Point{
		msgsPerReq:  float64(d.msgs()) / rounds,
		bytesPerReq: float64(d.bytes()) / rounds,
		latency:     latSum / rounds,
	}, nil
}

// P3 measures the read-only fast path: flagged invocations are multicast
// directly to the replicas and decided on 2f+1 matching canonical values,
// bypassing PBFT ordering entirely; writes still order.
func P3() (*Table, error) {
	t := &Table{
		ID:    "P3",
		Title: "Read-only fast path vs ordered invocation (n=4)",
		Source: "Castro–Liskov read-only optimisation; decision on 2f+1 " +
			"canonically equal values",
		Headers: []string{"fast path", "msgs/get", "bytes/get",
			"sim latency/get", "msgs gain"},
		Metrics: obs.NewRegistry(),
	}
	var baseline float64
	for _, fast := range []bool{false, true} {
		pt, err := p3Measure(fast, t.Metrics)
		if err != nil {
			return nil, err
		}
		mode, gain := "off", "baseline"
		if fast {
			mode = "on"
			gain = fmt.Sprintf("%.2fx fewer", baseline/pt.msgsPerReq)
		} else {
			baseline = pt.msgsPerReq
		}
		t.Rows = append(t.Rows, []string{
			mode,
			fmt.Sprintf("%.1f", pt.msgsPerReq),
			fmt.Sprintf("%.0f", pt.bytesPerReq),
			ms(pt.latency),
			gain,
		})
	}
	t.Note = "off, every get pays the full three-phase ordering round before " +
		"execution; on, the client multicasts the flagged request directly to all 4 " +
		"replicas and decides on 2f+1=3 canonically equal replies — one network " +
		"round-trip, no ordering traffic. The voter needs 2f+1 (not f+1) matches " +
		"because unordered reads must intersect every write quorum; on any shortfall " +
		"the client falls back to a fresh ordered invocation."
	return t, nil
}

// CheckP3 fails unless the read-only fast path at n=4 both at least halves
// msgs/get and lowers simulated latency. CI runs it via itdos-bench -check P3.
func CheckP3(minMsgGain float64) error {
	ordered, err := p3Measure(false, nil)
	if err != nil {
		return err
	}
	fast, err := p3Measure(true, nil)
	if err != nil {
		return err
	}
	gain := ordered.msgsPerReq / fast.msgsPerReq
	if gain < minMsgGain {
		return fmt.Errorf("P3 regression: fast-path msgs/get %.1f vs ordered %.1f (%.2fx, want >= %.2fx)",
			fast.msgsPerReq, ordered.msgsPerReq, gain, minMsgGain)
	}
	if fast.latency >= ordered.latency {
		return fmt.Errorf("P3 regression: fast-path latency %s not below ordered %s",
			ms(fast.latency), ms(ordered.latency))
	}
	return nil
}
