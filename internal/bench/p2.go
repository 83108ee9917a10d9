package bench

import (
	"fmt"
	"strings"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/orb"
	"itdos/internal/replica"
)

// P2 and P3 measure the reply-channel fast paths (Castro–Liskov, re-derived
// for ITDOS heterogeneity): P2 the canonical-digest reply protocol against
// the X1 large-object workload, P3 the unordered read-only path against the
// fully ordered baseline. Both features are off by default, so each
// experiment runs the same workload twice and reports the delta.

const p2Iface = "IDL:bench/Blob:1.0"

type p2Point struct {
	msgs    uint64
	bytes   uint64
	latency time.Duration
}

// p2Measure fetches one size-byte object through an n=4 domain and reports
// the wire cost of the call, with digest replies on or off. The same seed
// drives both modes so the cost difference is purely the protocol's.
func p2Measure(size int, digest bool, m *obs.Registry) (p2Point, error) {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(p2Iface).
		Op("fetch",
			[]idl.Param{{Name: "size", Type: cdr.Long}},
			[]idl.Param{{Name: "blob", Type: cdr.String}}))
	sys, err := replica.NewSystem(replica.SystemConfig{
		Seed:          int64(90 + size>>12),
		Latency:       netsim.UniformLatency(time.Millisecond, 2*time.Millisecond),
		Registry:      reg,
		Metrics:       m,
		DigestReplies: digest,
		Domains: []replica.DomainSpec{{
			Name: "blob", N: 4, F: 1,
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("blob", p2Iface, orb.ServantFunc(
					func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
						n := int(args[0].(int32))
						return []cdr.Value{strings.Repeat("b", n)}, nil
					}))
			},
		}},
		Clients: []replica.ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		return p2Point{}, err
	}
	defer sys.Close()
	ref := orb.ObjectRef{Domain: "blob", ObjectKey: "blob", Interface: p2Iface}
	alice := sys.Client("alice")
	// Warm the connection so establishment cost stays out of the delta.
	if _, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(16)}, 50_000_000); err != nil {
		return p2Point{}, err
	}
	d := snap(sys.Net)
	res, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(size)}, 200_000_000)
	if err != nil {
		return p2Point{}, err
	}
	if len(res[0].(string)) != size {
		return p2Point{}, fmt.Errorf("P2: size mismatch")
	}
	lat := d.elapsed()
	// Drain in-flight stragglers (the client decides at f+1 digests, the
	// rest are already on the wire) so bytes/call counts the whole cost.
	sys.Net.Run(10_000_000)
	return p2Point{msgs: d.msgs(), bytes: d.bytes(), latency: lat}, nil
}

// P2 measures the canonical-digest reply protocol on the X1 large-object
// workload: with digests on, one designated responder returns the full
// sealed reply and the other 3f replicas return a 32-byte canonical digest,
// so the reply channel's bandwidth stops scaling with n for large objects.
func P2() (*Table, error) {
	t := &Table{
		ID:    "P2",
		Title: "Digest replies on the large-object workload",
		Source: "Castro–Liskov digest replies over canonical CDR " +
			"(paper §3.6 heterogeneity makes raw-byte digests unsound)",
		Headers: []string{"object size", "digest replies", "msgs/call",
			"bytes/call", "sim latency", "bytes gain"},
		Metrics: obs.NewRegistry(),
	}
	for _, size := range []int{4 << 10, 64 << 10, 256 << 10} {
		var baseline float64
		for _, digest := range []bool{false, true} {
			pt, err := p2Measure(size, digest, t.Metrics)
			if err != nil {
				return nil, err
			}
			mode, gain := "off", "baseline"
			if digest {
				mode = "on"
				gain = fmt.Sprintf("%.2fx fewer", baseline/float64(pt.bytes))
			} else {
				baseline = float64(pt.bytes)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d KiB", size>>10), mode,
				fmt.Sprintf("%d", pt.msgs),
				fmt.Sprintf("%d", pt.bytes),
				ms(pt.latency),
				gain,
			})
		}
	}
	t.Note = "with digests off, all 4 replicas return the full fragmented reply (X1's " +
		"~5x wire expansion); with digests on, only the designated responder does and " +
		"the other three send one 32-byte canonical digest each, so bytes/call " +
		"approaches the single-copy floor as objects grow. The digest is over the " +
		"canonical CDR re-marshalling of the reply values, not the reply bytes — " +
		"heterogeneous encodings (§3.6) would never byte-match. Latency is unchanged: " +
		"the voter still waits for the full reply plus f matching digests."
	return t, nil
}

// CheckP2 re-runs the headline cell of P2 and fails unless digest replies
// cut bytes/call on the 256 KiB workload by at least minGain. CI runs it
// via itdos-bench -check P2.
func CheckP2(minGain float64) error {
	const size = 256 << 10
	full, err := p2Measure(size, false, nil)
	if err != nil {
		return err
	}
	dig, err := p2Measure(size, true, nil)
	if err != nil {
		return err
	}
	gain := float64(full.bytes) / float64(dig.bytes)
	if gain < minGain {
		return fmt.Errorf("P2 regression: digest-mode bytes/call %d vs full %d at 256 KiB (%.2fx, want >= %.2fx)",
			dig.bytes, full.bytes, gain, minGain)
	}
	return nil
}

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
