// Root benchmarks: one per experiment table (see DESIGN.md §3 and
// EXPERIMENTS.md) plus micro-benchmarks for the layers of the Figure-2
// stack. Wall-clock numbers measure this implementation on the simulator;
// the msgs/op metrics are the protocol-level quantities the tables report.
package itdos_test

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/dprf"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/orb"
	"itdos/internal/pbft"
	"itdos/internal/replica"
	"itdos/internal/seckey"
	"itdos/internal/srm"
	"itdos/internal/vote"
)

// --- layer micro-benchmarks (Figure 2 stack, bottom-up) ---

var benchTC = cdr.StructOf("Payload",
	cdr.Member{Name: "id", Type: cdr.ULongLong},
	cdr.Member{Name: "xs", Type: cdr.SequenceOf(cdr.Double)},
	cdr.Member{Name: "tag", Type: cdr.String},
)

func benchValue() cdr.Value {
	xs := make([]cdr.Value, 16)
	for i := range xs {
		xs[i] = float64(i) * 1.5
	}
	return []cdr.Value{uint64(42), xs, "itdos-benchmark-payload"}
}

func BenchmarkCDRMarshal(b *testing.B) {
	v := benchValue()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cdr.Marshal(benchTC, v, cdr.BigEndian); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCDRUnmarshal(b *testing.B) {
	buf, err := cdr.Marshal(benchTC, benchValue(), cdr.LittleEndian)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cdr.Unmarshal(benchTC, buf, cdr.LittleEndian); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGIOPRequestRoundTrip(b *testing.B) {
	body, err := cdr.Marshal(benchTC, benchValue(), cdr.BigEndian)
	if err != nil {
		b.Fatal(err)
	}
	req := &giop.Request{
		RequestID: 7, ObjectKey: "calc", Interface: "IDL:bench/Calc:1.0",
		Operation: "add", ResponseExpected: true, Body: body,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := giop.Decode(giop.EncodeRequest(cdr.BigEndian, req)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealOpen(b *testing.B) {
	var key seckey.Key
	for i := range key {
		key[i] = byte(i)
	}
	tx := seckey.NewChannel(key, "bench")
	rx := seckey.NewChannel(key, "bench")
	msg := make([]byte, 512)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sealed, err := tx.Seal(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rx.Open(sealed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVoterDecision(b *testing.B) {
	tc := cdr.StructOf("R", cdr.Member{Name: "v", Type: cdr.Double})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := vote.NewVoter(vote.Config{N: 4, F: 1, Comparator: vote.Inexact{TC: tc, Epsilon: 1e-9}})
		if err != nil {
			b.Fatal(err)
		}
		for m := 0; m < 4; m++ {
			if _, err := v.Submit(vote.Submission{Member: m, Value: []cdr.Value{42.0}}); err != nil {
				b.Fatal(err)
			}
		}
		if !v.Decided() {
			b.Fatal("no decision")
		}
	}
}

func BenchmarkDPRFEvalShare(b *testing.B) {
	params := dprf.Params{N: 4, F: 1}
	parties, err := dprf.Setup(params, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parties[i%4].EvalShare([]byte("common-input"))
	}
}

func BenchmarkDPRFCombine(b *testing.B) {
	params := dprf.Params{N: 4, F: 1}
	parties, err := dprf.Setup(params, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	shares := []*dprf.Share{
		parties[0].EvalShare([]byte("x")),
		parties[1].EvalShare([]byte("x")),
		parties[2].EvalShare([]byte("x")),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dprf.Combine(params, shares); err != nil {
			b.Fatal(err)
		}
	}
}

// --- protocol benchmarks on the simulator ---

// BenchmarkC1OrderingGroupSize measures one totally-ordered request per
// iteration for growing group sizes (experiment C1).
func BenchmarkC1OrderingGroupSize(b *testing.B) {
	for _, nf := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		b.Run(fmt.Sprintf("n%d_f%d", nf.n, nf.f), func(b *testing.B) {
			net := netsim.NewNetwork(1, netsim.ConstantLatency(time.Millisecond))
			dom, err := srm.NewDomain(net, srm.DomainConfig{
				Name: "grp", N: nf.n, F: nf.f,
				ViewTimeout: time.Second, Ring: pbft.NewKeyring(), KeySeed: []byte("bench"),
			})
			if err != nil {
				b.Fatal(err)
			}
			sender, err := srm.NewSender(dom, "c", "c/rx", 300*time.Millisecond)
			if err != nil {
				b.Fatal(err)
			}
			acks := 0
			sender.OnAck = func(uint64) { acks++ }
			before := net.Stats().MessagesSent
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				want := acks + 1
				if _, err := sender.Send([]byte("op")); err != nil {
					b.Fatal(err)
				}
				if err := net.RunUntil(func() bool { return acks >= want }, 10_000_000); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(net.Stats().MessagesSent-before)/float64(b.N), "msgs/op")
		})
	}
}

// benchSystem builds the standard calc deployment with a warmed
// connection for end-to-end benchmarks.
func benchSystem(b *testing.B) (*replica.System, *replica.Client, orb.ObjectRef) {
	b.Helper()
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface("IDL:bench/Calc:1.0").
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}))
	sys, err := replica.NewSystem(replica.SystemConfig{
		Seed:     1,
		Latency:  netsim.ConstantLatency(time.Millisecond),
		Registry: reg,
		Domains: []replica.DomainSpec{{
			Name: "calc", N: 4, F: 1,
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("calc", "IDL:bench/Calc:1.0", orb.ServantFunc(
					func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
						return []cdr.Value{args[0].(float64) + args[1].(float64)}, nil
					}))
			},
		}},
		Clients: []replica.ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = sys.Close() })
	ref := orb.ObjectRef{Domain: "calc", ObjectKey: "calc", Interface: "IDL:bench/Calc:1.0"}
	if _, err := sys.Client("alice").CallAndRun(ref, "add",
		[]cdr.Value{0.0, 0.0}, 10_000_000); err != nil {
		b.Fatal(err)
	}
	return sys, sys.Client("alice"), ref
}

// BenchmarkF1NominalInvocation: one steady-state voted invocation per
// iteration (experiment F1 / Figure 1).
func BenchmarkF1NominalInvocation(b *testing.B) {
	sys, alice, ref := benchSystem(b)
	before := sys.Net.Stats().MessagesSent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alice.CallAndRun(ref, "add",
			[]cdr.Value{float64(i), 1.0}, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.Net.Stats().MessagesSent-before)/float64(b.N), "msgs/op")
}

// BenchmarkF2StackLayers: the local (non-network) work of one invocation —
// marshal, seal, unmarshal, vote — without the simulator.
func BenchmarkF2StackLayers(b *testing.B) {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface("IDL:bench/Calc:1.0").
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}))
	op, err := reg.Lookup("IDL:bench/Calc:1.0", "add")
	if err != nil {
		b.Fatal(err)
	}
	var key seckey.Key
	tx := seckey.NewChannel(key, "bench")
	rx := seckey.NewChannel(key, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body, err := cdr.Marshal(op.ParamsType(), []cdr.Value{1.0, 2.0}, cdr.BigEndian)
		if err != nil {
			b.Fatal(err)
		}
		reqBytes := giop.EncodeRequest(cdr.BigEndian, &giop.Request{
			RequestID: uint64(i), ObjectKey: "calc", Interface: "IDL:bench/Calc:1.0",
			Operation: "add", ResponseExpected: true, Body: body,
		})
		sealed, err := tx.Seal(reqBytes)
		if err != nil {
			b.Fatal(err)
		}
		plain, err := rx.Open(sealed)
		if err != nil {
			b.Fatal(err)
		}
		msg, err := giop.Decode(plain)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cdr.Unmarshal(op.ParamsType(), msg.Request.Body, msg.Order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF3ConnectionEstablishment: a full cold handshake (Figure 3
// steps 1-5) per iteration.
func BenchmarkF3ConnectionEstablishment(b *testing.B) {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface("IDL:bench/Calc:1.0").
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}))
	ref := orb.ObjectRef{Domain: "calc", ObjectKey: "calc", Interface: "IDL:bench/Calc:1.0"}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := replica.NewSystem(replica.SystemConfig{
			Seed:     int64(i + 1),
			Latency:  netsim.ConstantLatency(time.Millisecond),
			Registry: reg,
			Domains: []replica.DomainSpec{{
				Name: "calc", N: 4, F: 1,
				Setup: func(member int, a *orb.Adapter) error {
					return a.Register("calc", "IDL:bench/Calc:1.0", orb.ServantFunc(
						func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
							return []cdr.Value{args[0]}, nil
						}))
				},
			}},
			Clients: []replica.ClientSpec{{Name: "alice"}},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sys.Client("alice").CallAndRun(ref, "add",
			[]cdr.Value{1.0, 2.0}, 10_000_000); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = sys.Close()
		b.StartTimer()
	}
}

// BenchmarkC2HeterogeneousVoting: the client-side pipeline for one set of
// heterogeneous replies (decrypt → unmarshal → vote).
func BenchmarkC2HeterogeneousVoting(b *testing.B) {
	// Covered end-to-end by the C2 table; here measure the per-reply
	// decision pipeline directly via the voter.
	tc := cdr.StructOf("R", cdr.Member{Name: "v", Type: cdr.Double})
	orders := []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian, cdr.BigEndian, cdr.LittleEndian}
	bufs := make([][]byte, 4)
	for i, o := range orders {
		buf, err := cdr.Marshal(tc, []cdr.Value{42.5}, o)
		if err != nil {
			b.Fatal(err)
		}
		bufs[i] = buf
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := vote.NewVoter(vote.Config{N: 4, F: 1, Comparator: vote.Exact{TC: tc}})
		if err != nil {
			b.Fatal(err)
		}
		for m := 0; m < 4; m++ {
			val, err := cdr.Unmarshal(tc, bufs[m], orders[m])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := v.Submit(vote.Submission{Member: m, Value: val}); err != nil {
				b.Fatal(err)
			}
		}
		if !v.Decided() {
			b.Fatal("undecided")
		}
	}
}

// BenchmarkC4VoterThresholds compares decision latency of the wait
// policies on pure voter workloads.
func BenchmarkC4VoterThresholds(b *testing.B) {
	tc := cdr.StructOf("R", cdr.Member{Name: "v", Type: cdr.Double})
	for _, mode := range []vote.Mode{vote.EagerFPlus1, vote.AfterQuorum, vote.WaitAll} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := vote.NewVoter(vote.Config{N: 7, F: 2, Comparator: vote.Exact{TC: tc}, Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				for m := 0; m < 7 && !v.Decided(); m++ {
					if _, err := v.Submit(vote.Submission{Member: m, Value: []cdr.Value{1.0}}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkC5ConnectionReuse: one warm call per iteration on a shared
// connection (the steady-state side of experiment C5).
func BenchmarkC5ConnectionReuse(b *testing.B) {
	_, alice, ref := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alice.CallAndRun(ref, "add",
			[]cdr.Value{1.0, float64(i)}, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkC6StateSyncScaling: snapshot cost of the two state models as
// object state grows.
func BenchmarkC6StateSyncScaling(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 16, 1 << 22} {
		b.Run(fmt.Sprintf("queue_objstate_%dKiB", size>>10), func(b *testing.B) {
			q := srm.NewQueue(64, nil)
			for i := 0; i < 64; i++ {
				op := make([]byte, 64)
				q.Execute("c", op, sha256.Sum256(op))
			}
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(q.Capture().Bytes())
			}
			b.ReportMetric(float64(n), "snapshot-bytes")
		})
		b.Run(fmt.Sprintf("blob_objstate_%dKiB", size>>10), func(b *testing.B) {
			state := make([]byte, size)
			e := cdr.NewEncoder(cdr.BigEndian)
			e.WriteOctets(state)
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				enc := cdr.NewEncoder(cdr.BigEndian)
				enc.WriteOctets(state)
				n = enc.Len()
			}
			b.ReportMetric(float64(n), "snapshot-bytes")
		})
	}
}

// BenchmarkC7KeyExposure: threshold key generation (share + combine) per
// connection, the extra cost ITDOS pays to bound exposure.
func BenchmarkC7KeyExposure(b *testing.B) {
	params := dprf.Params{N: 4, F: 1}
	parties, err := dprf.Setup(params, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	common := dprf.NewCommonInput([]byte("seed"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := common.Next("conn")
		shares := []*dprf.Share{
			parties[0].EvalShare(x), parties[1].EvalShare(x), parties[2].EvalShare(x),
		}
		if _, _, err := dprf.Combine(params, shares); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkC8FaultExpulsion: the complete detect→accuse→expel→rekey
// pipeline per iteration (experiment C8, singleton-accuser path).
func BenchmarkC8FaultExpulsion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, alice, ref := benchSystem(b)
		evil := orb.ServantFunc(func(_ *orb.CallContext, _ string, _ []cdr.Value) ([]cdr.Value, error) {
			return []cdr.Value{666.0}, nil
		})
		if err := sys.Domain("calc").Elements[2].Adapter.Register("calc",
			"IDL:bench/Calc:1.0", evil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := alice.CallAndRun(ref, "add", []cdr.Value{21.0, 21.0}, 10_000_000); err != nil {
			b.Fatal(err)
		}
		if err := sys.RunUntil(func() bool {
			for _, mgr := range sys.GMManagers {
				if !mgr.IsExpelled("calc", 2) {
					return false
				}
			}
			return true
		}, 30_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1NestedInvocation: one client call that fans out through a
// nested replicated-client invocation (experiment A1): client → front
// domain → back domain and back, every hop BFT-ordered and voted.
func BenchmarkA1NestedInvocation(b *testing.B) {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface("IDL:bench/F:1.0").
		Op("relay",
			[]idl.Param{{Name: "x", Type: cdr.Double}},
			[]idl.Param{{Name: "y", Type: cdr.Double}}))
	reg.Register(idl.NewInterface("IDL:bench/B:1.0").
		Op("double",
			[]idl.Param{{Name: "x", Type: cdr.Double}},
			[]idl.Param{{Name: "y", Type: cdr.Double}}))
	backRef := orb.ObjectRef{Domain: "back", ObjectKey: "b", Interface: "IDL:bench/B:1.0"}
	sys, err := replica.NewSystem(replica.SystemConfig{
		Seed:     1,
		Latency:  netsim.ConstantLatency(time.Millisecond),
		Registry: reg,
		Domains: []replica.DomainSpec{
			{
				Name: "front", N: 4, F: 1,
				Setup: func(member int, a *orb.Adapter) error {
					return a.Register("f", "IDL:bench/F:1.0", orb.ServantFunc(
						func(ctx *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
							return ctx.Caller.Call(backRef, "double", args)
						}))
				},
			},
			{
				Name: "back", N: 4, F: 1,
				Setup: func(member int, a *orb.Adapter) error {
					return a.Register("b", "IDL:bench/B:1.0", orb.ServantFunc(
						func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
							return []cdr.Value{args[0].(float64) * 2}, nil
						}))
				},
			},
		},
		Clients: []replica.ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	frontRef := orb.ObjectRef{Domain: "front", ObjectKey: "f", Interface: "IDL:bench/F:1.0"}
	alice := sys.Client("alice")
	if _, err := alice.CallAndRun(frontRef, "relay", []cdr.Value{1.0}, 60_000_000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alice.CallAndRun(frontRef, "relay", []cdr.Value{2.0}, 60_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3AdaptiveVoting: adaptive escalation vs a fixed-ε voter.
func BenchmarkA3AdaptiveVoting(b *testing.B) {
	tc := cdr.StructOf("R", cdr.Member{Name: "v", Type: cdr.Double})
	subs := make([]vote.Submission, 4)
	for i := range subs {
		subs[i] = vote.Submission{Member: i, Value: []cdr.Value{1.0 + 1e-8*float64(i)}}
	}
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := vote.NewAdaptive(4, 1, vote.EagerFPlus1, tc, []float64{1e-12, 1e-9, 1e-6})
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range subs {
				if d, _ := a.Submit(s); d != nil {
					break
				}
			}
		}
	})
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := vote.NewVoter(vote.Config{N: 4, F: 1, Comparator: vote.Inexact{TC: tc, Epsilon: 1e-6}})
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range subs {
				if d, _ := v.Submit(s); d != nil {
					break
				}
			}
		}
	})
}

// BenchmarkX1LargeObjectTransfer: one fragmented large-object fetch per
// iteration (the §4 extension).
func BenchmarkX1LargeObjectTransfer(b *testing.B) {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface("IDL:bench/Blob:1.0").
		Op("fetch",
			[]idl.Param{{Name: "size", Type: cdr.Long}},
			[]idl.Param{{Name: "blob", Type: cdr.String}}))
	sys, err := replica.NewSystem(replica.SystemConfig{
		Seed:     1,
		Latency:  netsim.ConstantLatency(time.Millisecond),
		Registry: reg,
		Domains: []replica.DomainSpec{{
			Name: "blob", N: 4, F: 1,
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("blob", "IDL:bench/Blob:1.0", orb.ServantFunc(
					func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
						n := int(args[0].(int32))
						buf := make([]byte, n)
						for i := range buf {
							buf[i] = 'b'
						}
						return []cdr.Value{string(buf)}, nil
					}))
			},
		}},
		Clients: []replica.ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ref := orb.ObjectRef{Domain: "blob", ObjectKey: "blob", Interface: "IDL:bench/Blob:1.0"}
	alice := sys.Client("alice")
	const size = 128 << 10
	if _, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(16)}, 50_000_000); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(size)}, 100_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
