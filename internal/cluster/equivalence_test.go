package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/fault"
	"itdos/internal/orb"
	"itdos/internal/replica"
	"itdos/internal/srm"
)

const eqSeed = 20020623 // the paper's conference date; any fixed seed works

// eqServant plants the F1 liar on element 2: it answers 666 to everything,
// so every decided reply also pins that the voter masked it identically on
// both transports.
func eqServant(member int) orb.Servant {
	if member == 2 {
		return fault.LyingServant(cdr.Value(666.0))
	}
	return CalcServant()
}

// eqCalls is the seeded F1-style scenario: a deterministic mix of ordered
// arithmetic and string echoes.
type eqCall struct {
	op   string
	args []cdr.Value
}

func eqCalls() []eqCall {
	calls := []eqCall{{op: "add", args: []cdr.Value{20.0, 22.0}}}
	for i := 0; i < 8; i++ {
		calls = append(calls,
			eqCall{op: "add", args: []cdr.Value{float64(i), float64(2 * i)}},
			eqCall{op: "echo", args: []cdr.Value{fmt.Sprintf("seeded-%d", i)}})
	}
	return calls
}

// canonical renders decided reply values transport-independently: their
// big-endian CDR bytes, no timing. Wall-clock anything stays out of the
// comparison.
func canonical(t *testing.T, vals []cdr.Value) string {
	t.Helper()
	out := ""
	for _, v := range vals {
		tc := cdr.Double
		if _, ok := v.(string); ok {
			tc = cdr.String
		}
		b, err := cdr.Marshal(tc, v, cdr.BigEndian)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		out += fmt.Sprintf("%x;", b)
	}
	return out
}

// runNetsim executes the scenario on the deterministic twin.
func runNetsim(t *testing.T) []string {
	t.Helper()
	spec := eqSpec()
	cfg := replica.SystemConfig{
		Seed:              spec.Seed,
		DeterministicKeys: true,
		Registry:          CalcRegistry(),
		ConfigSecret:      []byte(spec.Secret),
		GM:                replica.GroupSpec{N: spec.N(), F: spec.F},
		Domains: []replica.DomainSpec{{
			Name: spec.Domain, N: spec.N(), F: spec.F,
			Setup: func(member int, adapter *orb.Adapter) error {
				return adapter.Register(CalcKey, CalcIface, eqServant(member))
			},
		}},
		Clients: []replica.ClientSpec{{Name: "alice"}},
	}
	sys, err := replica.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	alice := sys.Client("alice")
	ref := CalcRef(spec.Domain)
	var decisions []string
	for _, c := range eqCalls() {
		res, err := alice.CallAndRun(ref, c.op, c.args, 10_000_000)
		if err != nil {
			t.Fatalf("netsim %s%v: %v", c.op, c.args, err)
		}
		decisions = append(decisions, canonical(t, res))
	}
	return decisions
}

func eqSpec() *Spec {
	return &Spec{
		Seed:   eqSeed,
		F:      1,
		Domain: "calc",
		Secret: "equivalence-test-secret",
		// Real clock: give the PBFT client a generous retransmission
		// timeout so a slow CI machine does not double-send (which is
		// harmless for decisions — ordering dedups — but wastes time).
		SendTimeoutMS: 500,
		Nodes: []NodeSpec{
			{Name: "node0"}, {Name: "node1"}, {Name: "node2"}, {Name: "node3"},
			{Name: "load", Clients: []string{"alice"}},
		},
	}
}

// runTCP executes the identical scenario over a loopback TCP cluster:
// five transports (four replica processes, one client process) in this
// test process, real sockets and wall clocks in between.
func runTCP(t *testing.T) []string {
	t.Helper()
	cl, err := StartInProc(eqSpec(), func(string) NodeOptions {
		return NodeOptions{Servant: eqServant}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	load := cl.Nodes["load"]
	ref := CalcRef("calc")
	var decisions []string
	for _, c := range eqCalls() {
		// A call here takes milliseconds; the rare failure is one that never
		// completes, so a long timeout buys nothing but a late report.
		res, err := load.Call("alice", ref, c.op, c.args, 10*time.Second)
		if err != nil {
			dumpCluster(t, cl)
			t.Fatalf("tcp %s%v: %v", c.op, c.args, err)
		}
		decisions = append(decisions, canonical(t, res))
	}
	return decisions
}

// dumpCluster logs, for every process, where the replicas it hosts stand in
// each ordering group and its whole metrics registry — read on the process's
// own loop, which is also the first thing to know: a loop that does not run
// the dump is the wedge.
func dumpCluster(t *testing.T, cl *InProcCluster) {
	t.Helper()
	spec := eqSpec()
	for i, nd := range spec.Nodes {
		node := cl.Nodes[nd.Name]
		out := make(chan string, 1)
		go node.Tr.Post(func() {
			var b strings.Builder
			if i < spec.N() {
				for _, dom := range []*srm.Domain{node.Sys.GMDomain(), node.Sys.Domain(spec.Domain).Dom} {
					r := dom.Elements[i].Replica
					fmt.Fprintf(&b, "%s/r%d: view=%d inViewChange=%v lastExec=%d lowWater=%d state=%v queue=[%d,%d)\n",
						dom.Name, i, r.View(), r.InViewChange(), r.LastExecuted(), r.StableCheckpoint(),
						r.StateDigest(), dom.Elements[i].Queue().WindowStart(), dom.Elements[i].Queue().NextSeq())
				}
			}
			if err := node.Metrics.WriteProm(&b); err != nil {
				fmt.Fprintf(&b, "metrics: %v\n", err)
			}
			out <- b.String()
		})
		select {
		case s := <-out:
			t.Logf("--- %s ---\n%s", nd.Name, s)
		case <-time.After(2 * time.Second):
			t.Logf("--- %s --- loop goroutine did not run the dump within 2s", nd.Name)
		}
	}
}

// TestTransportEquivalence pins that the same seeded F1-style scenario —
// a 3f+1 calc domain with a lying element — produces identical vote
// decisions and reply bytes on the deterministic simulator and over real
// loopback TCP. Wall-clock quantities never enter the comparison; the
// decided values (canonical CDR bytes) must match exactly, including the
// masked liar.
func TestTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster; skipped in -short")
	}
	sim := runNetsim(t)
	live := runTCP(t)
	if len(sim) != len(live) {
		t.Fatalf("decision counts differ: netsim %d, tcp %d", len(sim), len(live))
	}
	calls := eqCalls()
	for i := range sim {
		if sim[i] != live[i] {
			t.Fatalf("call %d (%s%v): decisions diverge\nnetsim: %s\ntcp:    %s",
				i, calls[i].op, calls[i].args, sim[i], live[i])
		}
	}
	// And the decisions must be the correct ones: the liar was masked.
	want := canonical(t, []cdr.Value{42.0})
	if sim[0] != want {
		t.Fatalf("first decision is not the masked 42.0: %s", sim[0])
	}
}
