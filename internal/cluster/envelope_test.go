package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/obs"
)

// TestEcho16kIsOneEnvelope: an echo_16k call, a 16 KiB string each way,
// crosses SMIOP whole: no node counts a fragment in or out, neither the
// replicas taking the request off their queues and sealing their replies nor
// the load node sealing the request and voting the replies, while every one
// of them counts the envelopes it opened.
func TestEcho16kIsOneEnvelope(t *testing.T) {
	spec := &Spec{
		Seed: 5, F: 1, Domain: "calc", Secret: "one-envelope",
		SendTimeoutMS: 500, MaxBatch: 16, BatchWaitMS: 2,
		Nodes: []NodeSpec{{Name: "node0"}, {Name: "node1"}, {Name: "node2"}, {Name: "node3"},
			{Name: "load", Pool: 1}},
	}
	regs := map[string]*obs.Registry{}
	for _, nd := range spec.Nodes {
		regs[nd.Name] = obs.NewRegistry()
	}
	cl, err := StartInProc(spec, func(process string) NodeOptions {
		return NodeOptions{Metrics: regs[process]}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	load := cl.Nodes["load"]
	client := load.LocalClients()[0]
	for i := 0; i < 3; i++ {
		// The string BenchmarkInProcCall echoes: 16 KiB.
		head := fmt.Sprintf("call-%d-", i)
		s := head + strings.Repeat("e", 16<<10-len(head))
		got, err := load.Call(client, CalcRef(spec.Domain), "echo", []cdr.Value{s}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != s {
			t.Fatalf("call %d decided a wrong value", i)
		}
	}
	for name, node := range cl.Nodes {
		done := make(chan struct{})
		node.Tr.Post(func() {
			defer close(done)
			r := regs[name]
			in := r.Counter("smiop_fragments_total", "dir=in").Value()
			out := r.Counter("smiop_fragments_total", "dir=out").Value()
			if env := r.Counter("smiop_envelopes_total").Value(); in != 0 || out != 0 || env == 0 {
				t.Errorf("%s: %d fragments in, %d out, %d envelopes; want no fragment and some envelopes",
					name, in, out, env)
			}
		})
		<-done
	}
}
