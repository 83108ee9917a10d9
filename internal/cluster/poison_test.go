package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/pool"
	"itdos/internal/srm"
)

// TestPoisonedCluster drives small and fragmented calls through a five-node
// loopback cluster with arena poisoning on, so every released pool buffer
// is overwritten at once. Decoders above the transport alias the buffers
// they are handed: one that aliased a pooled buffer, or a layer that wrote a
// buffer another layer still holds, shows up here as a wrong decided value
// or as a replica whose queue chain no longer matches its retained window.
func TestPoisonedCluster(t *testing.T) {
	pool.SetPoison(true)
	t.Cleanup(func() { pool.SetPoison(false) })
	spec := &Spec{
		Seed: 3, F: 1, Domain: "calc", Secret: "poisoned-cluster",
		SendTimeoutMS: 500, MaxBatch: 16, BatchWaitMS: 2,
		Nodes: []NodeSpec{{Name: "node0"}, {Name: "node1"}, {Name: "node2"}, {Name: "node3"},
			{Name: "load", Pool: 4}},
	}
	cl, err := StartInProc(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	load := cl.Nodes["load"]
	ref := CalcRef(spec.Domain)

	// Echo strings above smiop.DefaultFragmentSize travel as several
	// fragments each way.
	const calls, echoLen = 6, 20 << 10
	var wg sync.WaitGroup
	errs := make(chan error, len(load.LocalClients()))
	for c, client := range load.LocalClients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				x := float64(100*c + i)
				s := fmt.Sprintf("%s-%d-", client, i)
				s += strings.Repeat(string(rune('a'+(c+i)%26)), echoLen-len(s))
				for _, call := range []struct {
					op   string
					args []cdr.Value
					want cdr.Value
				}{
					{"add", []cdr.Value{x, 0.5}, x + 0.5},
					{"echo", []cdr.Value{s}, s},
				} {
					got, err := load.Call(client, ref, call.op, call.args, 10*time.Second)
					if err == nil && (len(got) != 1 || got[0] != call.want) {
						err = fmt.Errorf("%s: %s call %d decided a wrong value", client, call.op, i)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every replica's hash chain, recomputed from the messages its window
	// retains, must still end at the head it extended as they arrived.
	busy := 0
	for name, node := range cl.Nodes {
		done := make(chan struct{})
		node.Tr.Post(func() {
			defer close(done)
			doms := []*srm.Domain{node.Sys.Domain(spec.Domain).Dom, node.Sys.GMDomain()}
			for _, dom := range doms {
				for i, el := range dom.Elements {
					q := el.Queue()
					c := q.Capture()
					got, err := q.SnapshotDigest(c.Bytes())
					if err != nil || got != c.Digest() {
						t.Errorf("%s: %s/r%d: window re-chains to %v (err %v), head says %v",
							name, dom.Name, i, got, err, c.Digest())
					}
					if dom.Name == spec.Domain && q.Len() > 0 {
						busy++
					}
				}
			}
		})
		<-done
	}
	if busy < spec.N() {
		t.Errorf("%d replica queues of %s hold messages, want %d", busy, spec.Domain, spec.N())
	}
}
