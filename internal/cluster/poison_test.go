package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/obs"
	"itdos/internal/pool"
	"itdos/internal/smiop"
	"itdos/internal/srm"
)

// TestPoisonedCluster drives small and fragmented calls through a five-node
// loopback cluster with arena poisoning on, so every released pool buffer
// is overwritten at once. Decoders above the transport alias the buffers
// they are handed, receivers open direct-path frames in place, and a
// transport writes what it is handed without copying it: the primary's one
// encoded pre-prepare sits in three peers' send queues at once, and every
// pooled frame is released by the transport after its write. A layer that
// aliased a pooled buffer past its release, or wrote a buffer another layer
// still holds, shows up here as a wrong decided value, as a dropped copy or
// a view change, or as a replica whose queue chain no longer matches its
// retained window.
func TestPoisonedCluster(t *testing.T) {
	pool.SetPoison(true)
	t.Cleanup(func() { pool.SetPoison(false) })
	spec := &Spec{
		Seed: 3, F: 1, Domain: "calc", Secret: "poisoned-cluster",
		SendTimeoutMS: 500, MaxBatch: 16, BatchWaitMS: 2,
		Nodes: []NodeSpec{{Name: "node0"}, {Name: "node1"}, {Name: "node2"}, {Name: "node3"},
			{Name: "load", Pool: 4}},
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
	ref := CalcRef(spec.Domain)

	// Echo strings above smiop.DefaultFragmentSize travel as two fragments
	// each way.
	const calls, echoLen = 6, smiop.DefaultFragmentSize + 4<<10
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

	// Every copy opened, in place or into its reassembly buffer, and every
	// pre-prepare verified where it arrived: nothing was dropped, and the
	// primary never lost its view.
	var fragsIn, dropped, viewChanges uint64
	for name, node := range cl.Nodes {
		done := make(chan struct{})
		node.Tr.Post(func() {
			defer close(done)
			r := regs[name]
			fragsIn += r.Counter("smiop_fragments_total", "dir=in").Value()
			dropped += r.Counter("smiop_dropped_total").Value() + r.Counter("tcp_frames_dropped_total").Value()
			viewChanges += r.Counter("pbft_view_changes_total", "group="+spec.Domain).Value()
		})
		<-done
	}
	if fragsIn == 0 || dropped != 0 || viewChanges != 0 {
		t.Errorf("%d fragments in, %d copies or frames dropped, %d view changes; want fragments, no drops, no view change",
			fragsIn, dropped, viewChanges)
	}
}
