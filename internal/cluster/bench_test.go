package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/replica"
)

// inProcCallers is how many closed-loop callers BenchmarkInProcCall runs,
// each through its own client.
const inProcCallers = 32

// BenchmarkInProcCall drives voted calls through a whole cluster — four
// replica nodes and a load node, each its own TCP transport over loopback,
// all in this process — from inProcCallers closed-loop callers, so a CPU
// profile of the run covers every layer of every process:
//
//	go test -run '^$' -bench InProcCall -cpuprofile cpu.out ./internal/cluster
//
// add is the 16-byte add() call; echo16k echoes a fresh 16 KiB string. Each
// has a -tentative sibling that runs it with tentative execution on in every
// process, which prices the one fast path left behind a setting.
func BenchmarkInProcCall(b *testing.B) {
	if testing.Short() {
		b.Skip("starts a five-node loopback cluster")
	}
	add := func(i int) ([]cdr.Value, cdr.Value) {
		x := float64(i)
		return []cdr.Value{x, 0.5}, x + 0.5
	}
	echo16k := func(i int) ([]cdr.Value, cdr.Value) {
		head := fmt.Sprintf("call-%d-", i)
		s := head + strings.Repeat(string(rune('a'+i%26)), 16<<10-len(head))
		return []cdr.Value{s}, s
	}
	tentative := func(string) NodeOptions {
		return NodeOptions{Tweak: func(cfg *replica.SystemConfig) { cfg.TentativeExecution = true }}
	}
	for _, w := range []struct {
		name    string
		op      string
		bytes   int64
		call    func(i int) ([]cdr.Value, cdr.Value)
		optsFor func(process string) NodeOptions
	}{
		{"add", "add", 0, add, nil},
		{"echo16k", "echo", 16 << 10, echo16k, nil},
		{"add-tentative", "add", 0, add, tentative},
		{"echo16k-tentative", "echo", 16 << 10, echo16k, tentative},
	} {
		b.Run(w.name, func(b *testing.B) {
			if w.bytes > 0 {
				b.SetBytes(w.bytes)
			}
			benchInProcCall(b, w.op, w.call, w.optsFor)
		})
	}
}

// benchInProcCall runs b.N calls of op, the i-th with call(i)'s arguments,
// on a cluster started with optsFor (nil: the defaults), and fails on any
// error or on a decided value other than call(i)'s.
func benchInProcCall(b *testing.B, op string, call func(i int) ([]cdr.Value, cdr.Value),
	optsFor func(process string) NodeOptions) {
	spec := &Spec{
		Seed: 1, F: 1, Domain: "calc", Secret: "inproc-bench",
		SendTimeoutMS: 500, MaxBatch: 16, BatchWaitMS: 2,
		Nodes: []NodeSpec{{Name: "node0"}, {Name: "node1"}, {Name: "node2"}, {Name: "node3"},
			{Name: "load", Pool: inProcCallers}},
	}
	cl, err := StartInProc(spec, optsFor)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	load := cl.Nodes["load"]
	ref := CalcRef(spec.Domain)
	clients := load.LocalClients()

	check := func(client string, i int) error {
		args, want := call(i)
		got, err := load.Call(client, ref, op, args, 10*time.Second)
		if err == nil && (len(got) != 1 || got[0] != want) {
			err = fmt.Errorf("%s: call %d decided a wrong value", client, i)
		}
		return err
	}
	// each runs loop once per client, concurrently, and returns the first
	// error.
	each := func(loop func(client string) error) error {
		var wg sync.WaitGroup
		errs := make(chan error, len(clients))
		for _, client := range clients {
			wg.Add(1)
			go func(client string) {
				defer wg.Done()
				if err := loop(client); err != nil {
					errs <- err
				}
			}(client)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}
	// Every client's first call opens its connection; keep that out.
	if err := each(func(client string) error { return check(client, 0) }); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	err = each(func(client string) error {
		for i := int(next.Add(1)); i <= b.N; i = int(next.Add(1)) {
			if err := check(client, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
