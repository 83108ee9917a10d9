package smiop

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/pool"
)

// Benchmarks for the reply seal chain — the reply hot path. SealGIOPWire
// encodes the message once at its final payload offset inside a pooled
// arena, seals in place, and slices fragments without copying. `make
// bench-mem` records it under -benchmem and the budget test below gates its
// allocs/op against a committed baseline.

var benchSizes = []int{512, 4 << 10, 64 << 10}

func BenchmarkSealChainZeroCopy(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			conn := wireConn(b)
			rep := &giop.Reply{RequestID: 7, Status: giop.StatusNoException,
				Body: make([]byte, size)}
			var sink int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frames, err := conn.SealGIOPWire(uint64(i+1), true, func(dst []byte) []byte {
					return giop.AppendReply(dst, cdr.BigEndian, rep)
				}, testSign, 0)
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range frames {
					sink += len(f.B)
				}
				ReleaseFrames(frames)
			}
			if sink == 0 {
				b.Fatal("sealed zero bytes")
			}
		})
	}
}

// openChainSize is the reply body the open chain is measured with.
const openChainSize = 16 << 10

// openChainFrames seals n replies of openChainSize body bytes, each as one
// frame (the fragment size is above the message), and returns them as a
// transport hands them up — fresh buffers — with a receiver that opens
// them in order.
func openChainFrames(t testing.TB, n int) (*Connection, [][]byte) {
	t.Helper()
	conn := wireConn(t)
	recv, err := NewConnection(11, PeerInfo{Name: "client", N: 1}, 0, PeerInfo{Name: "bank", N: 4, F: 1}, testKey(3))
	if err != nil {
		t.Fatal(err)
	}
	rep := &giop.Reply{RequestID: 7, Status: giop.StatusNoException, Body: make([]byte, openChainSize)}
	wires := make([][]byte, n)
	for i := range wires {
		frames, err := conn.SealGIOPWire(uint64(i+1), true, func(dst []byte) []byte {
			return giop.AppendReply(dst, cdr.BigEndian, rep)
		}, testSign, 2*openChainSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != 1 {
			t.Fatalf("reply sealed as %d frames, want 1", len(frames))
		}
		wires[i] = bytes.Clone(frames[0].B)
		ReleaseFrames(frames)
	}
	return recv, wires
}

// openOne takes one sealed reply frame through the receive chain: envelope,
// seal, signed payload, GIOP message. The frame is a direct-path delivery,
// the receiver's own, so it opens in place.
func openOne(recv *Connection, wire []byte) error {
	env, err := DecodeEnvelope(wire)
	if err != nil {
		return err
	}
	env.Owned = true
	plain, err := recv.OpenData(env)
	if err != nil {
		return err
	}
	sp, err := DecodeSignedPayload(plain)
	if err != nil {
		return err
	}
	msg, err := giop.Decode(sp.GIOP)
	if err != nil {
		return err
	}
	if msg.Reply == nil || len(msg.Reply.Body) != openChainSize {
		return fmt.Errorf("opened %+v, want a reply of %d body bytes", msg, openChainSize)
	}
	return nil
}

// BenchmarkOpenChain is the receive side of the seal chain: one sealed
// 16 KiB reply frame through DecodeEnvelope, OpenData (in place),
// DecodeSignedPayload and giop.Decode. Frames are sealed ahead, 256 to a receiver, outside the
// timer.
func BenchmarkOpenChain(b *testing.B) {
	b.SetBytes(openChainSize)
	b.ReportAllocs()
	for done := 0; done < b.N; {
		b.StopTimer()
		recv, wires := openChainFrames(b, min(256, b.N-done))
		b.StartTimer()
		for _, w := range wires {
			if err := openOne(recv, w); err != nil {
				b.Fatal(err)
			}
		}
		done += len(wires)
	}
}

// allocBudget is the committed allocation baseline: the zero-copy seal
// chain's allocations keyed by payload size, and the open chain's
// allocations and bytes for one 16 KiB reply. Regenerate with:
//
//	go test ./internal/smiop -run 'AllocBudget' -update-alloc-budget
type allocBudget struct {
	// AllocsPerOp maps "<size>B" to the measured allocations per sealed
	// reply at the time the baseline was committed.
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	// OpenChain is what opening one sealed 16 KiB reply frame cost when
	// the baseline was committed (TestOpenChainAllocBudget).
	OpenChain *opCost `json:"open_chain_16384B,omitempty"`
	// SendChain is what sealing one 16 KiB reply and handing its frames to
	// a TCP transport's Send cost (TestSendChainAllocBudget).
	SendChain *opCost `json:"send_chain_16384B,omitempty"`
}

// opCost is the heap cost of one operation.
type opCost struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

const allocBudgetPath = "testdata/alloc_budget.json"

var updateAllocBudget = flag.Bool("update-alloc-budget", false,
	"rewrite testdata/alloc_budget.json with current measurements")

// readAllocBudget loads the committed baseline.
func readAllocBudget(t *testing.T) allocBudget {
	t.Helper()
	raw, err := os.ReadFile(allocBudgetPath)
	if err != nil {
		t.Fatalf("no committed baseline (run with -update-alloc-budget): %v", err)
	}
	var budget allocBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	return budget
}

// writeAllocBudget rewrites the committed baseline.
func writeAllocBudget(t *testing.T, budget allocBudget) {
	t.Helper()
	out, err := json.MarshalIndent(budget, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(allocBudgetPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenChainAllocBudget gates the receive chain's heap cost: allocations
// and bytes to open one sealed 16 KiB reply frame (openOne) may not exceed
// the committed baseline by more than 10% (make bench-mem). Like the seal
// chain's gate it runs on plain builds only.
func TestOpenChainAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only stable on plain builds")
	}
	const runs = 100
	recv, wires := openChainFrames(t, runs+1)
	next := 0
	var failed error
	got := perRun(runs, func() {
		if err := openOne(recv, wires[next]); err != nil && failed == nil {
			failed = err
		}
		next++
	})
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("open chain, 16 KiB reply: %.1f allocs/op, %.0f B/op", got.AllocsPerOp, got.BytesPerOp)
	if *updateAllocBudget {
		budget := readAllocBudget(t)
		budget.OpenChain = &got
		writeAllocBudget(t, budget)
		return
	}
	want := readAllocBudget(t).OpenChain
	if want == nil {
		t.Fatal("no committed open-chain budget (run with -update-alloc-budget)")
	}
	if got.AllocsPerOp > want.AllocsPerOp*1.10 || got.BytesPerOp > want.BytesPerOp*1.10 {
		t.Errorf("open chain: %.1f allocs/op and %.0f B/op exceed the committed %.1f and %.0f by more than 10%%",
			got.AllocsPerOp, got.BytesPerOp, want.AllocsPerOp, want.BytesPerOp)
	}
}

// perRun is the mean heap cost of f over runs calls after one warm-up call,
// counted as testing.AllocsPerRun counts: on one processor, from the
// runtime's cumulative allocation statistics.
func perRun(runs int, f func()) opCost {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return opCost{
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(runs),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
	}
}

// TestSealChainAllocBudget gates the zero-copy seal chain's allocation
// count: a regression of more than 10% over the committed baseline fails
// (make bench-mem, run in CI). The race detector and coverage
// instrumentation add allocations of their own, so the gate only runs on
// plain builds — `make race` uses -short and skips it.
func TestSealChainAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only stable on plain builds")
	}
	measured := make(map[string]float64, len(benchSizes))
	for _, size := range benchSizes {
		conn := wireConn(t)
		rep := &giop.Reply{RequestID: 7, Status: giop.StatusNoException,
			Body: make([]byte, size)}
		var sink int
		var id uint64
		allocs := testing.AllocsPerRun(200, func() {
			id++
			frames, err := conn.SealGIOPWire(id, true, func(dst []byte) []byte {
				return giop.AppendReply(dst, cdr.BigEndian, rep)
			}, testSign, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range frames {
				sink += len(f.B)
			}
			ReleaseFrames(frames)
		})
		measured[fmt.Sprintf("%dB", size)] = allocs
	}
	budget := readAllocBudget(t)
	if *updateAllocBudget {
		budget.AllocsPerOp = measured
		writeAllocBudget(t, budget)
		t.Logf("baseline rewritten: %v", measured)
		return
	}
	for key, got := range measured {
		want, ok := budget.AllocsPerOp[key]
		if !ok {
			t.Errorf("%s: no committed budget (run with -update-alloc-budget)", key)
			continue
		}
		if got > want*1.10 {
			t.Errorf("%s: %.1f allocs/op exceeds committed baseline %.1f by more than 10%%",
				key, got, want)
		}
	}
}

// sendChainSize is the reply body the send chain is measured with: an
// echo_16k reply, which the default fragment size seals as one frame.
const sendChainSize = 16 << 10

// TestSendChainAllocBudget gates the send side end to end: sealing one
// 16 KiB reply and handing its frames to a TCP transport, which writes them
// to a socket and releases them to the arena. Beyond what sealing alone
// costs, Send may allocate one frame header per frame and nothing else —
// no copy of a payload — and the whole may not exceed the committed
// baseline by more than 10%. Like the other gates it runs on plain builds
// only.
func TestSendChainAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only stable on plain builds")
	}
	const runs = 200
	conn := wireConn(t)
	tr := sinkTransport(t)
	rep := &giop.Reply{RequestID: 7, Status: giop.StatusNoException, Body: make([]byte, sendChainSize)}
	var id uint64
	nframes := 0
	seal := func() []*pool.Buffer {
		id++
		frames, err := conn.SealGIOPWire(id, true, func(dst []byte) []byte {
			return giop.AppendReply(dst, cdr.BigEndian, rep)
		}, testSign, 0)
		if err != nil {
			t.Fatal(err)
		}
		nframes = len(frames)
		return frames
	}
	sealOnly := perRun(runs, func() { ReleaseFrames(seal()) })
	sent := perRun(runs, func() {
		before := pool.ReadStats()
		sendFrames(tr, seal())
		awaitPuts(t, before)
	})
	t.Logf("send chain, 16 KiB reply in %d frames: %.1f allocs/op, %.0f B/op (sealing alone %.1f, %.0f)",
		nframes, sent.AllocsPerOp, sent.BytesPerOp, sealOnly.AllocsPerOp, sealOnly.BytesPerOp)
	if extra := sent.AllocsPerOp - sealOnly.AllocsPerOp; extra > float64(nframes)+0.5 {
		t.Errorf("Send allocated %.1f times per reply of %d frames, want at most one header each", extra, nframes)
	}
	if extra := sent.BytesPerOp - sealOnly.BytesPerOp; extra > float64(nframes*64) {
		t.Errorf("Send allocated %.0f bytes per reply of %d frames: a payload was copied", extra, nframes)
	}
	if *updateAllocBudget {
		budget := readAllocBudget(t)
		budget.SendChain = &sent
		writeAllocBudget(t, budget)
		return
	}
	want := readAllocBudget(t).SendChain
	if want == nil {
		t.Fatal("no committed send-chain budget (run with -update-alloc-budget)")
	}
	if sent.AllocsPerOp > want.AllocsPerOp*1.10 || sent.BytesPerOp > want.BytesPerOp*1.10 {
		t.Errorf("send chain: %.1f allocs/op and %.0f B/op exceed the committed %.1f and %.0f by more than 10%%",
			sent.AllocsPerOp, sent.BytesPerOp, want.AllocsPerOp, want.BytesPerOp)
	}
}
