package smiop

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
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

// allocBudget is the committed allocation baseline for the zero-copy seal
// chain, keyed by payload size. Regenerate with:
//
//	go test ./internal/smiop -run TestSealChainAllocBudget -update-alloc-budget
type allocBudget struct {
	// AllocsPerOp maps "<size>B" to the measured allocations per sealed
	// reply at the time the baseline was committed.
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
}

const allocBudgetPath = "testdata/alloc_budget.json"

var updateAllocBudget = flag.Bool("update-alloc-budget", false,
	"rewrite testdata/alloc_budget.json with current measurements")

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
	if *updateAllocBudget {
		out, err := json.MarshalIndent(allocBudget{AllocsPerOp: measured}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allocBudgetPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline rewritten: %v", measured)
		return
	}
	raw, err := os.ReadFile(allocBudgetPath)
	if err != nil {
		t.Fatalf("no committed baseline (run with -update-alloc-budget): %v", err)
	}
	var budget allocBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
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
