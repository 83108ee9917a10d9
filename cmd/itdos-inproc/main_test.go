package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tracesSample is `go tool pprof -traces` output, trimmed: a header and
// four stacks, one with an inlined frame and one whose innermost frame is a
// generic function named with spaces.
const tracesSample = `File: cluster.test
Build ID: 83457be2956eca468509e57523cdc92103271536
Type: cpu
Time: 2026-10-17 18:10:22 UTC
Duration: 613.25ms, Total samples = 480ms (78.27%)
-----------+-------------------------------------------------------
      10ms   runtime.unlock2
             runtime.unlockWithRank (inline)
             runtime.mcall
-----------+-------------------------------------------------------
      30ms   crypto/internal/fips140/edwards25519/field.feMul
             crypto/internal/fips140/ed25519.verify
             crypto/ed25519.Verify
             itdos/internal/pbft.verifyDigest
             itdos/internal/pbft.(*Replica).HandleMessage
-----------+-------------------------------------------------------
     1.25s   runtime.memmove
             itdos/internal/transport/tcp.(*Transport).deliver
-----------+-------------------------------------------------------
      10ms   crypto/internal/fips140/hmac.New[go.shape.interface { Reset; Size int }]
             itdos/internal/pbft.derivePairKey
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	samples, err := ParseTraces(strings.NewReader(tracesSample))
	if err != nil {
		t.Fatal(err)
	}
	want := []Sample{
		{10 * time.Millisecond, []string{"runtime.unlock2", "runtime.unlockWithRank", "runtime.mcall"}},
		{30 * time.Millisecond, []string{"crypto/internal/fips140/edwards25519/field.feMul",
			"crypto/internal/fips140/ed25519.verify", "crypto/ed25519.Verify",
			"itdos/internal/pbft.verifyDigest", "itdos/internal/pbft.(*Replica).HandleMessage"}},
		{1250 * time.Millisecond, []string{"runtime.memmove", "itdos/internal/transport/tcp.(*Transport).deliver"}},
		{10 * time.Millisecond, []string{"crypto/internal/fips140/hmac.New[go.shape.interface { Reset; Size int }]",
			"itdos/internal/pbft.derivePairKey"}},
	}
	if len(samples) != len(want) {
		t.Fatalf("%d samples, want %d: %+v", len(samples), len(want), samples)
	}
	for i := range want {
		if samples[i].Value != want[i].Value || strings.Join(samples[i].Stack, "|") != strings.Join(want[i].Stack, "|") {
			t.Errorf("sample %d: %+v, want %+v", i, samples[i], want[i])
		}
	}
	if _, err := ParseTraces(strings.NewReader("-----------+---\n   lots   of words here\n")); err == nil {
		t.Error("a trace opening without a value parsed")
	}
}

func TestBucket(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/internal/fips140/edwards25519.feMul", "crypto/ed25519.Verify", "itdos/internal/pbft.verifyDigest"}, "ed25519.verify"},
		{[]string{"crypto/internal/fips140/ed25519.sign", "crypto/ed25519.Sign", "itdos/internal/smiop.sign"}, "ed25519.sign"},
		{[]string{"crypto/internal/fips140/sha256.block", "crypto/internal/fips140/hmac.(*HMAC).Sum", "itdos/internal/pbft.tag"}, "hmac"},
		{[]string{"crypto/internal/fips140/sha256.block", "itdos/internal/srm.chainLink"}, "sha256"},
		{[]string{"crypto/internal/fips140/aes/gcm.seal", "itdos/internal/seckey.(*Channel).Seal"}, "aes_gcm"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "itdos/internal/cdr.(*Decoder).ReadString"}, "alloc_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "alloc_gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Write", "itdos/internal/transport/tcp.(*conn).flush"}, "syscall"},
		{[]string{"runtime.memmove", "itdos/internal/transport/tcp.(*Transport).deliver", "itdos/internal/pbft.x"}, "internal/transport"},
		{[]string{"itdos/internal/pbft.(*Replica).onRequest"}, "internal/pbft"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"sync.(*Mutex).Lock", "testing.(*B).run1"}, Other},
	} {
		if got := Bucket(tc.stack); got != tc.want {
			t.Errorf("%v: bucket %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestParseBench(t *testing.T) {
	out := "goos: linux\nBenchmarkInProcCall/echo16k-2 \t    3000\t    612345 ns/op\t  26.75 MB/s\t 1003456 B/op\t    4321 allocs/op\nPASS\n"
	res, ok := parseBench(out, "echo16k")
	if !ok || res != (benchResult{612345, 1003456, 4321}) {
		t.Fatalf("parsed %+v, %v", res, ok)
	}
	if _, ok := parseBench(out, "add"); ok {
		t.Error("found a workload the output does not hold")
	}
}

// TestBenchInprocShape pins the committed BENCH_INPROC.json: its schema,
// rows of at least five runs for both workloads, medians that are the
// medians of the recorded runs, shares that sum to one over known buckets,
// and buckets other than Other covering at least 90% of the samples. The
// file is in the form the tool writes, so a hand edit shows as a diff.
func TestBenchInprocShape(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_INPROC.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	canon, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(canon, '\n'), raw) {
		t.Error("BENCH_INPROC.json is not in the form itdos-inproc writes")
	}
	if f.Schema != Schema || len(f.Rows) < 2 {
		t.Fatalf("schema %q with %d rows, want %q with a parent row and a change row", f.Schema, len(f.Rows), Schema)
	}
	known := map[string]bool{"sched": true, Other: true}
	for _, b := range cryptoBuckets {
		known[b.name] = true
	}
	for _, row := range f.Rows {
		if row.Commit == "" || row.CPU == "" || row.GOMAXPROCS < 1 || row.Go == "" || row.Runs < 5 || row.Calls < 1 {
			t.Errorf("row %s: incomplete header %+v", row.Commit, row)
		}
		if len(row.Workloads) != len(workloads) {
			t.Errorf("row %s: %d workloads, want %v", row.Commit, len(row.Workloads), workloads)
		}
		for _, name := range workloads {
			w, ok := row.Workloads[name]
			if !ok {
				t.Errorf("row %s: no %s workload", row.Commit, name)
				continue
			}
			if len(w.NsPerOpRuns) != row.Runs || w.NsPerOp != median(w.NsPerOpRuns) {
				t.Errorf("row %s %s: ns/op %v is not the median of %d runs %v", row.Commit, name, w.NsPerOp, row.Runs, w.NsPerOpRuns)
			}
			if w.NsPerOp <= 0 || w.BytesPerOp <= 0 || w.AllocsPerOp <= 0 || w.Samples < 100 {
				t.Errorf("row %s %s: %+v", row.Commit, name, w)
			}
			sum := 0.0
			for bucket, share := range w.CPUShare {
				if pkg, ok := strings.CutPrefix(bucket, "internal/"); ok {
					if _, err := os.Stat(filepath.Join("..", "..", "internal", pkg)); err != nil {
						t.Errorf("row %s %s: bucket %s names no package", row.Commit, name, bucket)
					}
				} else if !known[bucket] {
					t.Errorf("row %s %s: unknown bucket %s", row.Commit, name, bucket)
				}
				sum += share
			}
			if math.Abs(sum-1) > 0.01 || w.Covered < 0.9 || math.Abs(w.Covered-(1-w.CPUShare[Other])) > 1e-9 {
				t.Errorf("row %s %s: shares sum to %.4f, %.4f covered", row.Commit, name, sum, w.Covered)
			}
		}
	}
}
