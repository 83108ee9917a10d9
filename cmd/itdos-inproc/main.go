// Command itdos-inproc measures the in-process layer budget and records it
// as a row of BENCH_INPROC.json: BenchmarkInProcCall (four replica nodes and
// a load node over loopback TCP, all in one process) run several times per
// workload, with the medians of ns/op, B/op and allocs/op and the CPU share
// of every layer and of every node.
//
//	go run ./cmd/itdos-inproc                      # this checkout, 5 runs
//	go run ./cmd/itdos-inproc -tree ../parent      # another checkout's row
//
// A layer is the innermost itdos/internal/<pkg> frame of a CPU sample's
// stack. Crypto and runtime work is split out first, wherever it is called
// from: Ed25519 verification and signing, HMAC, SHA-256, AES-GCM, allocation
// and garbage collection, system calls, and the scheduler. A node is the
// sample's pprof label node=<process>, which cluster.StartInProc sets on
// every goroutine a node starts. The profile is read from `go tool pprof
// -traces`, parsed here with the standard library.
//
// The row replaces an earlier row of the same commit and dirtiness in
// BENCH_INPROC.json in the working directory, and is also written alone to
// bench-out/INPROC_ROW.json for a CI artifact. The test binary and the
// profiles go to bench-out/inproc.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Schema names the layout of BENCH_INPROC.json.
const Schema = "itdos-inproc/1"

// What a row is: runs runs per workload of calls calls each, the fixed
// count make bench-inproc profiles at. Five runs state the spread; on a
// 2-core box they take about a minute a side.
const (
	runs  = 5
	calls = 3000
)

// Where the row and the work go, relative to the working directory.
const (
	benchFile = "BENCH_INPROC.json"
	rowFile   = "bench-out/INPROC_ROW.json"
	workDir   = "bench-out/inproc"
)

// workloads are BenchmarkInProcCall's sub-benchmarks, each profiled alone.
var workloads = []string{"add", "echo16k"}

// File is BENCH_INPROC.json.
type File struct {
	Schema string `json:"schema"`
	Rows   []Row  `json:"rows"`
}

// Row is one checkout measured on one machine.
type Row struct {
	// Commit is the checkout's HEAD; Dirty is set when its working tree
	// differed from it, so the row measures uncommitted code on top.
	Commit     string              `json:"commit"`
	Dirty      bool                `json:"dirty"`
	CPU        string              `json:"cpu"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Go         string              `json:"go"`
	Runs       int                 `json:"runs"`
	Calls      int                 `json:"calls"`
	Workloads  map[string]Workload `json:"workloads"`
}

// Workload is one sub-benchmark's medians over the runs, every run's ns/op
// (the spread), and the CPU share per bucket and per node over all runs'
// samples.
type Workload struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	NsPerOpRuns []float64          `json:"ns_per_op_runs"`
	Samples     int                `json:"samples"`
	Covered     float64            `json:"covered"`
	CPUShare    map[string]float64 `json:"cpu_share"`
	NodeShare   map[string]float64 `json:"node_share,omitempty"`
}

// Other is the bucket of samples no rule names, and the node of samples
// that carry no node label; Covered is one minus its bucket share.
const Other = "other"

// nodeLabel is the pprof label naming the node a sample ran for.
const nodeLabel = "node"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "itdos-inproc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("itdos-inproc", flag.ContinueOnError)
	tree := fs.String("tree", ".", "checkout to measure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	row, err := measure(*tree)
	if err != nil {
		return err
	}
	if err := writeJSON(rowFile, row); err != nil {
		return err
	}
	f := File{Schema: Schema}
	if raw, err := os.ReadFile(benchFile); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", benchFile, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Rows = addRow(f.Rows, row)
	return writeJSON(benchFile, f)
}

// addRow replaces the row of row's commit and dirtiness, or appends it.
func addRow(rows []Row, row Row) []Row {
	for i, r := range rows {
		if r.Commit == row.Commit && r.Dirty == row.Dirty {
			rows[i] = row
			return rows
		}
	}
	return append(rows, row)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// measure builds tree's cluster test binary and runs each workload runs
// times under the CPU profiler.
func measure(tree string) (Row, error) {
	work, err := filepath.Abs(workDir)
	if err != nil {
		return Row{}, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return Row{}, err
	}
	bin := filepath.Join(work, "cluster.test")
	build := exec.Command("go", "test", "-c", "-o", bin, "./internal/cluster")
	build.Dir, build.Stderr = tree, os.Stderr
	if err := build.Run(); err != nil {
		return Row{}, fmt.Errorf("build the cluster test binary in %s: %w", tree, err)
	}
	commit, dirty, err := gitState(tree)
	if err != nil {
		return Row{}, err
	}
	row := Row{Commit: commit, Dirty: dirty, CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Runs: runs, Calls: calls, Workloads: make(map[string]Workload)}
	for _, name := range workloads {
		var ns, bytesOp, allocs []float64
		counts, nodes := make(map[string]time.Duration), make(map[string]time.Duration)
		for i := 0; i < runs; i++ {
			prof := filepath.Join(work, fmt.Sprintf("%s-%d.cpu", name, i))
			res, err := benchOnce(bin, name, prof)
			if err != nil {
				return Row{}, err
			}
			ns, bytesOp, allocs = append(ns, res.ns), append(bytesOp, res.bytes), append(allocs, res.allocs)
			traces, err := exec.Command("go", "tool", "pprof", "-traces", bin, prof).Output()
			if err != nil {
				return Row{}, fmt.Errorf("pprof -traces %s: %w", prof, err)
			}
			samples, err := ParseTraces(bytes.NewReader(traces))
			if err != nil {
				return Row{}, fmt.Errorf("%s: %w", prof, err)
			}
			for _, s := range samples {
				counts[Bucket(s.Stack)] += s.Value
				node := s.Labels[nodeLabel]
				if node == "" {
					node = Other
				}
				nodes[node] += s.Value
			}
			fmt.Fprintf(os.Stderr, "%s run %d: %.0f ns/op %.0f B/op %.0f allocs/op\n", name, i+1, res.ns, res.bytes, res.allocs)
		}
		w := Workload{NsPerOp: median(ns), BytesPerOp: median(bytesOp), AllocsPerOp: median(allocs), NsPerOpRuns: ns}
		w.CPUShare, w.Samples = shares(counts)
		w.Covered = round(1 - w.CPUShare[Other])
		w.NodeShare, _ = shares(nodes)
		row.Workloads[name] = w
	}
	return row, nil
}

type benchResult struct{ ns, bytes, allocs float64 }

// benchLine matches a -benchmem result line of BenchmarkInProcCall, whose
// throughput and reported metrics sit between ns/op and B/op.
var benchLine = regexp.MustCompile(`^BenchmarkInProcCall/(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.e+-]+ \S+)*?\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

// benchOnce runs one workload once and writes its CPU profile to prof.
func benchOnce(bin, name, prof string) (benchResult, error) {
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", "InProcCall/"+name+"$",
		"-test.benchtime", fmt.Sprintf("%dx", calls), "-test.benchmem", "-test.cpuprofile", prof)
	cmd.Dir = filepath.Dir(prof)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return benchResult{}, fmt.Errorf("%s: %w\n%s", name, err, out)
	}
	res, ok := parseBench(string(out), name)
	if !ok {
		return benchResult{}, fmt.Errorf("%s: no result line in\n%s", name, out)
	}
	return res, nil
}

func parseBench(out, name string) (benchResult, bool) {
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || m[1] != name {
			continue
		}
		var res benchResult
		var err error
		for i, dst := range []*float64{&res.ns, &res.bytes, &res.allocs} {
			if *dst, err = strconv.ParseFloat(m[i+2], 64); err != nil {
				return benchResult{}, false
			}
		}
		return res, true
	}
	return benchResult{}, false
}

// Sample is one stack of a CPU profile, innermost frame first, the CPU time
// spent in it, and the pprof labels of the goroutine it ran on (nil when
// none).
type Sample struct {
	Value  time.Duration
	Stack  []string
	Labels map[string]string
}

// ParseTraces reads the text `go tool pprof -traces` prints: a header, then
// blocks between separator lines, each opening with one "key:  value" line
// per label of the sample, then the sample's value and its innermost frame,
// followed by one caller per line. Inline markers are dropped from frame
// names.
func ParseTraces(r io.Reader) ([]Sample, error) {
	var samples []Sample
	var cur *Sample
	var labels map[string]string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur, labels = nil, nil
			continue
		}
		frame := strings.TrimSpace(strings.TrimSuffix(line, " (inline)"))
		if frame == "" {
			continue
		}
		if cur == nil {
			if !strings.HasPrefix(line, " ") {
				continue // header
			}
			// A frame name may hold spaces (a generic's shape), the value
			// and a label key none.
			value, name, _ := strings.Cut(frame, " ")
			name = strings.TrimSpace(name)
			if key, ok := strings.CutSuffix(value, ":"); ok {
				if labels == nil {
					labels = make(map[string]string)
				}
				labels[key] = name
				continue
			}
			v, err := time.ParseDuration(value)
			if err != nil || name == "" {
				return nil, fmt.Errorf("trace opens with %q", line)
			}
			samples = append(samples, Sample{Value: v, Stack: []string{name}, Labels: labels})
			cur = &samples[len(samples)-1]
			continue
		}
		cur.Stack = append(cur.Stack, frame)
	}
	return samples, sc.Err()
}

// cryptoBuckets split out, in this order of precedence, the work of one
// primitive wherever it is called from: a frame with one of the prefixes
// puts the sample in the bucket. HMAC runs SHA-256, so it comes first.
var cryptoBuckets = []struct {
	name     string
	prefixes []string
}{
	{"ed25519.verify", []string{"crypto/ed25519.Verify", "crypto/internal/fips140/ed25519.verify", "crypto/internal/fips140/ed25519.Verify"}},
	{"ed25519.sign", []string{"crypto/ed25519.Sign", "crypto/internal/fips140/ed25519.sign", "crypto/internal/fips140/ed25519.Sign"}},
	{"hmac", []string{"crypto/hmac.", "crypto/internal/fips140/hmac."}},
	{"sha256", []string{"crypto/sha256.", "crypto/internal/fips140/sha256."}},
	{"aes_gcm", []string{"crypto/cipher.", "crypto/aes.", "crypto/internal/fips140/aes"}},
	{"alloc_gc", []string{"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone"}},
	{"syscall", []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.", "internal/syscall/"}},
}

// Bucket names the layer a stack's CPU time is charged to: a crypto or
// runtime bucket if any frame belongs to one, else the innermost
// itdos/internal package ("internal/pbft"; a nested package counts as its
// parent, internal/transport/tcp as internal/transport), else "sched" for a
// stack wholly in the runtime, else Other.
func Bucket(stack []string) string {
	for _, b := range cryptoBuckets {
		for _, f := range stack {
			for _, p := range b.prefixes {
				if strings.HasPrefix(f, p) {
					return b.name
				}
			}
		}
	}
	const internal = "itdos/internal/"
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, internal); ok {
			end := strings.IndexAny(rest, "./")
			if end < 0 {
				end = len(rest)
			}
			return "internal/" + rest[:end]
		}
	}
	for _, f := range stack {
		if !strings.HasPrefix(f, "runtime.") {
			return Other
		}
	}
	return "sched"
}

// shares turns CPU time per bucket (or node) into shares of the total, and
// counts the samples (10 ms each at the default rate) behind them.
func shares(counts map[string]time.Duration) (map[string]float64, int) {
	var total time.Duration
	for _, v := range counts {
		total += v
	}
	out := make(map[string]float64, len(counts))
	if total == 0 {
		return out, 0
	}
	for k, v := range counts {
		out[k] = round(float64(v) / float64(total))
	}
	return out, int(total / (10 * time.Millisecond))
}

func round(x float64) float64 { return float64(int64(x*10000+0.5)) / 10000 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gitState returns tree's HEAD and whether its working tree differs from
// it.
func gitState(tree string) (string, bool, error) {
	head, err := exec.Command("git", "-C", tree, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", false, fmt.Errorf("git rev-parse in %s: %w", tree, err)
	}
	status, err := exec.Command("git", "-C", tree, "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return "", false, fmt.Errorf("git status in %s: %w", tree, err)
	}
	return strings.TrimSpace(string(head)), len(bytes.TrimSpace(status)) > 0, nil
}

// cpuModel reads the processor name Linux reports, or names the
// architecture where it cannot.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
