package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/cluster"
)

// replicas is the number of replica processes: the product's default spec
// is f=1, so 3f+1 = 4.
const replicas = 4

// paths locates everything the benchmark reads and writes, all of it inside
// the checkout.
type paths struct {
	root   string // the checkout (module "itdos")
	out    string // benchmark/out: spec, logs, traces
	binary string // .bench_build/bin/itdos-cluster

	portCursor int // where the next search for free ports starts
}

// findPaths resolves the checkout root from the working directory, which is
// either the root itself or benchmark/ (go run -C benchmark).
func findPaths() (*paths, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module itdos\n")) {
			return &paths{
				root:   dir,
				out:    filepath.Join(dir, "benchmark", "out"),
				binary: filepath.Join(dir, ".bench_build", "bin", "itdos-cluster"),
			}, nil
		}
	}
	return nil, fmt.Errorf("no ITDOS checkout at %s or its parent (need go.mod with module itdos)", wd)
}

// buildCluster compiles the program under test from the checkout's source.
func (p *paths) buildCluster() error {
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", p.binary, "./cmd/itdos-cluster")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/itdos-cluster: %w\n%s", err, out)
	}
	return nil
}

// proc is one replica OS process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once Wait returned
	killed bool          // the benchmark killed it on purpose
}

// testbed is a running deployment: four replica processes plus this
// process joined as the "load" node.
type testbed struct {
	p       *paths
	procs   []*proc
	load    *cluster.Node
	spec    *cluster.Spec
	metrics []string // per replica "host:port" of /metrics, traced runs only
	setup   time.Duration

	mu   sync.Mutex
	dead error // first unexpected replica exit
}

// live holds every testbed with running children so a signal handler or a
// panic path can kill them all.
var live struct {
	sync.Mutex
	beds map[*testbed]bool
}

func killAllLive() {
	live.Lock()
	defer live.Unlock()
	for tb := range live.beds {
		tb.killProcs()
	}
}

// freeBasePort finds count consecutive free loopback ports below the
// kernel's ephemeral range, starting the search after *cursor.
func freeBasePort(cursor *int, count int) (int, error) {
	const lo, hi = 20000, 32000
	if *cursor < lo || *cursor >= hi {
		*cursor = lo + (os.Getpid()*37)%(hi-lo-100)
	}
	for tries := 0; tries < 200; tries++ {
		base := *cursor
		*cursor += count
		if *cursor+count >= hi {
			*cursor = lo
		}
		free := 0
		for ; free < count; free++ {
			ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+free))
			if err != nil {
				break
			}
			ln.Close()
		}
		if free == count {
			return base, nil
		}
	}
	return 0, errors.New("no run of free loopback ports found")
}

// startTestbed writes the product's default spec, spawns node0..node3, joins
// as the load node and completes one warm call on each of the first warm
// pool clients. Its duration, from the first spawn to the last warm reply,
// is the setup_s sample.
func startTestbed(p *paths, pool, warm int, traced bool, tag string) (tb *testbed, err error) {
	nports := replicas + 1
	if traced {
		nports += replicas
	}
	base, err := freeBasePort(&p.portCursor, nports)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(p.out, "cluster_"+tag+".json")
	initCmd := exec.Command(p.binary, "-init", "-spec", specPath,
		"-base-port", strconv.Itoa(base), "-pool", strconv.Itoa(pool))
	if out, err := initCmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("itdos-cluster -init: %w\n%s", err, out)
	}
	spec, err := cluster.ReadSpec(specPath)
	if err != nil {
		return nil, err
	}

	tb = &testbed{p: p, spec: spec}
	live.Lock()
	if live.beds == nil {
		live.beds = make(map[*testbed]bool)
	}
	live.beds[tb] = true
	live.Unlock()
	defer func() {
		if err != nil {
			tb.stop()
		}
	}()

	start := time.Now()
	for i := 0; i < replicas; i++ {
		name := "node" + strconv.Itoa(i)
		args := []string{"-spec", specPath, "-node", name}
		if traced {
			addr := "127.0.0.1:" + strconv.Itoa(base+replicas+1+i)
			args = append(args, "-metrics", addr)
			tb.metrics = append(tb.metrics, addr)
		}
		logf, err := os.Create(filepath.Join(p.out, tag+"_"+name+".log"))
		if err != nil {
			return tb, err
		}
		cmd := exec.Command(p.binary, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// A process group per child: one kill(-pgid) takes the replica and
		// anything it might have started.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return tb, fmt.Errorf("spawn %s: %w", name, err)
		}
		pr := &proc{name: name, cmd: cmd, log: logf, exited: make(chan struct{})}
		tb.procs = append(tb.procs, pr)
		go tb.reap(pr)
	}

	// Readiness by polling: every replica's listener must accept.
	for i, pr := range tb.procs {
		addr := spec.Nodes[i].Listen
		for {
			c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
			if err == nil {
				c.Close()
				break
			}
			if derr := tb.failed(); derr != nil {
				return tb, derr
			}
			if time.Since(start) > 30*time.Second {
				return tb, fmt.Errorf("%s did not listen on %s within 30s", pr.name, addr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	tb.load, err = cluster.NewNode(spec, "load", cluster.NodeOptions{})
	if err != nil {
		return tb, err
	}
	if err := tb.load.Start(); err != nil {
		return tb, err
	}
	clients := tb.load.LocalClients()
	if warm > len(clients) {
		return tb, fmt.Errorf("pool of %d clients cannot warm %d", len(clients), warm)
	}
	ref := cluster.CalcRef(spec.Domain)
	errs := make(chan error, warm)
	for _, c := range clients[:warm] {
		go func(c string) {
			vals, err := tb.load.Call(c, ref, "add", []cdr.Value{1.0, 2.0}, 30*time.Second)
			if err == nil && (len(vals) != 1 || vals[0] != cdr.Value(3.0)) {
				err = fmt.Errorf("warm call on %s decided %v, want 3", c, vals)
			}
			errs <- err
		}(c)
	}
	for i := 0; i < warm; i++ {
		if err := <-errs; err != nil {
			return tb, fmt.Errorf("warm-up: %w", err)
		}
	}
	tb.setup = time.Since(start)
	return tb, tb.failed()
}

// reap waits for one child and records an exit nobody asked for.
func (tb *testbed) reap(pr *proc) {
	err := pr.cmd.Wait()
	tb.mu.Lock()
	if !pr.killed && tb.dead == nil {
		tb.dead = fmt.Errorf("replica %s exited early (%v); see %s", pr.name, err, pr.log.Name())
	}
	tb.mu.Unlock()
	close(pr.exited)
}

// failed returns the first unexpected replica exit, if any.
func (tb *testbed) failed() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.dead
}

// sigkill marks one replica as killed on purpose and SIGKILLs its process
// group, without waiting: reap sees it go.
func (tb *testbed) sigkill(i int) {
	pr := tb.procs[i]
	tb.mu.Lock()
	pr.killed = true
	tb.mu.Unlock()
	_ = syscall.Kill(-pr.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: already gone
}

// kill is sigkill, then wait until the process is gone.
func (tb *testbed) kill(i int) {
	tb.sigkill(i)
	<-tb.procs[i].exited
}

func (tb *testbed) killProcs() {
	for i := range tb.procs {
		tb.kill(i)
	}
}

// stop closes the load node, kills every replica and waits for them.
func (tb *testbed) stop() {
	if tb.load != nil {
		tb.load.Close()
		tb.load = nil
	}
	tb.killProcs()
	for _, pr := range tb.procs {
		pr.log.Close()
	}
	live.Lock()
	delete(live.beds, tb)
	live.Unlock()
}

// alive lists the indices of replicas the benchmark has not killed.
func (tb *testbed) alive() []int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	var out []int
	for i, pr := range tb.procs {
		if !pr.killed {
			out = append(out, i)
		}
	}
	return out
}

// --- /proc readings ---

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 on every
// architecture Go supports.
const clockTick = 100

// cpuOf returns utime+stime of pid from /proc/<pid>/stat.
func cpuOf(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line; the command name in parentheses may hold spaces.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc stat line %q", stat)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// rssPeakMB returns VmHWM of pid in MiB (0 when the process is gone).
func rssPeakMB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssPeakMB is the largest VmHWM among the generator and the replicas the
// benchmark has not killed.
func (tb *testbed) rssPeakMB() float64 {
	peak := rssPeakMB(os.Getpid())
	for _, i := range tb.alive() {
		peak = math.Max(peak, rssPeakMB(tb.procs[i].cmd.Process.Pid))
	}
	return peak
}

// cpuReading is one sample of every process's CPU time; index replicas is
// the generator itself. A killed replica keeps its last reading.
type cpuReading [replicas + 1]time.Duration

func (tb *testbed) readCPU(prev cpuReading) cpuReading {
	r := prev
	for i, pr := range tb.procs {
		if d, err := cpuOf(pr.cmd.Process.Pid); err == nil {
			r[i] = d
		}
	}
	if d, err := cpuOf(os.Getpid()); err == nil {
		r[replicas] = d
	}
	return r
}

// --- /metrics scraping (traced runs) ---

// scrape fetches one replica's Prometheus text.
func scrape(addr string) (promSnapshot, error) {
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

// scrapeLoad reads the load node's registry on its own loop goroutine, the
// way the product's /metrics handler does.
func (tb *testbed) scrapeLoad() (promSnapshot, error) {
	var buf bytes.Buffer
	done := make(chan error, 1)
	tb.load.Tr.Post(func() { done <- tb.load.Metrics.WriteProm(&buf) })
	if err := <-done; err != nil {
		return nil, err
	}
	return parseProm(buf.String())
}

// scrapeAll reads the registry of the load node and of every live replica.
func (tb *testbed) scrapeAll() (procSnapshots, error) {
	ls, err := tb.scrapeLoad()
	if err != nil {
		return nil, err
	}
	all := procSnapshots{"load": ls}
	for _, i := range tb.alive() {
		s, err := scrape(tb.metrics[i])
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", tb.procs[i].name, err)
		}
		all[tb.procs[i].name] = s
	}
	return all, nil
}
