package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/cluster"
)

// callTimeout bounds one call; a call that hits it counts as failed. The
// longest call of a healthy run is primary_crash's outage, about 1.1 s.
const callTimeout = 10 * time.Second

// input is one generated call: add(a,b) when s is empty, echo(s) otherwise.
// The program under test sees only these values, never the seed.
type input struct {
	a, b float64
	s    string
}

func (in *input) op() string {
	if in.s != "" {
		return "echo"
	}
	return "add"
}

func (in *input) args() []cdr.Value {
	if in.s != "" {
		return []cdr.Value{in.s}
	}
	return []cdr.Value{in.a, in.b}
}

// check is the correctness gate on every decided value: the exact sum, or
// the byte-equal string.
func (in *input) check(vals []cdr.Value) error {
	if len(vals) != 1 {
		return fmt.Errorf("%s decided %d values, want 1", in.op(), len(vals))
	}
	if in.s != "" {
		if got, ok := vals[0].(string); !ok || got != in.s {
			return fmt.Errorf("echo decided a different string (%d bytes sent)", len(in.s))
		}
		return nil
	}
	if got, ok := vals[0].(float64); !ok || got != in.a+in.b {
		return fmt.Errorf("add(%g,%g) decided %v, want %g", in.a, in.b, vals[0], in.a+in.b)
	}
	return nil
}

// genInputs draws n calls from rng: echo strings of echoBytes printable
// characters when echoBytes > 0, pairs of doubles otherwise.
func genInputs(rng *rand.Rand, n, echoBytes int) []input {
	out := make([]input, n)
	buf := make([]byte, echoBytes)
	for i := range out {
		if echoBytes == 0 {
			out[i] = input{a: rng.Float64() * 1e6, b: rng.Float64() * 1e6}
			continue
		}
		for j := 0; j < len(buf); j += 8 {
			w := rng.Uint64()
			for k := j; k < j+8 && k < len(buf); k++ {
				buf[k] = ' ' + byte(w%95) // printable ASCII 0x20..0x7e
				w /= 95
			}
		}
		out[i] = input{s: string(buf)}
	}
	return out
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, generated up front so the schedule depends on the seed alone.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// stage is one phase of a workload: closed loop when callers > 0, open loop
// at rate otherwise.
type stage struct {
	name    string
	callers int
	rate    float64
	calls   int
	// killAt, when positive, SIGKILLs node0 as the first arrival due at or
	// after this offset is issued (open loop only).
	killAt time.Duration
}

// stageResult holds the raw per-call samples of one stage, indexed by call.
type stageResult struct {
	stage
	lat     []float64       // ms; due (open) or issue (closed) to completion; <0 = failed
	due     []time.Duration // open loop: scheduled offsets
	late    []float64       // open loop: ms between due time and actual issue
	elapsed time.Duration   // first issue to last completion
	failed  int
	first   string // a sample failure
	backlog int    // open loop: calls in flight when the last arrival was issued
	cpu     cpuReading
	killed  time.Duration // offset at which node0 was killed (0 = never)
	// verifyUS is the box's speed around this stage: the mean of the
	// reference readings taken just before and just after it.
	verifyUS float64
}

// completed lists the latencies of successful calls in call order.
func (r *stageResult) completed() []float64 {
	out := make([]float64, 0, len(r.lat))
	for _, l := range r.lat {
		if l >= 0 {
			out = append(out, l)
		}
	}
	return out
}

// driver issues calls through the load node's clients.
type driver struct {
	tb      *testbed
	clients []string // warmed clients, one per logical caller
	fresh   []string // connect_cold: clients never used, consumed in order
	next    atomic.Int64
	// broken is set by the first failed call. Workloads are chosen so that
	// no call fails; once one has, the run is incorrect whatever follows,
	// so the remaining calls are skipped rather than left to time out one
	// by one.
	broken atomic.Bool
}

// client picks the client for call i of caller k: the caller's own warm
// client, or the next unused one when the workload measures first calls.
func (d *driver) client(k int) (string, error) {
	if d.fresh == nil {
		return d.clients[k%len(d.clients)], nil
	}
	n := int(d.next.Add(1)) - 1
	if n >= len(d.fresh) {
		return "", fmt.Errorf("client pool exhausted after %d first calls", n)
	}
	return d.fresh[n], nil
}

var errSkipped = errors.New("skipped after an earlier failure")

func (d *driver) call(k int, in *input) (err error) {
	if d.broken.Load() {
		return errSkipped
	}
	defer func() {
		if err != nil {
			d.broken.Store(true)
		}
	}()
	c, err := d.client(k)
	if err != nil {
		return err
	}
	ref := cluster.CalcRef(d.tb.spec.Domain)
	vals, err := d.tb.load.Call(c, ref, in.op(), in.args(), callTimeout)
	if err != nil {
		return err
	}
	return in.check(vals)
}

// run executes one stage over its pre-generated inputs and schedule.
func (d *driver) run(st stage, inputs []input, sched []time.Duration) *stageResult {
	res := &stageResult{stage: st, lat: make([]float64, st.calls)}
	var mu sync.Mutex
	fail := func(i int, err error) {
		mu.Lock()
		res.lat[i] = -1
		res.failed++
		if res.first == "" && !errors.Is(err, errSkipped) {
			res.first = fmt.Sprintf("%s call %d: %v", st.name, i, err)
		}
		mu.Unlock()
	}
	before := d.tb.readCPU(cpuReading{})
	start := time.Now()
	var wg sync.WaitGroup
	if st.callers > 0 {
		var idx atomic.Int64
		for k := 0; k < st.callers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for {
					i := int(idx.Add(1)) - 1
					if i >= st.calls {
						return
					}
					t0 := time.Now()
					if err := d.call(k, &inputs[i]); err != nil {
						fail(i, err)
						continue
					}
					res.lat[i] = ms(time.Since(t0))
				}
			}(k)
		}
	} else {
		res.due = sched
		res.late = make([]float64, st.calls)
		var done atomic.Int64
		for i := 0; i < st.calls; i++ {
			if wait := sched[i] - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			if st.killAt > 0 && res.killed == 0 && sched[i] >= st.killAt {
				// Without waiting: arrivals keep their schedule through
				// the outage.
				d.tb.sigkill(0)
				res.killed = time.Since(start)
			}
			res.late[i] = ms(time.Since(start) - sched[i])
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := d.call(i, &inputs[i])
				if err != nil {
					fail(i, err)
				} else {
					// Timed from the due time: a stall charges every
					// arrival it delays, not only the one it hit.
					res.lat[i] = ms(time.Since(start) - sched[i])
				}
				done.Add(1)
			}(i)
		}
		res.backlog = st.calls - int(done.Load())
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	after := d.tb.readCPU(before)
	for i := range after {
		res.cpu[i] = after[i] - before[i]
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
