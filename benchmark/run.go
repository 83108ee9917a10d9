package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// sloLimitMS is the latency limit behind load.slo_rate_cps: the
// deployment's retransmission timeout (send_timeout_ms 500), past which
// load self-amplifies.
const sloLimitMS = 500

// p99MinSamples is the fewest samples a p99 is read from.
const p99MinSamples = 1000

// runWorkload runs one workload once and returns every metric it measured.
// An end-to-end run measures episodes, each on a fresh cluster, until the
// next one would end after seconds have passed; a traced run measures
// tracedEpisodes of them and traces the last.
func runWorkload(p *paths, w *workload, seed int64, seconds int, traced bool) (*runOutcome, error) {
	out := &runOutcome{workload: w.name, traced: traced, metrics: results{}, rounds: map[string][]float64{}}
	var tb *testbed
	defer func() {
		if tb != nil {
			tb.stop()
		}
	}()
	var done, episode []*stageResult // every stage run; those of the last episode
	var setups, rawSetups []float64
	var tr *tracer
	var first *input
	rssPeak := 0.0
	budget := time.Duration(seconds) * time.Second
	for ep, start := 0, time.Now(); ; ep++ {
		began := time.Now()
		last := traced && ep == tracedEpisodes-1
		stages := w.episode(last)
		// Inputs and schedules come from the seed alone, before the cluster
		// exists.
		inputs := make([][]input, len(stages))
		scheds := make([][]time.Duration, len(stages))
		for i, st := range stages {
			rng := rand.New(rand.NewSource(seed*1000003 + int64(ep)*1009 + int64(i)))
			inputs[i] = genInputs(rng, st.calls, w.echoBytes)
			if st.rate > 0 {
				scheds[i] = poissonSchedule(rng, st.rate, st.calls)
			}
		}

		speed := boxVerifyUS()
		var err error
		tb, err = startTestbed(p, w.pool(stages), w.warm, traced, w.name)
		if err != nil {
			return nil, err
		}
		before := speed
		speed = boxVerifyUS()
		rawSetups = append(rawSetups, tb.setup.Seconds())
		setups = append(setups, atNominal(tb.setup.Seconds(), (before+speed)/2))

		d := &driver{tb: tb, clients: tb.load.LocalClients()[:w.warm]}
		if w.fresh {
			d.fresh = tb.load.LocalClients()[w.warm:]
		}
		if last {
			if tr, err = startTracer(tb); err != nil {
				return nil, err
			}
		}
		episode, first = nil, &inputs[0][0]
		nth := map[string]int{}
		for i, st := range stages {
			edge := fmt.Sprintf("%s.%d", st.name, nth[st.name])
			nth[st.name]++
			tr.edge(edge + ".start")
			res := d.run(st, inputs[i], scheds[i])
			tr.edge(edge + ".end")
			before := speed
			speed = boxVerifyUS()
			res.verifyUS = (before + speed) / 2
			if i == len(stages)-len(w.post)-1 {
				tr.edge("rounds.end")
			}
			episode = append(episode, res)
			out.attempted += st.calls
			out.failed += res.failed
			if res.first != "" {
				out.violations = append(out.violations, res.first)
			}
			if err := tb.failed(); err != nil {
				return nil, err
			}
		}
		done = append(done, episode...)
		rssPeak = math.Max(rssPeak, tb.rssPeakMB())

		// An episode is never cut short. The run ends when the next one,
		// taking as long as this one, would end past the budget.
		if last || !traced && ep+1 >= minEpisodes && time.Since(start)+time.Since(began) > budget {
			break
		}
		tb.stop()
	}
	out.metrics.set("setup_s", median(setups), len(setups))
	out.metrics.set("raw.setup_s", median(rawSetups), len(rawSetups))
	endToEndMetrics(out, w, done)
	loadMetrics(out.metrics, w, done, rssPeak)
	if traced {
		// The last cluster is still up: the tracer drains it, then replays.
		if err := tr.finish(out, w, episode, p, first); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pick returns, in run order, the results of the stage runs satisfying
// want: one per round for a stage of the rounds, one per episode for a pre
// stage.
func pick(done []*stageResult, want func(*stageResult) bool) []*stageResult {
	var out []*stageResult
	for _, r := range done {
		if want(r) {
			out = append(out, r)
		}
	}
	return out
}

func named(name string) func(*stageResult) bool {
	return func(r *stageResult) bool { return r.name == name }
}

// closedLoop selects the runs of the workload's per-round closed-loop stage
// with n callers.
func closedLoop(w *workload, done []*stageResult, n int) []*stageResult {
	for _, st := range w.stages {
		if st.callers == n {
			return pick(done, named(st.name))
		}
	}
	return nil
}

// reference selects the runs of the workload's per-round open-loop stage: the
// reference rate.
func reference(w *workload, done []*stageResult) []*stageResult {
	for _, st := range w.stages {
		if st.rate > 0 {
			return pick(done, named(st.name))
		}
	}
	return nil
}

// pooled concatenates the successful latencies of several runs, in order.
func pooled(rs []*stageResult) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.completed()...)
	}
	return out
}

func sum(cpu cpuReading) time.Duration {
	var t time.Duration
	for _, c := range cpu {
		t += c
	}
	return t
}

// each maps rounds to one value apiece.
func each(rs []*stageResult, f func(*stageResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func roundP50(r *stageResult) float64 { return median(r.completed()) }

// endToEndMetrics computes what BENCHMARK.json lists under end_to_end.
func endToEndMetrics(out *runOutcome, w *workload, done []*stageResult) {
	m := out.metrics
	// Every end-to-end metric is the median of its per-round values, each
	// first brought to the box's nominal speed (see box.go): a burst of
	// interference spoils a minority of rounds.
	set := func(name string, rs []*stageResult, raw func(*stageResult) float64, norm func(v, verifyUS float64) float64) {
		rawVals, vals := each(rs, raw), make([]float64, len(rs))
		for i, r := range rs {
			vals[i] = norm(rawVals[i], r.verifyUS)
		}
		out.rounds[name] = vals
		n := len(pooled(rs))
		m.set(name, median(vals), n)
		m.set("raw."+name, median(rawVals), n)
	}
	if sat := pick(done, named("sat")); len(sat) > 0 {
		set("tput_cps", sat, func(r *stageResult) float64 {
			return float64(len(r.completed())) / r.elapsed.Seconds()
		}, rateAtNominal)
		set("cpu_ms_per_call", sat, func(r *stageResult) float64 {
			return ms(sum(r.cpu)) / float64(len(r.completed()))
		}, atNominal)
	}
	if c1 := closedLoop(w, done, 1); len(c1) > 0 {
		set("lat_c1_p50_ms", c1, roundP50, atNominal)
	}
	if c4 := closedLoop(w, done, 4); len(c4) > 0 {
		set("lat_c4_p50_ms", c4, roundP50, atNominal)
	}
	if open := reference(w, done); len(open) > 0 {
		set("open_p50_ms", open, roundP50, atNominal)
	}
}

// loadMetrics computes the generator- and process-side per-layer metrics,
// which need no scraping and so are measured in every run. They pool the
// raw samples of all rounds.
func loadMetrics(m results, w *workload, done []*stageResult, rssPeak float64) {
	attempted, failed := 0, 0
	var late, speeds []float64
	for _, r := range done {
		attempted += r.calls
		failed += r.failed
		late = append(late, r.late...)
		speeds = append(speeds, r.verifyUS)
	}
	m.set("box.verify_us", median(speeds), len(speeds))
	m.set("load.fail_share", float64(failed)/float64(attempted), attempted)
	if len(late) > 0 {
		m.set("load.late_p99_ms", percentile(sortedCopy(late), 99), len(late))
	}

	if sat := pick(done, named("sat")); len(sat) > 0 {
		var cpu cpuReading
		var elapsed time.Duration
		for _, r := range sat {
			for i, c := range r.cpu {
				cpu[i] += c
			}
			elapsed += r.elapsed
		}
		n := float64(len(pooled(sat)))
		primary := 0
		if w.crash {
			primary = 1 // view 1's primary, node0 being dead
		}
		backups, nb := time.Duration(0), 0
		for i := 0; i < replicas; i++ {
			if i != primary && cpu[i] > 0 {
				backups += cpu[i]
				nb++
			}
		}
		m.set("proc.primary_cpu_ms_per_call", ms(cpu[primary])/n, int(n))
		if nb > 0 {
			m.set("proc.backup_cpu_ms_per_call", ms(backups)/float64(nb)/n, int(n))
		}
		m.set("proc.load_cpu_ms_per_call", ms(cpu[replicas])/n, int(n))
		m.set("proc.cpu_busy_share",
			sum(cpu).Seconds()/(elapsed.Seconds()*float64(runtime.NumCPU())), int(n))
	}
	m.set("proc.rss_peak_mb", rssPeak, replicas+1)

	if lat := pooled(closedLoop(w, done, 4)); len(lat) > 0 {
		if len(lat) >= p99MinSamples {
			m.set("load.c4_p99_ms", percentile(sortedCopy(lat), 99), len(lat))
		}
		// The same four callers again once the run's history has passed
		// the ordering queue's capacity (4096 messages at the seed), over
		// what they saw before it.
		if late := pooled(pick(done, named("c4late"))); len(late) > 0 {
			m.set("load.history_p50_step", median(late)/median(lat), len(late))
		}
	}

	// The open-loop ladder: every open stage by its rate, and the highest
	// rung that meets the latency limit without a growing backlog.
	slo, rungs := 0.0, 0
	seen := map[string]bool{}
	for _, r := range done {
		if r.rate == 0 || seen[r.name] {
			continue
		}
		seen[r.name] = true
		runs := pick(done, named(r.name))
		lat := sortedCopy(pooled(runs))
		calls, backlog, fails := 0, 0, 0
		for _, rr := range runs {
			calls += rr.calls
			backlog += rr.backlog
			fails += rr.failed
		}
		prefix := "load." + r.name
		m.set(prefix+".p50_ms", percentile(lat, 50), len(lat))
		m.set(prefix+".backlog_end", float64(backlog), calls)
		if r.killed > 0 {
			// Longest due-to-completion among calls due after the kill,
			// the median over the episodes' kills.
			m.set("load.outage_s", median(each(runs, func(rr *stageResult) float64 {
				worst := 0.0
				for i, l := range rr.lat {
					if l >= 0 && rr.due[i] >= rr.killed {
						worst = math.Max(worst, l)
					}
				}
				return worst / 1000
			})), len(runs))
		}
		if len(lat) < p99MinSamples {
			continue
		}
		p99 := percentile(lat, 99)
		m.set(prefix+".p99_ms", p99, len(lat))
		if r.killed == 0 {
			rungs++
			if fails == 0 && p99 <= sloLimitMS && float64(backlog) <= 0.02*float64(calls) && r.rate > slo {
				slo = r.rate
			}
		}
	}
	if rungs > 1 {
		m.set("load.slo_rate_cps", slo, rungs)
	}
}

// runAll is the one-command mode: every workload, end to end and then
// traced, every metric printed by name.
func runAll(p *paths, names []string, seed int64, seconds int, modes []bool) (ok bool, err error) {
	ok = true
	for _, name := range names {
		w := findWorkload(name)
		var plain *runOutcome
		for _, traced := range modes {
			out, err := runWorkload(p, w, seed, seconds, traced)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			if !traced {
				plain = out
			} else if plain != nil {
				// The tracing overhead: how much the scraped, replayed
				// run's throughput differs from the clean run's.
				a, b := plain.metrics["tput_cps"].v, out.metrics["tput_cps"].v
				out.metrics.set("trace.overhead_share", (a-b)/a, 2)
			}
			out.printText(os.Stdout)
			ok = ok && len(out.violations) == 0
		}
	}
	return ok, nil
}

// watchdog kills the children and exits if a run overstays: the driver
// allows 180 s per run, so a hang must fail loudly before that.
func watchdog(limit time.Duration) {
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v, giving up; goroutines:\n", limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // diagnostics on the way out
		killAllLive()
		os.Exit(3)
	})
}
