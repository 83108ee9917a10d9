package main

import (
	"fmt"
	"sync"
	"time"

	"itdos/internal/cluster"
	"itdos/internal/orb"
	"itdos/internal/replica"
)

// perLayer lists the metrics of single layers, prefixed by module name.
// None has a bound. Three sources, none of which touches program code:
// replay (…_ns, …_allocs: the benchmark calls each layer's public
// functions with the workload's own inputs), counters (the product's own
// /metrics, scraped at stage edges of the traced run, per completed call
// of the main stage and summed over processes), and the processes and
// generator themselves (proc.*, load.*). A metric a workload cannot
// measure reads 0 there; README.md says which.
var perLayer = []metricDef{
	// Replay.
	{"cdr.marshal_ns", "ns", "lower", 0},
	{"cdr.unmarshal_ns", "ns", "lower", 0},
	{"giop.encode_ns", "ns", "lower", 0},
	{"giop.decode_ns", "ns", "lower", 0},
	{"orb.dispatch_ns", "ns", "lower", 0},
	{"seckey.seal_ns", "ns", "lower", 0},
	{"seckey.open_ns", "ns", "lower", 0},
	{"smiop.seal_wire_ns", "ns", "lower", 0},
	{"smiop.open_ns", "ns", "lower", 0},
	{"smiop.fragments_per_msg", "count", "lower", 0},
	{"smiop.deliver_vote_ns", "ns", "lower", 0},
	{"pbft.sign_ns", "ns", "lower", 0},
	{"pbft.verify_ns", "ns", "lower", 0},
	{"pbft.encode_ns", "ns", "lower", 0},
	{"pbft.decode_ns", "ns", "lower", 0},
	{"pbft.batch_digest_ns", "ns", "lower", 0},
	{"vote.decide_ns", "ns", "lower", 0},
	{"dprf.eval_share_ns", "ns", "lower", 0},
	{"dprf.combine_ns", "ns", "lower", 0},
	{"transport.tcp.frame_ns", "ns", "lower", 0},
	{"transport.tcp.rtt_us", "us", "lower", 0},
	{"pool.hit_share", "ratio", "higher", 0},
	{"cdr.marshal_allocs", "count", "lower", 0},
	{"cdr.unmarshal_allocs", "count", "lower", 0},
	{"giop.encode_allocs", "count", "lower", 0},
	{"giop.decode_allocs", "count", "lower", 0},
	{"smiop.seal_wire_allocs", "count", "lower", 0},
	{"pbft.encode_allocs", "count", "lower", 0},
	{"pbft.decode_allocs", "count", "lower", 0},
	{"transport.tcp.frame_allocs", "count", "lower", 0},
	// Counters.
	{"transport.tcp.frames_per_call", "count", "lower", 0},
	{"transport.tcp.bytes_per_call", "bytes", "lower", 0},
	{"transport.tcp.frames_dropped", "count", "lower", 0},
	{"transport.tcp.conn_retries", "count", "lower", 0},
	{"transport.tcp.send_queue_depth_max", "count", "lower", 0},
	{"pbft.reqs_per_batch", "count", "higher", 0},
	{"pbft.preprepares_per_call", "count", "lower", 0},
	{"pbft.prepares_per_call", "count", "lower", 0},
	{"pbft.commits_per_call", "count", "lower", 0},
	{"pbft.checkpoints", "count", "lower", 0},
	{"pbft.view_changes", "count", "lower", 0},
	{"pbft.new_views", "count", "lower", 0},
	{"pbft.state_transfers", "count", "lower", 0},
	{"pbft.primary_backlog_max", "count", "lower", 0},
	{"srm.delivered_per_call", "count", "lower", 0},
	{"srm.queue_depth_max", "count", "lower", 0},
	{"srm.desyncs", "count", "lower", 0},
	{"smiop.envelopes_per_call", "count", "lower", 0},
	{"smiop.fragments_per_call", "count", "lower", 0},
	{"smiop.dropped", "count", "lower", 0},
	{"smiop.conn_retries", "count", "lower", 0},
	{"smiop.reply_fallbacks", "count", "lower", 0},
	{"vote.decisions_per_call", "count", "lower", 0},
	{"vote.fault_reports", "count", "lower", 0},
	{"groupmgr.open_requests", "count", "lower", 0},
	{"groupmgr.shares_per_conn", "count", "lower", 0},
	{"orb.call_errors", "count", "lower", 0},
	{"netsim.msgs_per_call", "count", "lower", 0},
	{"netsim.bytes_per_call", "bytes", "lower", 0},
	{"netsim.vt_latency_ms", "ms", "lower", 0},
	// Processes and generator.
	{"proc.primary_cpu_ms_per_call", "ms", "lower", 0},
	{"proc.backup_cpu_ms_per_call", "ms", "lower", 0},
	{"proc.load_cpu_ms_per_call", "ms", "lower", 0},
	{"proc.cpu_busy_share", "ratio", "higher", 0},
	{"proc.rss_peak_mb", "MiB", "lower", 0},
	{"load.late_p99_ms", "ms", "lower", 0},
	{"load.open_ref_p50_ms", "ms", "lower", 0},
	{"load.open_ref_p99_ms", "ms", "lower", 0},
	{"load.open_ref_backlog_end", "count", "lower", 0},
	{"load.c4_p99_ms", "ms", "lower", 0},
	{"load.history_p50_step", "ratio", "lower", 0},
	{"load.slo_rate_cps", "calls/s", "higher", 0},
	{"load.outage_s", "s", "lower", 0},
	{"load.fail_share", "ratio", "lower", 0},
	{"box.verify_us", "us", "lower", 0},
	{"raw.setup_s", "s", "lower", 0},
	{"raw.tput_cps", "calls/s", "higher", 0},
	{"raw.cpu_ms_per_call", "ms", "lower", 0},
	{"raw.lat_c1_p50_ms", "ms", "lower", 0},
	{"raw.lat_c4_p50_ms", "ms", "lower", 0},
	{"raw.open_p50_ms", "ms", "lower", 0},
	{"trace.cpu_explained_share", "ratio", "higher", 0},
	{"trace.c1_explained_share", "ratio", "higher", 0},
}

// tracer scrapes the product's own counters during a traced run: at every
// stage edge, and every sampleEvery in between for the gauges.
type tracer struct {
	tb *testbed

	mu      sync.Mutex
	edges   map[string]procSnapshots
	samples []procSnapshots
	err     error

	stop chan struct{}
	done chan struct{}
}

const sampleEvery = 250 * time.Millisecond

func startTracer(tb *testbed) (*tracer, error) {
	t := &tracer{tb: tb, edges: map[string]procSnapshots{}, stop: make(chan struct{}), done: make(chan struct{})}
	first, err := tb.scrapeAll()
	if err != nil {
		return nil, err
	}
	t.edges["start"] = first
	go func() {
		defer close(t.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				// A replica killed on purpose fails its scrape once; the
				// next sample no longer asks it.
				if s, err := tb.scrapeAll(); err == nil {
					t.mu.Lock()
					t.samples = append(t.samples, s)
					t.mu.Unlock()
				}
			}
		}
	}()
	return t, nil
}

// across sums a counter family's growth over every run of the named stage.
func (t *tracer) across(stage, name string, having ...string) float64 {
	total := 0.0
	for i := 0; ; i++ {
		before, ok := t.edges[fmt.Sprintf("%s.%d.start", stage, i)]
		after, ok2 := t.edges[fmt.Sprintf("%s.%d.end", stage, i)]
		if !ok || !ok2 {
			return total
		}
		total += delta(before, after, name, having...)
	}
}

// edge records a scrape under the given name. A nil tracer (end-to-end
// run) records nothing.
func (t *tracer) edge(name string) {
	if t == nil {
		return
	}
	s, err := t.tb.scrapeAll()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		if t.err == nil {
			t.err = fmt.Errorf("scrape at %s: %w", name, err)
		}
		return
	}
	t.edges[name] = s
	t.samples = append(t.samples, s)
}

// drained waits until the surviving replicas agree on how many batches
// each ordering group executed, and returns the final scrape.
func (t *tracer) drained() (procSnapshots, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := t.tb.scrapeAll()
		if err != nil {
			return nil, err
		}
		agree := true
		for _, group := range []string{`group="gm"`, `group="` + t.tb.spec.Domain + `"`} {
			seen, first := false, 0.0
			for proc, snap := range s {
				if proc == "load" {
					continue
				}
				v := snap.sum("pbft_executions_total", group)
				if seen && v != first {
					agree = false
				}
				seen, first = true, v
			}
		}
		if agree {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("replicas still disagree on pbft_executions_total 5s after the last call")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// finish ends the traced run: drain and agreement checks, the counters per
// completed call, then (cluster still up but idle) the replay, the netsim
// twin and the two budget checks. done holds the stage runs of the traced
// episode only: the counters saw no other.
func (t *tracer) finish(out *runOutcome, w *workload, done []*stageResult, p *paths, in *input) error {
	close(t.stop)
	<-t.done
	if t.err != nil {
		return t.err
	}
	last, err := t.drained()
	if err != nil {
		out.violations = append(out.violations, err.Error())
	}
	m := out.metrics
	first := t.edges["start"]
	total := func(name string, having ...string) float64 { return delta(first, last, name, having...) }

	// A view change where nothing was killed is reported, not failed: the
	// product's 400 ms view timeout fires whenever the shared box stalls a
	// primary that long (about one traced add_small run in eight at the
	// seed), and the post stages overload the system on purpose. Safety is
	// what the gates above check.
	if vc := total("pbft_view_changes_total"); vc != 0 && !w.crash {
		out.notes = append(out.notes, fmt.Sprintf(
			"%g view changes (%g in the gm group, %g before the post stages) though nothing was killed",
			vc, total("pbft_view_changes_total", `group="gm"`),
			delta(first, t.edges["rounds.end"], "pbft_view_changes_total")))
	}

	// Per-call counts come from the main stage, summed over its rounds:
	// sat, or the crash stage.
	mainName := "sat"
	if w.crash {
		mainName = w.pre[0].name
	}
	calls := float64(len(pooled(pick(done, named(mainName)))))
	n := int(calls)
	per := func(metric, name string, having ...string) {
		m.set(metric, t.across(mainName, name, having...)/calls, n)
	}
	per("transport.tcp.frames_per_call", "tcp_frames_sent_total")
	per("transport.tcp.bytes_per_call", "tcp_bytes_sent_total")
	per("pbft.preprepares_per_call", "pbft_preprepares_total")
	per("pbft.prepares_per_call", "pbft_prepares_total")
	per("pbft.commits_per_call", "pbft_commits_total")
	per("srm.delivered_per_call", "srm_delivered_total")
	per("smiop.envelopes_per_call", "smiop_envelopes_total")
	per("smiop.fragments_per_call", "smiop_fragments_total")
	per("vote.decisions_per_call", "vote_decisions_total")
	if batches := t.across(mainName, "pbft_batches_total"); batches > 0 {
		m.set("pbft.reqs_per_batch", t.across(mainName, "pbft_batched_requests_total")/batches, int(batches))
	}

	// Events are totals from the end of set-up to the drained end.
	runCalls := 0
	for _, r := range done {
		runCalls += len(r.completed())
	}
	for metric, name := range map[string]string{
		"transport.tcp.frames_dropped": "tcp_frames_dropped_total",
		"transport.tcp.conn_retries":   "tcp_conn_retries_total",
		"pbft.checkpoints":             "pbft_checkpoints_total",
		"pbft.view_changes":            "pbft_view_changes_total",
		"pbft.new_views":               "pbft_new_views_total",
		"pbft.state_transfers":         "pbft_state_transfers_total",
		"srm.desyncs":                  "srm_desyncs_total",
		"smiop.dropped":                "smiop_dropped_total",
		"smiop.conn_retries":           "smiop_conn_retries_total",
		"smiop.reply_fallbacks":        "smiop_reply_fallback_total",
		"vote.fault_reports":           "vote_fault_reports_total",
		"orb.call_errors":              "orb_call_errors_total",
		"groupmgr.open_requests":       "gm_open_requests_total",
	} {
		m.set(metric, total(name), runCalls)
	}
	// Shares per connection over the processes' whole life, set-up
	// included: steady workloads open every connection there.
	opens, shares := 0.0, 0.0
	for _, snap := range last {
		opens += snap.sum("gm_open_requests_total")
		shares += snap.sum("gm_shares_issued_total")
	}
	if opens > 0 {
		m.set("groupmgr.shares_per_conn", shares/opens, int(opens))
	}
	t.mu.Lock()
	samples := t.samples
	t.mu.Unlock()
	m.set("transport.tcp.send_queue_depth_max", gaugeMax(samples, "tcp_send_queue_depth"), len(samples))
	m.set("pbft.primary_backlog_max", gaugeMax(samples, "pbft_primary_backlog"), len(samples))
	m.set("srm.queue_depth_max", gaugeMax(samples, "srm_queue_depth"), len(samples))

	if err := replayLayers(p, w, in, m); err != nil {
		return err
	}
	if err := netsimTwin(t.tb.spec, w, m); err != nil {
		return err
	}
	budget(m, t.tb.spec)

	// Names that vary by workload get one shared per-layer name.
	if open := reference(w, done); len(open) > 0 {
		for _, k := range []string{"p50_ms", "p99_ms", "backlog_end"} {
			if v, ok := m["load."+open[0].name+"."+k]; ok {
				m["load.open_ref_"+k] = v
			}
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0, 0) // not measurable in this workload
		}
	}
	return nil
}

// twinCalls is the length of the deterministic twin run.
const twinCalls = 200

// netsimTwin runs twinCalls sequential calls of the workload on the
// product's seeded simulator (every message delayed a constant 1 ms, one
// scheduler), where counts repeat exactly from run to run.
func netsimTwin(spec *cluster.Spec, w *workload, m results) error {
	cfg := replica.SystemConfig{
		Seed:              spec.Seed,
		DeterministicKeys: true,
		Registry:          cluster.CalcRegistry(),
		ConfigSecret:      []byte(spec.Secret),
		GM:                replica.GroupSpec{N: spec.N(), F: spec.F},
		SendTimeout:       spec.SendTimeout(),
		MaxBatch:          spec.MaxBatch,
		BatchWait:         time.Duration(spec.BatchWaitMS) * time.Millisecond,
		Domains: []replica.DomainSpec{{
			Name: spec.Domain, N: spec.N(), F: spec.F,
			Setup: func(_ int, adapter *orb.Adapter) error {
				return adapter.Register(cluster.CalcKey, cluster.CalcIface, cluster.CalcServant())
			},
		}},
	}
	clients := 1
	if w.fresh {
		clients = twinCalls
	}
	for i := 0; i < clients; i++ {
		cfg.Clients = append(cfg.Clients, replica.ClientSpec{Name: fmt.Sprintf("twin-c%d", i)})
	}
	sys, err := replica.NewSystem(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	ref := cluster.CalcRef(spec.Domain)
	call := func(i int, in *input) error {
		c := sys.Client(fmt.Sprintf("twin-c%d", i%clients))
		vals, err := c.CallAndRun(ref, in.op(), in.args(), 10_000_000)
		if err != nil {
			return err
		}
		return in.check(vals)
	}
	// A fixed input: the twin's point is counts that never vary.
	in := &input{a: 20, b: 22}
	if w.echoBytes > 0 {
		buf := make([]byte, w.echoBytes)
		for i := range buf {
			buf[i] = 'a' + byte(i%26)
		}
		in = &input{s: string(buf)}
	}
	if !w.fresh {
		if err := call(0, in); err != nil { // open the one connection first
			return fmt.Errorf("netsim twin: %w", err)
		}
	}
	s0, t0 := sys.Net.Stats(), sys.Net.Now()
	for i := 0; i < twinCalls; i++ {
		if err := call(i, in); err != nil {
			return fmt.Errorf("netsim twin call %d: %w", i, err)
		}
	}
	s1, t1 := sys.Net.Stats(), sys.Net.Now()
	m.set("netsim.msgs_per_call", float64(s1.MessagesSent-s0.MessagesSent)/twinCalls, twinCalls)
	m.set("netsim.bytes_per_call", float64(s1.BytesSent-s0.BytesSent)/twinCalls, twinCalls)
	m.set("netsim.vt_latency_ms", ms(t1-t0)/twinCalls, twinCalls)
	return nil
}

// budget re-derives the two headline costs from what each layer charges:
// replayed time per operation times how often the counters say it runs.
// The shares say how much of the measured number the model accounts for;
// the rest is what no replay covers (system calls, scheduling, GC, and at
// one caller the idle wake-ups between hops).
func budget(m results, spec *cluster.Spec) {
	g := func(name string) float64 { return m[name].v }
	n, f := float64(spec.N()), float64(spec.F)
	sent := g("pbft.preprepares_per_call") + g("pbft.prepares_per_call") + g("pbft.commits_per_call")
	recv := g("pbft.decode_ns") + g("pbft.verify_ns")
	send := g("pbft.sign_ns") + g("pbft.encode_ns")
	inbound := g("smiop.deliver_vote_ns") / n // one copy: open, verify, unmarshal, vote
	execute := inbound + g("orb.dispatch_ns") + g("cdr.marshal_ns") + g("smiop.seal_wire_ns")

	cpu := g("cdr.marshal_ns") + g("smiop.seal_wire_ns") + send + // client out
		g("smiop.deliver_vote_ns") + n*recv + // client in: data replies, ordering acks
		n*(recv+g("pbft.batch_digest_ns")) + // every replica authenticates the request
		sent*send + (n-1)*sent*recv + // pre-prepare, prepares, commits
		n*(execute+send) + // execute, reply, acknowledge
		g("transport.tcp.frames_per_call")*g("transport.tcp.frame_ns")
	if measured := g("cpu_ms_per_call"); measured > 0 {
		m.set("trace.cpu_explained_share", cpu/1e6/measured, m["cpu_ms_per_call"].n)
	}

	hop := g("transport.tcp.rtt_us")*1e3/2 + g("transport.tcp.frame_ns")
	c1 := g("cdr.marshal_ns") + g("smiop.seal_wire_ns") + send + hop + // client to primary
		recv + float64(spec.BatchWaitMS)*1e6 + g("pbft.batch_digest_ns") + send + hop + // pre-prepare
		recv + g("pbft.verify_ns") + send + hop + // backup: batch and request signatures, prepare
		2*f*recv + send + hop + // 2f prepares, commit
		2*f*recv + execute + hop + // 2f more commits, execute, reply
		(f+1)*inbound // the vote decides at f+1 matching replies
	if measured := g("lat_c1_p50_ms"); measured > 0 {
		m.set("trace.c1_explained_share", c1/1e6/measured, m["lat_c1_p50_ms"].n)
	}
}
