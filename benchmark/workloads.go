package main

import "time"

// defaultSeconds is the --seconds value when none is given, and the
// run_seconds of BENCHMARK.json.
const defaultSeconds = 30

// minEpisodes is the fewest episodes an end-to-end run measures, however
// short --seconds is: setup_s is the median of one sample per episode.
const minEpisodes = 3

// tracedEpisodes is the fixed length of a traced run; the tracer follows
// the last episode, which also runs the post stages.
const tracedEpisodes = 2

// workload is one set of inputs: which operation, how many clients, and
// the stages of one episode. An episode is one fresh cluster: set-up, the
// pre stages, then rounds times the stages in order. Stage sizes are fixed
// call counts, not durations, so every episode, on either side of a later
// comparison, crosses the same history (checkpoints, log garbage
// collection, reply caches, the ordering queue's window): the product
// slows with its history (README "What the first runs found"), and a
// stage that ran at a different point of it each time measured that point,
// not the code. --seconds sets how many episodes a run measures, never
// their size.
//
// The box this runs on is shared, and its speed dips by a third for seconds
// at a time. So an episode repeats its stages in rounds, which spreads each
// metric's samples over the whole run, and the metric is the median of its
// per-round values over every episode.
type workload struct {
	name string
	why  string
	// echoBytes > 0 makes every call echo(string) of that many bytes;
	// 0 makes it add(double,double).
	echoBytes int
	// warm is the number of pool clients that complete one call during
	// set-up; steady workloads run on those only.
	warm int
	// fresh makes every measured call a client's first: each takes the
	// next unused pool client, so the pool must hold one per call.
	fresh bool
	// crash marks the workload that kills node0: only there is a view
	// change expected.
	crash bool
	// pre runs once at the start of every episode; stages run rounds times
	// per episode; post runs once, at the end of a traced run.
	pre, stages, post []stage
	rounds            int
}

// Among the stages, "sat" feeds tput_cps and cpu_ms_per_call, the closed
// loop with one caller feeds lat_c1_p50_ms, the one with four feeds
// lat_c4_p50_ms, and the open loop is the reference rate behind
// open_p50_ms. pre and post feed per-layer metrics only: the crash and its
// outage, and the upper rungs of the open-loop ladder, which may overload
// the system.
var workloads = []*workload{
	{
		name:   "add_small",
		why:    "16-byte add(): ordering and Ed25519 authentication do nearly all the work, payload bytes almost none",
		warm:   64,
		rounds: 4,
		stages: []stage{
			{name: "sat", callers: 32, calls: 190},
			{name: "c1", callers: 1, calls: 40},
			{name: "c4", callers: 4, calls: 130},
			{name: "open200", rate: 200, calls: 125},
		},
		post: []stage{
			{name: "open400", rate: 400, calls: 1000},
			{name: "open800", rate: 800, calls: 1200},
			{name: "c4late", callers: 4, calls: 600},
		},
	},
	{
		name:      "echo_16k",
		why:       "fresh 16 KiB string echoed by all four replicas: same message count as add_small, but marshal, seal, fragment and TCP bytes dominate",
		echoBytes: 16 << 10,
		warm:      64,
		rounds:    1,
		// One round per cluster: with 16 KiB messages throughput falls by a
		// sixth and the open loop's p50 rises by a tenth from one round of
		// this size to the next (README "What the first runs found").
		stages: []stage{
			{name: "open40", rate: 40, calls: 67},
			{name: "c1", callers: 1, calls: 40},
			{name: "c4", callers: 4, calls: 80},
			{name: "sat", callers: 32, calls: 160},
		},
	},
	{
		name:   "connect_cold",
		why:    "every call is a client's first: Group Manager ordering, DPRF shares and key install before one add, the cost steady workloads amortise away",
		warm:   1,
		fresh:  true,
		rounds: 1,
		// One round per cluster: a connection costs more the more of them
		// exist.
		stages: []stage{
			{name: "c1", callers: 1, calls: 32},
			{name: "sat", callers: 4, calls: 120},
			{name: "open20", rate: 20, calls: 30},
		},
	},
	{
		name:   "primary_crash",
		why:    "SIGKILL of the view-0 primary under scheduled arrivals, then closed loops on the three survivors, where the quorum is every one of them",
		warm:   64,
		crash:  true,
		rounds: 3,
		// The crash stage ends 2 s after the kill, past the view change and
		// the backlog it leaves; the same arrival rate continues in the
		// rounds, on three replicas.
		pre: []stage{
			{name: "crash", rate: 100, calls: 250, killAt: 500 * time.Millisecond},
		},
		stages: []stage{
			{name: "open100", rate: 100, calls: 60},
			{name: "c1", callers: 1, calls: 38},
			{name: "c4", callers: 4, calls: 130},
			{name: "sat", callers: 32, calls: 160},
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// episode lists the stage runs of one episode in execution order: pre,
// then rounds times the stages, then post when the episode ends a traced
// run.
func (w *workload) episode(withPost bool) []stage {
	out := append([]stage(nil), w.pre...)
	for r := 0; r < w.rounds; r++ {
		out = append(out, w.stages...)
	}
	if withPost {
		out = append(out, w.post...)
	}
	return out
}

// pool is the number of load-node clients the spec must hold.
func (w *workload) pool(episode []stage) int {
	n := w.warm
	if w.fresh {
		for _, st := range episode {
			n += st.calls
		}
	}
	return n
}
