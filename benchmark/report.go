package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. bound is the share of
// the parent's median an end-to-end metric may worsen by; per-layer metrics
// carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (see README "End-to-end metrics" for what each means
// per workload); BENCHMARK.json repeats this table and a test keeps the
// two in step.
//
// The bounds come from the spread measured over two sets of ten runs (see
// README "Spread"), not from the issue's wishes: on the shared sizing box
// nothing tighter holds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tput_cps", "calls/s", "higher", 0.25},
	{"cpu_ms_per_call", "ms", "lower", 0.25},
	{"lat_c1_p50_ms", "ms", "lower", 0.25},
	{"lat_c4_p50_ms", "ms", "lower", 0.25},
	{"open_p50_ms", "ms", "lower", 0.25},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// results collects the metrics of one run by name.
type results map[string]value

func (r results) set(name string, v float64, n int) { r[name] = value{v: v, n: n} }

// runOutcome is what one run of one workload reports.
type runOutcome struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	// violations lists every correctness failure: wrong or failed calls,
	// replicas that disagree on executions, a view change where none
	// belongs. Empty means correct.
	violations []string
	// notes are printed with the text report and fail nothing.
	notes   []string
	metrics results
	// rounds keeps the per-round values behind each end-to-end metric, for
	// the text report: how noisy the box was shows here.
	rounds map[string][]float64
}

// jsonNumber renders a value for the result line; JSON has no NaN or Inf,
// and a metric that could not be measured must not pass for a number.
func jsonNumber(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// resultLine renders the one JSON object the driver reads: exactly the keys
// correct, attempted, failed and metrics, the latter holding the metrics
// named by defs and nothing else.
func (o *runOutcome) resultLine(defs []metricDef) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		val, ok := o.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		out.Metrics[d.name] = metric{Value: jsonNumber(val.v), Unit: d.unit}
	}
	return json.Marshal(out)
}

// printText lists every metric measured, by name, with unit and sample
// count: defined metrics first in their table order, then any extras.
func (o *runOutcome) printText(w io.Writer) {
	mode := "end to end"
	if o.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d\n", o.workload, mode, o.attempted, o.failed)
	seen := map[string]bool{}
	line := func(name, unit string) {
		val := o.metrics[name]
		seen[name] = true
		fmt.Fprintf(w, "%-40s %14.4f %-8s n=%d\n", name, val.v, unit, val.n)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, ok := o.metrics[d.name]; ok {
				line(d.name, d.unit)
			}
		}
	}
	var extra []string
	for name := range o.metrics {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name, "")
	}
	for _, d := range endToEnd {
		if vals, ok := o.rounds[d.name]; ok {
			fmt.Fprintf(w, "# rounds %-18s", d.name)
			for _, v := range vals {
				fmt.Fprintf(w, " %.3f", v)
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "NOTE: %s\n", n)
	}
	for _, v := range o.violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}
