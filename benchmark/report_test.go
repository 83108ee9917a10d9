package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestResultLineGolden(t *testing.T) {
	o := &runOutcome{workload: "add_small", attempted: 7000, metrics: results{}}
	for i, d := range endToEnd {
		o.metrics.set(d.name, float64(i)+0.125, 10)
	}
	o.metrics.set("load.fail_share", 0, 7000) // measured, not end to end: must stay out
	got, err := o.resultLine(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/result.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Errorf("result line changed:\n got %s\nwant %s", got, bytes.TrimSpace(want))
	}

	o.violations = []string{"add decided 4, want 3"}
	o.failed = 1
	got, err = o.resultLine(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), `{"correct":false,"attempted":7000,"failed":1,`) {
		t.Errorf("a violation must read correct=false: %s", got)
	}
}

func TestResultLineNeedsEveryMetric(t *testing.T) {
	o := &runOutcome{workload: "echo_16k", attempted: 1, metrics: results{"setup_s": {v: 1, n: 1}}}
	if _, err := o.resultLine(endToEnd); err == nil {
		t.Error("a run that measured one metric of six rendered a result line")
	}
	o.metrics.set("x", math.NaN(), 0)
	line, err := o.resultLine([]metricDef{{name: "x", unit: "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(line) {
		t.Errorf("NaN broke the JSON: %s", line)
	}
}

// BENCHMARK.json repeats the tables in report.go, trace.go and
// workloads.go; the driver reads the file, the program prints from the
// tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file says %q (%q), program says %q (%q)",
				i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the file, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: file says %+v, program says %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v, want %v", kind, d.name, g.Bound != nil, bounded)
			} else if bounded && *g.Bound != d.bound {
				t.Errorf("%s metric %s: bound %v in the file, %v in the program", kind, d.name, *g.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}
