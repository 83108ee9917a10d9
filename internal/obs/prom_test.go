package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// buildPromRegistry populates a registry with one of each instrument
// shape, including label-only-differing series of the same family.
func buildPromRegistry(order []string) *Registry {
	r := NewRegistry()
	r.Counter("itdos_calls_total").Add(7)
	for _, m := range order {
		r.Gauge("itc_suspicion", "member="+m).Set(float64(len(m)))
	}
	r.Counter("pbft_view_changes_total", "group=calc").Inc()
	h := r.Histogram("call_latency_ms", []float64{1, 5, 25}, "op=add")
	for _, v := range []float64{0.5, 2, 2, 30, 100} {
		h.Observe(v)
	}
	return r
}

// TestWriteProm checks the 0.0.4 text exposition rendering: TYPE headers,
// quoted labels, cumulative buckets.
func TestWriteProm(t *testing.T) {
	var buf bytes.Buffer
	if err := buildPromRegistry([]string{"calc/r0", "calc/r2"}).WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE itdos_calls_total counter",
		"itdos_calls_total 7",
		"# TYPE itc_suspicion gauge",
		`itc_suspicion{member="calc/r0"} 7`,
		`itc_suspicion{member="calc/r2"} 7`,
		`pbft_view_changes_total{group="calc"} 1`,
		"# TYPE call_latency_ms histogram",
		`call_latency_ms_bucket{op="add",le="1"} 1`,
		`call_latency_ms_bucket{op="add",le="5"} 3`,
		`call_latency_ms_bucket{op="add",le="25"} 3`,
		`call_latency_ms_bucket{op="add",le="+Inf"} 5`,
		`call_latency_ms_sum{op="add"} 134.5`,
		`call_latency_ms_count{op="add"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := (*Registry)(nil).WriteProm(&buf); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
}

// TestWritePromDeterministic requires byte-identical output across runs
// and across instrument registration orders — WriteProm is a pure
// function over registry contents.
func TestWritePromDeterministic(t *testing.T) {
	render := func(order []string) string {
		var buf bytes.Buffer
		if err := buildPromRegistry(order).WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]string{"calc/r0", "calc/r2"})
	b := render([]string{"calc/r2", "calc/r0"})
	if a != b {
		t.Fatalf("registration order leaked into exposition:\n%s\nvs\n%s", a, b)
	}
}

// TestPromEscape checks label-value escaping.
func TestPromEscape(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", `path=a\b"c`).Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `weird_total{path="a\\b\"c"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("escaping wrong, want %s in:\n%s", want, buf.String())
	}
}

// TestHistogramQuantile checks the interpolated estimate at the summary
// points bench reports (p50/p95/p99).
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{10, 20, 40})
	// 10 samples uniformly in (0,10]: p50 estimate = 5.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		t.Fatalf("p50 = %g, want 5", got)
	}
	// Add 10 samples in (10,20]: p50 sits at the 10-sample boundary.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	if got := h.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("p50 after second bucket = %g, want 10", got)
	}
	if got := h.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p75 = %g, want 15", got)
	}
	// Overflow clamps to the largest finite bound.
	h2 := r.Histogram("q2", []float64{10})
	h2.Observe(1e9)
	if got := h2.Quantile(0.99); got != 10 {
		t.Fatalf("overflow quantile = %g, want clamp to 10", got)
	}
	// Nil and empty.
	var hn *Histogram
	if hn.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
	if r.Histogram("empty", []float64{1}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

// TestRegistryJSONDeterministic is the regression test for instrument
// iteration order in the one exposition format, WriteProm: dumps must be
// byte-identical across runs and across registration orders, including
// instruments that differ only by label.
func TestRegistryJSONDeterministic(t *testing.T) {
	render := func(order []string) string {
		r := NewRegistry()
		for _, m := range order {
			r.Counter("votes_total", "member="+m).Inc()
			r.Gauge("depth", "member="+m).Set(1)
			r.Histogram("lat_ms", []float64{1, 10}, "member="+m).Observe(2)
		}
		r.Counter("votes_total").Inc() // bare name vs labelled variants
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	members := []string{"calc/r0", "calc/r1", "calc/r2", "gm/r0"}
	reversed := []string{"gm/r0", "calc/r2", "calc/r1", "calc/r0"}
	a := render(members)
	if b := render(reversed); a != b {
		t.Fatalf("registration order leaked into the dump:\n%s\nvs\n%s", a, b)
	}
	// And repeated identical runs stay byte-identical.
	for i := 0; i < 5; i++ {
		if c := render(members); c != a {
			t.Fatalf("run %d drifted:\n%s\nvs\n%s", i, c, a)
		}
	}
}
