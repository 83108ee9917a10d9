package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock is a settable deterministic clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("msgs_total", "layer=smiop")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}
	if r.Counter("msgs_total", "layer=smiop") != c {
		t.Fatal("same name+labels must return the same counter handle")
	}
	if r.Counter("msgs_total", "layer=orb") == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("window")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge value = %g, want 3", got)
	}

	h := r.Histogram("latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); got != 556.5 {
		t.Fatalf("histogram sum = %g, want 556.5", got)
	}
	want := []uint64{2, 1, 1, 1} // le1: {0.5, 1}; le10: {5}; le100: {50}; inf: {500}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	// First registration's bounds win.
	if h2 := r.Histogram("latency", []float64{7}); h2 != h {
		t.Fatal("same histogram identity must return the same handle")
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(7)
	r.Gauge("y").Set(1)
	r.Gauge("y").Add(1)
	r.Histogram("z", []float64{1}).Observe(3)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 || r.Histogram("z", nil).Count() != 0 {
		t.Fatal("nil registry instruments must read zero")
	}
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerTree(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk)

	root := tr.Start("invoke", "op=inc")
	clk.now = 1 * time.Millisecond
	m := tr.Start("orb.marshal")
	clk.now = 2 * time.Millisecond
	m.End()
	if tr.Current() != root {
		t.Fatal("ending a child must pop currency to the parent")
	}
	det := tr.StartDetached("srm.order")
	if tr.Current() != root {
		t.Fatal("StartDetached must not change currency")
	}
	clk.now = 5 * time.Millisecond
	det.End() // async end: currency untouched
	if tr.Current() != root {
		t.Fatal("ending a non-current span must not change currency")
	}
	root.End()
	if tr.Current() != nil {
		t.Fatal("ending the root must clear currency")
	}

	if len(tr.Roots()) != 1 || tr.FindRoot("invoke") != root {
		t.Fatalf("roots = %v", tr.Roots())
	}
	if len(root.Children) != 2 || root.Children[0] != m || root.Children[1] != det {
		t.Fatal("children not recorded in start order")
	}
	if m.Begin != 1*time.Millisecond || m.Finish != 2*time.Millisecond {
		t.Fatalf("span times = [%v, %v]", m.Begin, m.Finish)
	}
	if !det.Ended() || det.Finish != 5*time.Millisecond {
		t.Fatal("detached span end not recorded")
	}
}

func TestTracerWithCurrent(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk)

	parked := tr.Start("invoke")
	tr.SetCurrent(nil) // simulate the ORB thread parking

	other := tr.Start("other") // unrelated driver work becomes a new root
	restore := tr.WithCurrent(parked)
	child := tr.Start("smiop.deliver")
	if child.parent != parked {
		t.Fatal("span under WithCurrent must attach to the restored span")
	}
	child.End()
	restore()
	if tr.Current() != other {
		t.Fatal("restore must bring back the previous currency")
	}
	other.End()
	parked.End()
}

func TestTracerDump(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk)
	root := tr.Start("invoke", "op=inc")
	clk.now = 250 * time.Microsecond
	c := tr.Start("orb.marshal")
	clk.now = 500 * time.Microsecond
	c.End()
	clk.now = time.Millisecond
	root.End()

	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump lines = %q", lines)
	}
	if !strings.Contains(lines[0], "invoke") || !strings.Contains(lines[0], "op=inc") {
		t.Fatalf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  ") || !strings.Contains(lines[1], "orb.marshal") {
		t.Fatalf("child line must be indented: %q", lines[1])
	}
	if !strings.Contains(lines[1], "+0.250ms") {
		t.Fatalf("child duration missing: %q", lines[1])
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if NewTracer(nil) != nil {
		t.Fatal("NewTracer(nil) must return nil")
	}
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil tracer Start must return nil")
	}
	s.End()
	s.Annotate("k", "v")
	tr.StartDetached("y").End()
	tr.SetCurrent(nil)
	tr.WithCurrent(nil)()
	if tr.Current() != nil || tr.Roots() != nil || tr.FindRoot("x") != nil {
		t.Fatal("nil tracer accessors must return zero values")
	}
	if err := tr.Dump(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// Micro-benchmarks: the nil path must be branch-cheap.

func BenchmarkCounterIncLive(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkSpanStartEndLive(b *testing.B) {
	tr := NewTracer(&fakeClock{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Start("bench").End()
	}
}

func BenchmarkSpanStartEndNil(b *testing.B) {
	var tr *Tracer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Start("bench").End()
	}
}
