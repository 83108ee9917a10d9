package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {25, 3.25}, {75, 7.75}, {99, 9.91}, {100, 10},
	} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("no samples: got %v, want NaN", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{9, 1, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// A p99 read off raw samples must see a tail that 13 histogram buckets
// capped at 5000 ms would flatten.
func TestPercentileKeepsTheTail(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = 5
	}
	for i := 0; i < 20; i++ {
		samples[i] = 9000 + float64(i)
	}
	s := sortedCopy(samples)
	if p50 := percentile(s, 50); p50 != 5 {
		t.Errorf("p50 = %v, want 5", p50)
	}
	if p99 := percentile(s, 99); p99 < 9000 {
		t.Errorf("p99 = %v, want the 9 s tail", p99)
	}
}

func TestParseStatCPU(t *testing.T) {
	// Command names may hold spaces and parentheses.
	line := "4242 (itdos) cluster)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 9 0 100 1000 100"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0; got.Seconds() != want { // (150+50) ticks at 100 Hz
		t.Errorf("cpu = %v, want %vs", got, want)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed line accepted")
	}
}
