package main

import (
	"os"
	"testing"
)

// testdata/metrics.prom is node1's /metrics as itdos-cluster served it
// after 40 calls from a pool of 3 clients.
func TestParsePromFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := parseProm(string(data))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`gm_open_requests_total`:                      3,
		`gm_shares_issued_total`:                      15,
		`pbft_executions_total{group="calc"}`:         32,
		`pbft_executions_total{group="gm"}`:           1,
		`pbft_batch_size_bucket{group="calc",le="2"}`: 24,
		`tcp_frames_sent_total`:                       345,
		`vote_decisions_total{mode="eager-f+1"}`:      43,
	} {
		if got, ok := snap[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if got := snap.sum("pbft_executions_total"); got != 33 {
		t.Errorf("executions over both groups = %v, want 33", got)
	}
	if got := snap.sum("pbft_executions_total", `group="gm"`); got != 1 {
		t.Errorf("executions of the gm group = %v, want 1", got)
	}
	// A family name that prefixes another must not swallow it.
	if got := snap.sum("pbft_batch_size"); got != 0 {
		t.Errorf("sum of the bare histogram family = %v, want 0 (only _bucket/_sum/_count series exist)", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, text := range []string{"novalue\n", "x{a=\"b\"} notanumber\n"} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted", text)
		}
	}
	snap, err := parseProm("# TYPE x counter\n\nx{path=\"a b\"} 4\n")
	if err != nil || snap[`x{path="a b"}`] != 4 {
		t.Errorf("label value with a space: snap %v, err %v", snap, err)
	}
}

func TestDeltaSkipsKilledProcess(t *testing.T) {
	before := procSnapshots{
		"node0": {"c_total": 100},
		"node1": {"c_total": 10, `g{group="calc"}`: 3},
		"load":  {"c_total": 1},
	}
	after := procSnapshots{ // node0 was killed in between
		"node1": {"c_total": 25, `g{group="calc"}`: 9},
		"load":  {"c_total": 4},
	}
	if got := delta(before, after, "c_total"); got != 18 {
		t.Errorf("delta = %v, want 18 (15 from node1, 3 from load, nothing from node0)", got)
	}
	if got := gaugeMax([]procSnapshots{before, after}, "g"); got != 9 {
		t.Errorf("gaugeMax = %v, want 9", got)
	}
}
