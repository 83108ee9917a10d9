package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"itdos/internal/cluster"
)

// TestDebugMux: on a started node, the -metrics listener answers both the
// Prometheus scrape and the pprof index's cmdline endpoint.
func TestDebugMux(t *testing.T) {
	spec := &cluster.Spec{
		Seed: 1, F: 1, Domain: "calc", Secret: "debug-mux-test",
		Nodes: []cluster.NodeSpec{{Name: "node0"}, {Name: "node1"}, {Name: "node2"}, {Name: "node3"}},
	}
	cl, err := cluster.StartInProc(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := httptest.NewServer(debugMux(cl.Nodes["node0"]))
	defer srv.Close()
	for path, want := range map[string]string{"/metrics": "# TYPE", "/debug/pprof/cmdline": ""} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d, body %.80q", path, resp.StatusCode, body)
		}
	}
}
