// Command itdos-cluster runs one process of a multi-process ITDOS
// deployment over the real TCP transport. Every process loads the same
// spec file (see internal/cluster.Spec), builds the full system with
// deterministically derived keys, and hosts only its own slice of it —
// the transport suppresses every identity routed to another process.
//
// Usage:
//
//	itdos-cluster -init -spec cluster.json [-f 1] [-base-port 42000] [-pool 256]
//	itdos-cluster -spec cluster.json -node node0
//	itdos-cluster -spec cluster.json -node load -metrics 127.0.0.1:9090
//
// -metrics serves the node's registry at /metrics and the process's
// net/http/pprof profiles under /debug/pprof/ on the same listener.
//
// -init writes a loopback spec with quorum.N(f) replica nodes plus a
// "load" node hosting the client pool for cmd/itdos-load. A node process
// runs until SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"itdos/internal/cluster"
	"itdos/internal/quorum"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "itdos-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("itdos-cluster", flag.ContinueOnError)
	specPath := fs.String("spec", "", "cluster spec file (JSON)")
	node := fs.String("node", "", "process name from the spec to run")
	metricsAddr := fs.String("metrics", "", "serve Prometheus metrics and pprof profiles on this address (optional)")
	initSpec := fs.Bool("init", false, "write a fresh loopback spec to -spec and exit")
	f := fs.Int("f", 1, "failure bound for -init (group size is 3f+1)")
	basePort := fs.Int("base-port", 42000, "first listen port for -init")
	pool := fs.Int("pool", 256, "client pool size on the load node for -init")
	domain := fs.String("domain", "calc", "replication domain name for -init")
	secret := fs.String("secret", "itdos-cluster-dev", "deployment key secret for -init")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	if *initSpec {
		return writeInitSpec(*specPath, *f, *basePort, *pool, *domain, *secret)
	}
	if *node == "" {
		return fmt.Errorf("-node is required (or use -init)")
	}

	spec, err := cluster.ReadSpec(*specPath)
	if err != nil {
		return err
	}
	n, err := cluster.NewNode(spec, *node, cluster.NodeOptions{})
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		n.Close()
		return err
	}
	defer n.Close()
	fmt.Printf("itdos-cluster: %s listening on %s (f=%d, domain=%s)\n",
		*node, n.Tr.Addr(), spec.F, spec.Domain)

	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, debugMux(n)); err != nil {
				fmt.Fprintln(os.Stderr, "itdos-cluster: metrics:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("itdos-cluster: %s shutting down\n", *node)
	return nil
}

// debugMux serves what -metrics exposes of a started node: its registry in
// Prometheus text format at /metrics, and the process's profiles under
// /debug/pprof/ (net/http/pprof).
func debugMux(n *cluster.Node) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// The registry is mutated on the transport loop; read it there.
		done := make(chan error, 1)
		n.Tr.Post(func() { done <- n.Metrics.WriteProm(w) })
		if err := <-done; err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeInitSpec renders a default loopback deployment: 3f+1 replica nodes
// on consecutive ports, plus a load node hosting the client pool.
func writeInitSpec(path string, f, basePort, pool int, domain, secret string) error {
	if f < 1 {
		return fmt.Errorf("-f must be >= 1")
	}
	spec := &cluster.Spec{
		Seed:          1,
		F:             f,
		Domain:        domain,
		Secret:        secret,
		SendTimeoutMS: 500,
		MaxBatch:      16,
		BatchWaitMS:   2,
	}
	n := quorum.N(f)
	for i := 0; i < n; i++ {
		spec.Nodes = append(spec.Nodes, cluster.NodeSpec{
			Name:   fmt.Sprintf("node%d", i),
			Listen: fmt.Sprintf("127.0.0.1:%d", basePort+i),
		})
	}
	spec.Nodes = append(spec.Nodes, cluster.NodeSpec{
		Name:   "load",
		Listen: fmt.Sprintf("127.0.0.1:%d", basePort+n),
		Pool:   pool,
	})
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := cluster.WriteSpec(path, spec); err != nil {
		return err
	}
	fmt.Printf("itdos-cluster: wrote %s (%d replica nodes + load pool of %d)\n", path, n, pool)
	return nil
}
