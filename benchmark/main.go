// Command benchmark is the repository's benchmark: voted CORBA calls
// through four replica OS processes over loopback TCP, driven from this
// process joined as the cluster's load node. See README.md.
//
// Usage, from the root of a checkout:
//
//	bash benchmark/run.sh --seed N                       every workload, end to end then traced
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The second form is the one BENCHMARK.json names: one workload, one run,
// and as the last line of standard output one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string) (code int, err error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the call inputs and arrival schedules")
	seconds := fs.Int("seconds", defaultSeconds, "how long an end-to-end run measures: episodes are added until the next would end past it")
	trace := fs.Int("trace", -1, "0 = end-to-end run, 1 = traced run (default: both, in that order)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	if *name != "" && findWorkload(*name) == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}

	p, err := findPaths()
	if err != nil {
		return 2, err
	}
	// Children die with the benchmark: on a signal, on a panic, and on
	// every return below (runWorkload stops its own testbed).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllLive()
		os.Exit(130)
	}()
	defer func() {
		if r := recover(); r != nil {
			killAllLive()
			panic(r)
		}
	}()

	if err := p.buildCluster(); err != nil {
		return 1, err
	}

	if *name == "" || *trace < 0 {
		var names []string
		for _, w := range workloads {
			if *name == "" || *name == w.name {
				names = append(names, w.name)
			}
		}
		modes := []bool{false, true}
		if *trace >= 0 {
			modes = []bool{*trace == 1}
		}
		ok, err := runAll(p, names, *seed, *seconds, modes)
		if err != nil || !ok {
			return 1, err
		}
		return 0, nil
	}

	// Driver mode: one run, within the driver's 180 s.
	watchdog(170 * time.Second)
	traced := *trace == 1
	out, err := runWorkload(p, findWorkload(*name), *seed, *seconds, traced)
	if err != nil {
		return 1, err
	}
	out.printText(os.Stdout)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line, err := out.resultLine(defs)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if len(out.violations) > 0 {
		return 1, nil
	}
	return 0, nil
}
