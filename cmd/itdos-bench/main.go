// Command itdos-bench regenerates the reproduction's experiment tables:
// the paper's three figures as running scenarios (F1–F3), its quantitative
// claims as measurements (C1–C8), scripted adversary campaigns exercising
// the intrusion-response loop (C9–C11), and three design ablations
// (A1–A3). See DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded output.
//
// Usage:
//
//	itdos-bench              # run every experiment
//	itdos-bench -exp C1      # run one experiment
//	itdos-bench -exp F1,F2   # run several
//	itdos-bench -list        # list experiments
//	itdos-bench -markdown    # emit EXPERIMENTS-ready markdown
//	itdos-bench -json        # write BENCH_<id>.json per experiment
//	itdos-bench -check P1    # exit non-zero on a perf regression guard
//	itdos-bench -check C9,C10,C11  # run the adversary campaign guards
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"itdos/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "itdos-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("itdos-bench", flag.ContinueOnError)
	exp := fs.String("exp", "", "run a comma-separated list of experiment ids (e.g. F1,C3,A2)")
	list := fs.Bool("list", false, "list experiments and exit")
	markdown := fs.Bool("markdown", false, "emit markdown instead of aligned text")
	jsonOut := fs.Bool("json", false, "write BENCH_<id>.json per experiment instead of printing")
	flightOut := fs.Bool("flight", false, "also write the experiment's flight-recorder dumps (FLIGHT_<id>.json) to -out")
	outDir := fs.String("out", ".", "directory for -json output files")
	check := fs.String("check", "", "run a regression or campaign guard and exit non-zero on failure")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *check != "" {
		checks := map[string]struct {
			run func() error
			ok  string
		}{
			"P1": {func() error { return bench.CheckP1(3.0) },
				"batched k=16 msgs/request >= 3.0x below unbatched, k=1 latency <= unbatched"},
			"P3": {func() error { return bench.CheckP3(2.0) },
				"read-only fast path >= 2.0x fewer msgs/get and lower latency"},
			"P4": {func() error { return bench.CheckP4(2.0) },
				"pooled seal chain >= 2.0x fewer allocs/req at 4 KiB"},
			"P5": {func() error { return bench.CheckP5(time.Millisecond) },
				"tentative replies >= 1 virtual round early, clean liar fallback"},
			"C9": {func() error { return bench.CheckCampaign("C9") },
				"campaign: slow compromise stays, collusion expelled <= f"},
			"C10": {func() error { return bench.CheckCampaign("C10") },
				"campaign: lying replica expelled under key churn"},
			"C11": {func() error { return bench.CheckCampaign("C11") },
				"campaign: proactive recovery evicts sub-threshold foothold"},
		}
		for _, id := range strings.Split(*check, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			c, ok := checks[id]
			if !ok {
				return fmt.Errorf("unknown check %q (available: P1, P3, P4, P5, C9, C10, C11)", id)
			}
			if err := c.run(); err != nil {
				return err
			}
			fmt.Printf("check %s: ok (%s)\n", id, c.ok)
		}
		return nil
	}

	experiments := bench.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return nil
	}
	if *exp != "" {
		experiments = experiments[:0]
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			experiments = append(experiments, e)
		}
	}
	for _, e := range experiments {
		table, err := e.Run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		switch {
		case *jsonOut:
			path := filepath.Join(*outDir, "BENCH_"+table.ID+".json")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			werr := table.WriteJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("experiment %s: %w", e.ID, werr)
			}
			fmt.Println("wrote", path)
		case *markdown:
			fmt.Println(table.Markdown())
		default:
			fmt.Println(table.Render())
		}
		if *flightOut {
			names := make([]string, 0, len(table.Artifacts))
			for name := range table.Artifacts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				path := filepath.Join(*outDir, name)
				if err := os.WriteFile(path, table.Artifacts[name], 0o644); err != nil {
					return fmt.Errorf("experiment %s: %w", e.ID, err)
				}
				fmt.Println("wrote", path)
			}
		}
	}
	return nil
}
