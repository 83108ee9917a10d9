// Command itdos-lint is a project-specific static-analysis pass enforcing
// ITDOS invariants that ordinary Go tooling cannot know about and that no
// test can hold:
//
//	no-wallclock    deterministic simulation paths take no wall-clock time,
//	                no process-seeded randomness, no map-order dependence
//	value-vote      the voter compares unmarshalled CDR values, never bytes
//	ct-mac          MAC tag comparisons are constant-time
//	err-drop        decode/encode errors on the Byzantine surface propagate
//	span-leak       every trace span started is ended on every path
//	det-map         no map-ordered writes reach canonical marshalling,
//	                digests/MACs, or transport sends
//	insecure-rand   no math/rand in the key-handling packages
//	bounded-decode  no make sized by an unvalidated wire-length field
//
// Each check keeps its place with a keep-test: a one-line defect in the
// real tree that it reports and the test suite misses, committed as a
// fixture row. span-leak is a spec over an acquire/release engine
// (obligation.go).
//
// Findings suppress with a justified comment:
//
//	//itdos:nolint ct-mac -- published test vector, no key involved
//	//itdos:nolint:det-map // iteration feeds a commutative counter
//
// trailing on the offending line or alone on the line above it. The tool
// uses only the standard library (go/ast, go/parser, go/types); module
// packages load through a custom importer, so the repo stays dependency-free.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itdos-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as JSON")
		checks  = fs.String("checks", "", "comma-separated checks to run (default: all)")
		list    = fs.Bool("list", false, "list registered checks and exit")
		tests   = fs.Bool("tests", false, "also analyze _test.go files")
		chdir   = fs.String("C", ".", "run as if started in this directory")
		showSup = fs.Bool("show-suppressed", false, "also print suppressed findings")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: itdos-lint [flags] [./... | package dirs]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range allChecks {
			scope := "whole module"
			if len(c.Paths) > 0 {
				scope = fmt.Sprint(c.Paths)
			}
			fmt.Fprintf(stdout, "%-14s %s (scope: %s)\n", c.Name, c.Doc, scope)
		}
		return 0
	}
	selected, err := lookupChecks(*checks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	res, err := lintModule(*chdir, lintOptions{
		Checks:       selected,
		IncludeTests: *tests,
		Patterns:     fs.Args(),
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, te := range res.TypeErrs {
		fmt.Fprintf(stderr, "itdos-lint: type-check: %s\n", te)
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Findings   []Finding `json:"findings"`
			Suppressed []Finding `json:"suppressed"`
			Summary    struct {
				Findings   int `json:"findings"`
				Suppressed int `json:"suppressed"`
			} `json:"summary"`
		}{Findings: res.Findings, Suppressed: res.Suppressed}
		if out.Findings == nil {
			out.Findings = []Finding{}
		}
		if out.Suppressed == nil {
			out.Suppressed = []Finding{}
		}
		out.Summary.Findings = len(res.Findings)
		out.Summary.Suppressed = len(res.Suppressed)
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	default:
		for _, f := range res.Findings {
			fmt.Fprintln(stdout, f)
		}
		if *showSup {
			for _, f := range res.Suppressed {
				j := f.Justification
				if j == "" {
					j = "no justification given"
				}
				fmt.Fprintf(stdout, "%s [suppressed: %s]\n", f, j)
			}
		}
		fmt.Fprintf(stderr, "itdos-lint: %d finding(s), %d suppression(s)\n",
			len(res.Findings), len(res.Suppressed))
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}
