package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches expectation markers in fixture files:
//
//	someCode() // want:check-name
//	someCode() // want:check-a check-b
var wantRe = regexp.MustCompile(`//\s*want:([a-z0-9-]+(?:\s+[a-z0-9-]+)*)`)

// collectWants scans every fixture .go file for want markers and returns the
// expected findings keyed by "relpath:line".
func collectWants(t *testing.T, root string) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", rel, i+1)
			wants[key] = append(wants[key], strings.Fields(m[1])...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestFixtures runs every check over the fixture module and requires the
// findings to match the want markers exactly — every marker fires, nothing
// unmarked fires.
func TestFixtures(t *testing.T) {
	root := fixtureRoot(t)
	res, err := lintModule(root, lintOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TypeErrs) > 0 {
		t.Fatalf("fixture module must type-check cleanly, got: %v", res.TypeErrs)
	}

	got := make(map[string][]string)
	for _, f := range res.Findings {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		got[key] = append(got[key], f.Check)
	}
	wants := collectWants(t, root)
	if len(wants) == 0 {
		t.Fatal("no want markers found in fixtures")
	}

	for key, checks := range wants {
		sort.Strings(checks)
		g := append([]string(nil), got[key]...)
		sort.Strings(g)
		if strings.Join(checks, ",") != strings.Join(g, ",") {
			t.Errorf("%s: want findings %v, got %v", key, checks, g)
		}
	}
	for key, checks := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected findings %v", key, checks)
		}
	}
}

// TestEachCheckHasPositiveAndNegativeFixtures enforces the acceptance
// criterion that every registered check proves both that it fires and that
// it stays quiet.
func TestEachCheckHasPositiveAndNegativeFixtures(t *testing.T) {
	root := fixtureRoot(t)
	wants := collectWants(t, root)
	positive := make(map[string]bool)
	for _, checks := range wants {
		for _, c := range checks {
			positive[c] = true
		}
	}
	// Negative evidence: a good.go exists in a directory the check scopes to
	// and contributes zero findings (verified line-exactly by TestFixtures).
	negative := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "good.go" {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		for _, c := range allChecks {
			if c.appliesTo(filepath.ToSlash(rel)) {
				negative[c.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range allChecks {
		if !positive[c.Name] {
			t.Errorf("check %s has no positive fixture (want marker)", c.Name)
		}
		if !negative[c.Name] {
			t.Errorf("check %s has no negative fixture (good.go in scope)", c.Name)
		}
	}
}

// TestSuppression verifies //itdos:nolint silences findings and records the
// justification.
func TestSuppression(t *testing.T) {
	root := fixtureRoot(t)
	res, err := lintModule(root, lintOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) == 0 {
		t.Fatal("fixtures contain nolint comments; expected suppressed findings")
	}
	byCheck := make(map[string]int)
	for _, s := range res.Suppressed {
		byCheck[s.Check]++
		if s.Justification == "" {
			t.Errorf("%s: suppression recorded without justification", s)
		}
	}
	for _, want := range []string{
		"no-wallclock", "ct-mac", "span-leak", // space form: //itdos:nolint check -- reason
		"det-map", "value-vote", "insecure-rand", "err-drop", "bounded-decode", // colon form: //itdos:nolint:check // reason
	} {
		if byCheck[want] == 0 {
			t.Errorf("expected a suppressed %s finding in fixtures", want)
		}
	}
}

// TestExitCodes drives the CLI entry point: findings exit 1, a clean tree
// exits 0, bad flags exit 2.
func TestExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", fixtureRoot(t), "./internal/vote"}, &stdout, &stderr); code != 1 {
		t.Errorf("fixture violations: exit = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "value-vote") {
		t.Errorf("expected value-vote findings on stdout, got: %s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-checks", "no-such-check"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown check: exit = %d, want 2", code)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Errorf("-list: exit = %d, want 0", code)
	}
	for _, c := range allChecks {
		if !strings.Contains(stdout.String(), c.Name) {
			t.Errorf("-list output missing %s", c.Name)
		}
	}
}

// TestRepoIsClean is the acceptance criterion baked into tier-1: the real
// module must lint clean.
func TestRepoIsClean(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", repoRoot, "-json", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("itdos-lint on the repo: exit %d, want 0\n%s\n%s", code, stdout.String(), stderr.String())
	}
	var out struct {
		Findings []Finding `json:"findings"`
		Summary  struct {
			Findings   int `json:"findings"`
			Suppressed int `json:"suppressed"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON output: %v\n%s", err, stdout.String())
	}
	if out.Summary.Findings != len(out.Findings) {
		t.Errorf("summary count %d != findings %d", out.Summary.Findings, len(out.Findings))
	}
}

// TestLintSelfClean runs all registered checks over the real module
// in-process and requires zero unsuppressed findings and a justification on
// every suppression — the self-application acceptance criterion.
func TestLintSelfClean(t *testing.T) {
	if len(allChecks) != 9 {
		t.Fatalf("registered checks = %d, want 9", len(allChecks))
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := lintModule(repoRoot, lintOptions{Checks: allChecks})
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range res.TypeErrs {
		t.Errorf("type-check: %s", te)
	}
	for _, f := range res.Findings {
		t.Errorf("unsuppressed finding: %s", f)
	}
	for _, s := range res.Suppressed {
		if s.Justification == "" {
			t.Errorf("suppression without justification: %s", s)
		}
	}
}

// TestChecksFlag verifies -checks restricts the run to the named checks.
func TestChecksFlag(t *testing.T) {
	checks, err := lookupChecks("ct-mac,err-drop")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lintModule(fixtureRoot(t), lintOptions{Checks: checks})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		if f.Check != "ct-mac" && f.Check != "err-drop" {
			t.Errorf("check %s ran despite -checks filter", f.Check)
		}
	}
	seen := make(map[string]bool)
	for _, f := range res.Findings {
		seen[f.Check] = true
	}
	if !seen["ct-mac"] || !seen["err-drop"] {
		t.Errorf("expected both filtered checks to fire, got %v", seen)
	}
}
