package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Check is one named, suppressible invariant.
type Check struct {
	// Name is the identifier used in -checks and //itdos:nolint comments.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Paths restricts the check to packages whose module-relative directory
	// matches one of these prefixes. Empty means the whole module.
	Paths []string
	// Run analyzes one package.
	Run func(*Pass)
}

func (c *Check) appliesTo(relDir string) bool {
	if len(c.Paths) == 0 {
		return true
	}
	for _, p := range c.Paths {
		if relDir == p || strings.HasPrefix(relDir, p+"/") {
			return true
		}
	}
	return false
}

// allChecks is the registry, in reporting order.
var allChecks = []*Check{
	checkWallclock,
	checkValueVote,
	checkCTMAC,
	checkErrDrop,
	checkLockHold,
	checkSpanLeak,
	checkDetMap,
	checkInsecureRand,
	checkBoundedDecode,
}

func lookupChecks(names string) ([]*Check, error) {
	if names == "" {
		return allChecks, nil
	}
	var out []*Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, c := range allChecks {
			if c.Name == n {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("itdos-lint: unknown check %q", n)
		}
	}
	return out, nil
}

// Pass carries everything a check needs to analyze one package.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	RelDir string

	check  *Check
	report func(check string, pos token.Pos, msg string)
}

// Reportf records a diagnostic for the current check.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.check.Name, pos, fmt.Sprintf(format, args...))
}

// Finding is one diagnostic, positioned and attributed to a check.
type Finding struct {
	Check         string `json:"check"`
	File          string `json:"file"` // module-relative path
	Line          int    `json:"line"`
	Col           int    `json:"col"`
	Message       string `json:"message"`
	Suppressed    bool   `json:"suppressed,omitempty"`
	Justification string `json:"justification,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// nolintRe matches suppression comments:
//
//	//itdos:nolint                       (all checks)
//	//itdos:nolint ct-mac                (one check)
//	//itdos:nolint ct-mac,err-drop -- justification text
//	//itdos:nolint:det-map // justification text   (colon form)
var nolintRe = regexp.MustCompile(`^//itdos:nolint(?::([a-zA-Z0-9_,-]+)|[ \t]+([a-zA-Z0-9_, \t-]+?))?(?:[ \t]+(?:--|//)[ \t]*(.*))?[ \t]*$`)

type nolintDirective struct {
	checks        map[string]bool // nil means all checks
	justification string
}

func (d *nolintDirective) covers(check string) bool {
	return d.checks == nil || d.checks[check]
}

// collectNolint maps source lines to directives for one file. A trailing
// comment suppresses findings on its own line; a comment alone on a line
// suppresses findings on the next line.
func collectNolint(fset *token.FileSet, f *ast.File, src []byte) map[int]*nolintDirective {
	out := make(map[int]*nolintDirective)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := nolintRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			names := m[1] // colon form
			if names == "" {
				names = m[2] // space form
			}
			d := &nolintDirective{justification: strings.TrimSpace(m[3])}
			if names != "" {
				d.checks = make(map[string]bool)
				for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					if n != "" {
						d.checks[n] = true
					}
				}
			}
			pos := fset.Position(c.Slash)
			line := pos.Line
			if isCommentAlone(src, pos.Offset, pos.Column) {
				line++
			}
			out[line] = d
		}
	}
	return out
}

// isCommentAlone reports whether only whitespace precedes the comment on its
// source line.
func isCommentAlone(src []byte, offset, column int) bool {
	start := offset - (column - 1)
	if start < 0 || start > offset || offset > len(src) {
		return false
	}
	return len(strings.TrimSpace(string(src[start:offset]))) == 0
}

// lintOptions configures a lint run.
type lintOptions struct {
	Checks       []*Check
	IncludeTests bool
	// Patterns are "./..." (whole module) or module-relative/dot-relative
	// directories. Empty means "./...".
	Patterns []string
}

// lintResult aggregates a run over a set of packages.
type lintResult struct {
	Findings   []Finding // active findings, reporting order
	Suppressed []Finding // findings silenced by //itdos:nolint
	TypeErrs   []string  // type-check problems (reported, non-fatal)
}

// lintModule runs the configured checks over the module rooted at root.
func lintModule(root string, opts lintOptions) (*lintResult, error) {
	root, modPath, err := findModuleRoot(root)
	if err != nil {
		return nil, err
	}
	checks := opts.Checks
	if checks == nil {
		checks = allChecks
	}

	targets, err := resolvePatterns(root, opts.Patterns)
	if err != nil {
		return nil, err
	}

	l := newLoader(root, modPath, opts.IncludeTests)
	res := &lintResult{}
	for _, rel := range targets {
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + rel
		}
		pi, err := l.load(importPath)
		if err != nil {
			return nil, err
		}
		for _, terr := range pi.TypeErrs {
			res.TypeErrs = append(res.TypeErrs, terr.Error())
		}
		runChecksOn(l, pi, checks, res)
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res, nil
}

func resolvePatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			rels, err := findPackageDirs(root)
			if err != nil {
				return nil, err
			}
			for _, r := range rels {
				add(r)
			}
		default:
			rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(pat, "./")))
			if rel == "" {
				rel = "."
			}
			add(rel)
		}
	}
	return out, nil
}

func runChecksOn(l *loader, pi *pkgInfo, checks []*Check, res *lintResult) {
	// nolint directives, per file line.
	nolint := make(map[string]map[int]*nolintDirective)
	for _, f := range pi.Files {
		name := l.fset.Position(f.Pos()).Filename
		nolint[name] = collectNolint(l.fset, f, l.sources[name])
	}
	report := func(check string, pos token.Pos, msg string) {
		position := l.fset.Position(pos)
		rel, err := filepath.Rel(l.root, position.Filename)
		if err != nil {
			rel = position.Filename
		}
		f := Finding{
			Check:   check,
			File:    filepath.ToSlash(rel),
			Line:    position.Line,
			Col:     position.Column,
			Message: msg,
		}
		if d := nolint[position.Filename][position.Line]; d != nil && d.covers(check) {
			f.Suppressed = true
			f.Justification = d.justification
			res.Suppressed = append(res.Suppressed, f)
			return
		}
		res.Findings = append(res.Findings, f)
	}
	for _, c := range checks {
		if !c.appliesTo(pi.RelDir) {
			continue
		}
		pass := &Pass{
			Fset:   l.fset,
			Files:  pi.Files,
			Pkg:    pi.Types,
			Info:   pi.Info,
			RelDir: pi.RelDir,
			check:  c,
			report: report,
		}
		c.Run(pass)
	}
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Col != fs[j].Col {
			return fs[i].Col < fs[j].Col
		}
		return fs[i].Check < fs[j].Check
	})
}

// --- shared type helpers used by several checks ---

// calleeFunc resolves a call to its *types.Func when the callee is a direct
// function or method reference.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name;
// a module package is named by its module-relative path (pkgPathMatches).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return pkgPathMatches(fn.Pkg().Path(), pkgPath) && fn.Name() == name
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}
