package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
)

// checkCTMAC protects message integrity under pairwise keys (paper §2,
// §3.5): a variable-time comparison of a keyed authenticator leaks how many
// bytes matched, which an adversary with a timing side channel can turn into
// a forgery oracle. The one package that compares MAC tags is PBFT, whose
// pairwise commit/acknowledgement authenticators must go through hmac.Equal
// or subtle.ConstantTimeCompare; the seckey seal is AES-GCM, whose tag the
// cipher checks itself. Public digests (SHA-256 of a message every replica
// holds) and signatures are not keyed material and compare however they
// like.
var checkCTMAC = &Check{
	Name:  "ct-mac",
	Doc:   "requires constant-time comparison (hmac.Equal / subtle.ConstantTimeCompare) for MAC tags",
	Paths: []string{"internal/pbft"},
	Run:   runCTMAC,
}

// secretNameRe matches identifiers that plausibly hold a keyed tag.
var secretNameRe = regexp.MustCompile(`(?i)(mac|tag)`)

func runCTMAC(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p.Info, n)
				for _, bc := range byteCompareFuncs {
					if isPkgFunc(fn, bc[0], bc[1]) && slices.ContainsFunc(n.Args, exprSuggestsSecret) {
						p.Reportf(n.Pos(), "%s.%s on a MAC tag is not constant-time; use hmac.Equal or subtle.ConstantTimeCompare", bc[0], bc[1])
						break
					}
				}
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isByteArray(p.Info.TypeOf(n.X)) && isByteArray(p.Info.TypeOf(n.Y)) &&
					(exprSuggestsSecret(n.X) || exprSuggestsSecret(n.Y)) {
					p.Reportf(n.Pos(), "array comparison of a MAC tag is not constant-time; compare with subtle.ConstantTimeCompare over slices")
				}
			}
			return true
		})
	}
}

// exprSuggestsSecret reports whether any identifier inside e names a tag.
func exprSuggestsSecret(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && secretNameRe.MatchString(id.Name) {
			found = true
		}
		return !found
	})
	return found
}

func isByteArray(t types.Type) bool {
	if t == nil {
		return false
	}
	arr, ok := t.Underlying().(*types.Array)
	if !ok {
		return false
	}
	basic, ok := arr.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}
