package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// obligation is the one engine behind span-leak and lock-hold: what a
// function acquires it must release by defer, or before every later return
// and the fall-off end. The analysis is positional — source order
// approximates control flow, which is exactly right for the straight-line
// sections this codebase writes; exotic shapes suppress with
// //itdos:nolint and a justification.
//
// Every function body and every function literal is one scope; a deferred
// closure runs at its function's exit and belongs to that function's scope.
// A check is a spec: which calls acquire, release or merely use, and the
// message texts.
type obligation struct {
	// classify says what a call does and to which obligation. The key is
	// the object of the variable a method is called on, or — for a
	// discipline with no variable to follow, a mutex reached as `r.mu` —
	// the spec's own comparable key. An acquire with a nil key returns the
	// thing to release, and is followed through the variable it is
	// assigned to.
	classify func(info *types.Info, call *ast.CallExpr) (role, any)
	// discarded reports an acquired value dropped on the spot.
	discarded string
	// leaked renders the finding for an obligation left open.
	leaked func(key any) string
}

type role int

const (
	none role = iota
	acquires
	releases
	uses // a method that neither releases nor hands the variable on
)

func releasesIf(release bool) role {
	if release {
		return releases
	}
	return uses
}

// leakedVar is the leaked message of a variable-keyed spec; format names
// the variable as %[1]s.
func leakedVar(format string) func(any) string {
	return func(key any) string { return fmt.Sprintf(format, key.(types.Object).Name()) }
}

type held struct {
	key any
	pos token.Pos
}

type release struct {
	held
	deferred bool
}

func (ob *obligation) run(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					ob.scope(p, n.Body)
				}
			case *ast.FuncLit:
				ob.scope(p, n.Body)
			}
			return true
		})
	}
}

func (ob *obligation) scope(p *Pass, body *ast.BlockStmt) {
	var holds []held
	tracked := make(map[any]bool)
	hold := func(key any, pos token.Pos) {
		holds = append(holds, held{key, pos})
		tracked[key] = true
	}
	acquired := func(e ast.Expr) *ast.CallExpr {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if r, key := ob.classify(p.Info, call); r == acquires && key == nil {
				return call
			}
		}
		return nil
	}
	// Acquisitions of this scope: not those of nested closures (their own
	// scopes) and nothing inside a defer.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.ExprStmt:
			if call := acquired(n.X); call != nil {
				p.Reportf(call.Pos(), "%s", ob.discarded)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call := acquired(rhs)
				lhs, isIdent := n.Lhs[i].(*ast.Ident)
				switch {
				case call == nil || !isIdent:
					// Not ours, or stored in a field or element: the owner
					// of that storage releases it.
				case lhs.Name == "_":
					p.Reportf(call.Pos(), "%s", ob.discarded)
				case p.Info.Defs[lhs] != nil:
					hold(p.Info.Defs[lhs], call.Pos())
					// Plain reassignment (=) is a use of the variable below
					// and conservatively counts as handing it on.
				}
			}
		case *ast.CallExpr:
			if r, key := ob.classify(p.Info, n); r == acquires && key != nil {
				hold(key, n.Pos())
			}
		}
		return true
	})
	if len(holds) == 0 {
		return
	}

	// Releases and uses. A tracked variable that appears anywhere but as
	// the receiver of one of the spec's methods has been handed on —
	// argument, return value, store, composite literal — and whoever holds
	// it now releases it.
	var released []release
	escaped := make(map[any]bool)
	var walk func(n ast.Node, deferred, closure bool)
	walk = func(n ast.Node, deferred, closure bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					walk(fl.Body, true, closure)
				} else {
					walk(n.Call, true, closure)
				}
				return false
			case *ast.FuncLit:
				walk(n.Body, deferred, true)
				return false
			case *ast.CallExpr:
				r, key := ob.classify(p.Info, n)
				if key == nil || r == acquires {
					return true
				}
				if r == releases {
					if closure {
						// A closure may or may not run. One that releases a
						// variable it captured owns it: descend, and the
						// identifier rule marks the escape. A receiver-keyed
						// release in a closure pairs with that closure's own
						// acquire and says nothing about this scope's.
						return true
					}
					released = append(released, release{held{key, n.Pos()}, deferred})
				}
				for _, a := range n.Args {
					walk(a, deferred, closure)
				}
				return false
			case *ast.Ident:
				if obj := p.Info.Uses[n]; obj != nil && tracked[obj] {
					escaped[obj] = true
				}
			}
			return true
		})
	}
	walk(body, false, false)

	var returns []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.ReturnStmt:
			returns = append(returns, n)
		}
		return true
	})

	for _, h := range holds {
		if !escaped[h.key] && !covered(h, released, returns, body.End()) {
			p.Reportf(h.pos, "%s", ob.leaked(h.key))
		}
	}
}

// covered decides whether h is released on every exit: a deferred release
// covers them all; otherwise each return after the acquisition, and the
// fall-off end, needs a release between the acquisition and it. A release
// may sit inside the return statement itself (`return b.Detach()`), so a
// return is measured at its end.
func covered(h held, released []release, returns []*ast.ReturnStmt, end token.Pos) bool {
	before := func(at token.Pos) bool {
		for _, r := range released {
			if r.key == h.key && (r.deferred || r.pos > h.pos && r.pos < at) {
				return true
			}
		}
		return false
	}
	for _, ret := range returns {
		if ret.Pos() > h.pos && !before(ret.End()) {
			return false
		}
	}
	return before(end)
}

// methodCall resolves a call to a method of a named type (or a pointer to
// one): the receiver expression, the type's package path and name, and the
// method name. Module packages are compared by path suffix
// (pkgPathMatches) so the fixture module's mirrors resolve like the real
// ones.
func methodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, pkg, typ, name string) {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", "", ""
	}
	fn, ok := info.Uses[se.Sel].(*types.Func)
	if !ok {
		return nil, "", "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, "", "", ""
	}
	return se.X, named.Obj().Pkg().Path(), named.Obj().Name(), fn.Name()
}

// varKey is the key of a method called directly on a variable: that
// variable's object, or nil when the receiver is any other expression.
func varKey(info *types.Info, recv ast.Expr) any {
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj
		}
	}
	return nil
}
