package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkWallclock enforces determinism in the simulation substrate: the same
// seed must replay the identical schedule, so nothing in these packages may
// read the wall clock, draw from a process-seeded randomness source, or let
// Go's randomized map iteration order decide protocol behaviour
// (reproducible Byzantine-fault experiments depend on it).
var checkWallclock = &Check{
	Name:  "no-wallclock",
	Doc:   "forbids wall-clock reads, process-seeded randomness and order-dependent map iteration in simulation paths",
	Paths: []string{"internal/netsim", "internal/pbft", "internal/replica"},
	Run:   runWallclock,
}

// wallclockTimeFuncs are time package functions that read the wall clock or
// schedule on it.
var wallclockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandConstructors are the math/rand functions that build an explicit,
// seedable source and therefore stay deterministic.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func runWallclock(p *Pass) {
	for _, f := range p.Files {
		// Pre-pass: remember the label attached to each labeled range so the
		// main visit can match labeled breaks.
		labels := make(map[*ast.RangeStmt]string)
		ast.Inspect(f, func(n ast.Node) bool {
			if ls, ok := n.(*ast.LabeledStmt); ok {
				if rng, ok := ls.Stmt.(*ast.RangeStmt); ok {
					labels[rng] = ls.Label.Name
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				wallclockCall(p, n)
			case *ast.SelectorExpr:
				// crypto/rand.Reader as a value (e.g. io.ReadFull(rand.Reader, ...)).
				if v, ok := p.Info.Uses[n.Sel].(*types.Var); ok &&
					v.Pkg() != nil && v.Pkg().Path() == "crypto/rand" && v.Name() == "Reader" {
					p.Reportf(n.Pos(), "use of crypto/rand.Reader: simulation paths must stay deterministic; thread a seeded source instead")
				}
			case *ast.RangeStmt:
				wallclockMapRange(p, n, labels[n])
			}
			return true
		})
	}
}

func wallclockCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine: the source is explicit
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallclockTimeFuncs[fn.Name()] {
			p.Reportf(call.Pos(), "call to time.%s: simulation paths must take time from the netsim virtual clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandConstructors[fn.Name()] {
			p.Reportf(call.Pos(), "package-level %s.%s call uses the process-seeded global source; draw from an explicitly seeded generator", fn.Pkg().Path(), fn.Name())
		}
	case "crypto/rand":
		p.Reportf(call.Pos(), "call to crypto/rand.%s: simulation paths must stay deterministic; thread a seeded source instead", fn.Name())
	}
}

// wallclockMapRange flags a range over a map whose iteration can exit early
// while loop-derived data escapes the loop: which elements were processed
// then depends on Go's randomized map order, so the same seed no longer
// replays the same schedule. Pure aggregation (count/sum/append-then-sort)
// and constant-result existence checks are left alone.
func wallclockMapRange(p *Pass, rng *ast.RangeStmt, label string) {
	if t := p.Info.TypeOf(rng.X); t == nil || !isMapType(t) {
		return
	}
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := p.Info.Defs[id]; obj != nil {
			vars[obj] = true
		}
	}
	s := &mapRangeScan{info: p.Info, vars: vars, label: label}
	s.stmts(rng.Body.List, true)
	if s.earlyExit && s.escape {
		p.Reportf(rng.For, "early exit from map iteration with loop-derived effects: which entries were visited depends on Go's randomized map order; iterate over sorted keys")
	}
}

// mapRangeScan walks a map-range body classifying two properties:
//
//   - earlyExit: control can leave the loop before all entries are visited
//     (break bound to this loop, return, goto);
//   - escape: a loop variable feeds an effect — call argument, assignment,
//     send, return value — as opposed to only guarding conditions.
//
// Conditions (if/switch/for guards) deliberately do not count as escapes:
// `if v == target { found = true; break }` is order-independent.
type mapRangeScan struct {
	info  *types.Info
	vars  map[types.Object]bool
	label string

	earlyExit bool
	escape    bool
}

func (s *mapRangeScan) stmts(list []ast.Stmt, breakBinds bool) {
	for _, st := range list {
		s.stmt(st, breakBinds)
	}
}

func (s *mapRangeScan) stmt(st ast.Stmt, breakBinds bool) {
	switch st := st.(type) {
	case nil:
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if (st.Label == nil && breakBinds) || (st.Label != nil && s.label != "" && st.Label.Name == s.label) {
				s.earlyExit = true
			}
		case token.GOTO:
			s.earlyExit = true // conservative: assume the jump leaves the loop
		}
	case *ast.ReturnStmt:
		s.earlyExit = true
		for _, r := range st.Results {
			s.expr(r)
		}
	case *ast.BlockStmt:
		s.stmts(st.List, breakBinds)
	case *ast.IfStmt:
		s.stmt(st.Init, false)
		// st.Cond: guard only, not an escape.
		s.stmt(st.Body, breakBinds)
		s.stmt(st.Else, breakBinds)
	case *ast.ForStmt:
		s.stmt(st.Init, false)
		s.stmt(st.Body, false) // nested loop captures its own breaks
		s.stmt(st.Post, false)
	case *ast.RangeStmt:
		s.expr(st.X) // iterating data derived from a loop var is an effect
		s.stmt(st.Body, false)
	case *ast.SwitchStmt:
		s.stmt(st.Init, false)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body, false) // breaks bind to the switch
			}
		}
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init, false)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body, false)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmt(cc.Comm, false)
				s.stmts(cc.Body, false)
			}
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e)
		}
		for _, e := range st.Lhs {
			// Indexing or dereferencing through a loop var on the left-hand
			// side is a write keyed by iteration order.
			if _, ok := e.(*ast.Ident); !ok {
				s.expr(e)
			}
		}
	case *ast.IncDecStmt:
		if _, ok := st.X.(*ast.Ident); !ok {
			s.expr(st.X)
		}
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.DeferStmt:
		s.expr(st.Call)
	case *ast.GoStmt:
		s.expr(st.Call)
	case *ast.SendStmt:
		s.expr(st.Chan)
		s.expr(st.Value)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, breakBinds)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v)
					}
				}
			}
		}
	}
}

// expr marks escape for any use of a loop variable, except inside the
// order-insensitive builtins len/cap/delete.
func (s *mapRangeScan) expr(e ast.Expr) {
	if e == nil || s.escape {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch builtinName(s.info, n) {
			case "len", "cap", "delete":
				return false // order-insensitive reads/removals
			}
		case *ast.Ident:
			if obj := s.info.Uses[n]; obj != nil && s.vars[obj] {
				s.escape = true
				return false
			}
		}
		return !s.escape
	})
}
