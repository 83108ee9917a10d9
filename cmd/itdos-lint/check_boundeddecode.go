package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkBoundedDecode guards the decode paths against length-field memory
// bombs. Every SMIOP/GIOP/CDR message carries attacker-controlled length
// fields, and `make([]byte, n)` with n read straight off the wire lets a
// 12-byte datagram demand a multi-gigabyte allocation — a classic
// single-message DoS that byte-by-byte voting cannot filter because the
// allocation happens before voting sees the value. The rule: any ident
// whose value comes from a multi-byte wire read (Decoder.ReadUShort/
// ReadULong/ReadULongLong, binary.*Endian.Uint16/32/64) is tainted, and
// using it (or a conversion of it) as a make length/cap or as the size in
// append growth is a finding unless the function first compares the ident
// against a bound (an if/for condition or a min(...) clamp). ReadOctet is
// exempt: a byte is capped at 255 by construction.
var checkBoundedDecode = &Check{
	Name:  "bounded-decode",
	Doc:   "forbids make/append sized by unvalidated wire-length fields in decode paths",
	Paths: []string{"internal/cdr", "internal/giop", "internal/smiop", "internal/seckey", "internal/pbft", "internal/transport", "internal/srm"},
	Run:   runBoundedDecode,
}

func runBoundedDecode(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			boundedDecodeFunc(p, fd.Body)
		}
	}
}

// wireLenReaders are multi-byte length-field sources, matched by method
// name so the check works on both the real internal/cdr Decoder and the
// fixture module's mirror of it.
var wireLenReaders = map[string]bool{
	"ReadUShort":    true,
	"ReadULong":     true,
	"ReadULongLong": true,
	"ReadShort":     true,
	"ReadLong":      true,
	"ReadLongLong":  true,
	"Uint16":        true, // binary.BigEndian / binary.LittleEndian
	"Uint32":        true,
	"Uint64":        true,
}

func boundedDecodeFunc(p *Pass, body *ast.BlockStmt) {
	// Pass 1: collect tainted objects (assigned from a wire-length read,
	// possibly through an integer conversion) and guarded objects (compared
	// against something in an if/for condition, or clamped via min).
	tainted := make(map[types.Object]token.Pos) // obj -> taint site
	guarded := make(map[types.Object]bool)

	markTaintFrom := func(lhs []ast.Expr, rhs ast.Expr) {
		if !isWireLenCall(p, rhs) {
			return
		}
		// Multi-value: `n, err := d.ReadULong()` taints lhs[0] only.
		if id, ok := lhs[0].(*ast.Ident); ok && id.Name != "_" {
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			if obj != nil {
				tainted[obj] = id.Pos()
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				markTaintFrom(n.Lhs, n.Rhs[0])
			} else {
				for i := range n.Rhs {
					if i < len(n.Lhs) {
						markTaintFrom(n.Lhs[i:i+1], n.Rhs[i])
					}
				}
			}
		case *ast.IfStmt:
			collectComparedIdents(p, n.Cond, guarded)
		case *ast.ForStmt:
			if n.Cond != nil {
				collectComparedIdents(p, n.Cond, guarded)
			}
		case *ast.SwitchStmt:
			// `switch { case n > max: ... }` guards too.
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						collectComparedIdents(p, e, guarded)
					}
				}
			}
		case *ast.CallExpr:
			// min(n, cap) clamps; treat every ident argument as guarded.
			if builtinName(p.Info, n) == "min" {
				for _, a := range n.Args {
					for _, obj := range taintedIdentsIn(p, a, nil) {
						guarded[obj] = true
					}
				}
			}
		}
		return true
	})

	// Pass 2: flag make/append sized by a tainted, unguarded object.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append needs no rule of its own: append(buf, make(...)...) growth
		// is a make, and a counted append loop compares its bound in the for
		// condition, which the guard rule already requires.
		if builtinName(p.Info, call) != "make" {
			return true
		}
		for _, sizeArg := range call.Args[1:] {
			for _, obj := range taintedIdentsIn(p, sizeArg, tainted) {
				if !guarded[obj] {
					p.Reportf(sizeArg.Pos(), "make sized by wire-length field %s without a bound check: a hostile message can demand an arbitrary allocation; compare %s against a cap (or clamp with min) before allocating", obj.Name(), obj.Name())
				}
			}
		}
		return true
	})
}

// isWireLenCall reports whether e is a call (possibly inside an integer
// conversion like int(...) or uint64(...)) to a wire-length reader method.
func isWireLenCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	// Unwrap integer conversions: int(d.ReadULong()).
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return isWireLenCall(p, call.Args[0])
		}
		return false
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil || !wireLenReaders[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	// Restrict to decoder/byte-order receivers so an unrelated local
	// ReadULong free function can't taint by name alone.
	recv := sig.Recv().Type().String()
	return strings.Contains(recv, "Decoder") || strings.Contains(recv, "ByteOrder") ||
		strings.Contains(recv, "binary.") || fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary"
}

// taintedIdentsIn returns the objects of idents appearing in e. When
// tainted is non-nil only objects present in it are returned; with a nil
// map every ident object is returned.
func taintedIdentsIn(p *Pass, e ast.Expr, tainted map[types.Object]token.Pos) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return true
		}
		if tainted != nil {
			if _, ok := tainted[obj]; !ok {
				return true
			}
		}
		out = append(out, obj)
		return true
	})
	return out
}

// collectComparedIdents records every ident that participates in a
// comparison within cond as guarded. This is deliberately coarse — any
// comparison mentioning the length counts — because the check's job is to
// catch the *absence* of validation, not to verify the bound's tightness.
func collectComparedIdents(p *Pass, cond ast.Expr, guarded map[types.Object]bool) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			for _, side := range []ast.Expr{be.X, be.Y} {
				for _, obj := range taintedIdentsIn(p, side, nil) {
					guarded[obj] = true
				}
			}
		}
		return true
	})
}
