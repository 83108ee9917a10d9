package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkDetMap hunts order-dependent map iteration on the canonical-bytes
// paths. Go randomizes map iteration order per range statement, so any map
// range whose body feeds a canonical marshaller, a digest/MAC, or the
// transport emits bytes in a different order on every replica — precisely
// the divergence the paper's byte-by-byte voting (§3.6) mistakes for a
// value fault. The sorted-slice idiom (collect keys, sort, range the
// slice) is invisible to this check because the ordered loop ranges over a
// slice, not the map.
//
// The analysis is a taint walk from every `range <map>` statement to the
// stream sinks:
//
//   - io.Writer.Write / hash.Hash.Sum (digest and MAC input),
//   - Write*/Encode* methods of the internal/cdr encoder (canonical
//     marshalling),
//   - Seal*/Sign*/MAC*/Send* methods of internal/smiop and internal/seckey
//     (authenticated transport framing),
//   - Send on internal/transport, its tcp backend and internal/netsim
//     (transport send, through the interface or a concrete backend),
//
// plus, via an intra-package fixpoint, any package function that forwards
// a parameter into one of those sinks. A sink call inside a map-range body
// is a finding only when the stream it writes to was created *outside* the
// loop: hashing each element into its own per-iteration hash (as the DPRF
// does) is order-independent and stays clean.
var checkDetMap = &Check{
	Name: "det-map",
	Doc:  "forbids map-ordered writes into canonical marshalling, digests/MACs, or transport sends",
	Run:  runDetMap,
}

func runDetMap(p *Pass) {
	sf := buildStreamFuncs(p)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := p.Info.TypeOf(rng.X); t == nil || !isMapType(t) {
				return true
			}
			detMapScanLoop(p, sf, rng)
			return true
		})
	}
}

// streamFuncs records, per package-local function, which inputs it
// forwards into a stream sink: parameter indices, and -1 for the method
// receiver.
type streamFuncs map[*types.Func]map[int]bool

// buildStreamFuncs computes the intra-package fixpoint: a function is
// stream-writing in input i if it sink-calls input i directly, or passes
// input i in a stream-writing position of another package function.
func buildStreamFuncs(p *Pass) streamFuncs {
	sf := make(streamFuncs)
	type fnDecl struct {
		fn     *types.Func
		body   *ast.BlockStmt
		inputs map[types.Object]int // receiver/param object -> index (-1 = receiver)
	}
	var decls []fnDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			inputs := make(map[types.Object]int)
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				if obj := p.Info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
					inputs[obj] = -1
				}
			}
			idx := 0
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						inputs[obj] = idx
					}
					idx++
				}
				if len(field.Names) == 0 {
					idx++
				}
			}
			decls = append(decls, fnDecl{fn: fn, body: fd.Body, inputs: inputs})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			ast.Inspect(d.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, hit := range detMapStreamInputs(p, sf, call) {
					obj := rootIdentObj(p.Info, hit)
					if obj == nil {
						continue
					}
					if idx, isInput := d.inputs[obj]; isInput {
						if sf[d.fn] == nil {
							sf[d.fn] = make(map[int]bool)
						}
						if !sf[d.fn][idx] {
							sf[d.fn][idx] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	return sf
}

// detMapStreamInputs returns the expressions a call writes map-ordered data
// through: the receiver for a direct sink method, and the receiver/args in
// stream-writing positions for a package function known to forward them.
func detMapStreamInputs(p *Pass, sf streamFuncs, call *ast.CallExpr) []ast.Expr {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return nil
	}
	var out []ast.Expr
	if isStreamSinkMethod(fn) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		}
	}
	if positions := sf[fn]; positions != nil {
		for idx := range positions {
			if idx == -1 {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					out = append(out, sel.X)
				}
				continue
			}
			if idx < len(call.Args) {
				out = append(out, call.Args[idx])
			}
		}
	}
	return out
}

// detMapScanLoop reports each stream write inside a map-range body whose
// target stream exists outside the loop.
func detMapScanLoop(p *Pass, sf streamFuncs, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, hit := range detMapStreamInputs(p, sf, call) {
			obj := rootIdentObj(p.Info, hit)
			if obj == nil {
				continue
			}
			// Streams created inside the loop restart per iteration and are
			// order-independent; only loop-external streams accumulate bytes
			// in map order.
			if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
				continue
			}
			fn := calleeFunc(p.Info, call)
			p.Reportf(call.Pos(), "map iteration feeds %s on %s declared outside the loop: map order is randomized per replica, so the emitted bytes diverge and byte-by-byte voting rejects correct replies; sort the keys and range the sorted slice", fn.Name(), obj.Name())
		}
		return true
	})
}

// isStreamSinkMethod classifies methods whose calls emit bytes into an
// order-sensitive stream: digests, canonical encoders, secure-channel
// sealing, and transport sends. Module-internal packages are matched by
// import-path suffix so the fixture module's mirrors behave identically.
func isStreamSinkMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	switch {
	case pkg == "io" && (name == "Write" || name == "WriteString"):
		return true
	case pkg == "hash" && name == "Sum":
		return true
	case strings.HasPrefix(pkg, "crypto/") && (name == "Write" || name == "Sum"):
		return true
	case pkgPathMatches(pkg, "internal/cdr"):
		return strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Encode")
	case pkgPathMatches(pkg, "internal/smiop"), pkgPathMatches(pkg, "internal/seckey"):
		return strings.HasPrefix(name, "Seal") || strings.HasPrefix(name, "Sign") ||
			strings.HasPrefix(name, "MAC") || strings.HasPrefix(name, "Send")
	case pkgPathMatches(pkg, "internal/transport"), pkgPathMatches(pkg, "internal/transport/tcp"),
		pkgPathMatches(pkg, "internal/netsim"):
		return name == "Send"
	}
	return false
}

// pkgPathMatches reports whether path is the module-relative package rel or
// any import path ending in /rel (so both "itdos/internal/cdr" and the
// fixture's "fixture/internal/cdr" match "internal/cdr").
func pkgPathMatches(path, rel string) bool {
	return path == rel || strings.HasSuffix(path, "/"+rel)
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdentObj resolves the base identifier of an expression like
// s.enc or bufs[i] to its object, or nil for dynamic bases (call results,
// literals) that positional inside/outside reasoning cannot classify.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
