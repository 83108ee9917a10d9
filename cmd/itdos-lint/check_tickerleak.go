package main

import (
	"go/ast"
	"go/types"
)

// checkTickerLeak complements no-wallclock: that check polices *reading*
// real time in the deterministic packages; this one polices *allocating*
// real-time timers anywhere. The failure modes are mundane but real under
// the load the ROADMAP targets (millions of users, long-lived liveness and
// reply-fallback timers):
//
//   - time.After in a loop (usually a select-in-for) allocates a fresh
//     timer every iteration that stays live until it fires — with a long
//     timeout and a hot loop that is an unbounded heap of pending timers;
//   - time.Tick has no Stop at all, so its ticker is leaked by design;
//   - time.NewTicker whose Stop is not reached on every return path keeps a
//     goroutine and a runtime timer alive for the life of the process.
//
// The fix is to hoist a single NewTimer/NewTicker out of the loop and
// Reset/Stop it, or (in simulation code) to take timers from the netsim
// virtual clock, which no-wallclock already enforces.
var checkTickerLeak = &Check{
	Name: "ticker-leak",
	Doc:  "forbids time.After/time.Tick in loops and time.NewTicker without a Stop",
	Run: func(p *Pass) {
		tickerObligation.run(p)
		for _, f := range p.Files {
			timersInLoops(p, f, false)
		}
	},
}

var tickerObligation = &obligation{
	classify: func(info *types.Info, call *ast.CallExpr) (role, any) {
		if isPkgFunc(calleeFunc(info, call), "time", "NewTicker") {
			return acquires, nil
		}
		recv, pkg, typ, name := methodCall(info, call)
		if pkg == "time" && typ == "Ticker" { // Reset re-arms it, still ours
			return releasesIf(name == "Stop"), varKey(info, recv)
		}
		return none, nil
	},
	field:     "C",
	discarded: "time.NewTicker result discarded: the ticker can never be stopped; assign it and defer Stop",
	leaked:    leakedVar("time.NewTicker without a Stop on %[1]s leaks its goroutine and runtime timer; add defer %[1]s.Stop()"),
}

// timersInLoops flags per-iteration timer allocation, and time.Tick
// anywhere. A closure runs on its own schedule and starts outside any loop.
func timersInLoops(p *Pass, n ast.Node, inLoop bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ForStmt:
			timersInLoops(p, m.Body, true)
			return false
		case *ast.RangeStmt:
			timersInLoops(p, m.Body, true)
			return false
		case *ast.FuncLit:
			timersInLoops(p, m.Body, false)
			return false
		case *ast.CallExpr:
			fn := calleeFunc(p.Info, m)
			switch {
			case isPkgFunc(fn, "time", "Tick"):
				p.Reportf(m.Pos(), "time.Tick leaks its ticker by design; use time.NewTicker with defer Stop")
			case !inLoop:
			case isPkgFunc(fn, "time", "After"):
				p.Reportf(m.Pos(), "time.After in a loop allocates an unstoppable timer per iteration; hoist one time.NewTimer out of the loop and Reset it")
			case isPkgFunc(fn, "time", "NewTicker"):
				p.Reportf(m.Pos(), "time.NewTicker in a loop allocates a ticker per iteration; hoist it out and reuse")
			}
		}
		return true
	})
}
