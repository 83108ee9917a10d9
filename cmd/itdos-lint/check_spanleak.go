package main

import (
	"go/ast"
	"go/types"
)

// checkSpanLeak flags a trace span started (obs.Tracer.Start /
// StartDetached) whose End is not guaranteed on every return path of the
// starting function. A leaked span stays "open" in the dump and corrupts
// the currency stack for everything traced after it.
//
// Spans that escape the starting scope transfer ownership and are skipped:
// passed as a call argument or return value, stored in a field or another
// variable, or captured by a non-deferred closure (the async srm.order
// spans ended by ack handlers are the motivating case). A start whose
// result is discarded outright (statement position or assigned to _) can
// never be ended and is always reported.
var checkSpanLeak = &Check{
	Name: "span-leak",
	Doc:  "requires every trace span started in replica-stack code to be ended by defer or on every return path",
	Paths: []string{
		"internal/replica", "internal/smiop", "internal/srm", "internal/pbft",
		"internal/orb", "internal/vote", "internal/groupmgr",
	},
	Run: spanObligation.run,
}

var spanObligation = &obligation{
	classify: func(info *types.Info, call *ast.CallExpr) (role, any) {
		recv, pkg, typ, name := methodCall(info, call)
		switch {
		case !pkgPathMatches(pkg, "internal/obs"):
		case typ == "Tracer" && (name == "Start" || name == "StartDetached"):
			return acquires, nil
		case typ == "Span": // Annotate, Ended and the rest read the span
			return releasesIf(name == "End"), varKey(info, recv)
		}
		return none, nil
	},
	discarded: "span started and discarded: it can never be ended; assign it and End it (or defer End)",
	leaked:    leakedVar("span not ended on every return path: add `defer %[1]s.End()` or End it before each return"),
}
